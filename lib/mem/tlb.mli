(** Data TLB model: fixed capacity, 4 KB pages, FIFO replacement (a standard
    approximation of LRU for fully associative TLBs).

    Per the paper's Table 2 the TLB is 128-entry and fully set-associative.
    The TLB is consulted on the L1-miss path only: page-level locality makes
    TLB misses coincide with cache misses, and keeping the TLB off the
    every-access fast path matters for simulator throughput (see DESIGN.md).
    [access] is allocation-free: residency lives in an open-addressed probe
    table, so the miss path installs a page without touching the GC. *)

type t

val create : ?entries:int -> ?page_bytes:int -> unit -> t
(** Defaults: 128 entries, 4096-byte pages. *)

val access : t -> int -> bool
(** [access t addr] is [true] on a TLB hit; a miss installs the page. *)

val accesses : t -> int
val misses : t -> int
val flush : t -> unit

val splice : t -> accesses:int -> misses:int -> unit
(** Add memoized counter deltas without performing accesses (resident pages
    untouched); used by fast-forward simulation. *)

val sync : Ace_util.Codec.io -> t -> unit
(** Resident pages (sorted, so equal states write equal bytes), FIFO ring
    and counters, for checkpoints.  Reading refuses more resident pages
    than entries, a FIFO of another length, and a head or fill count
    outside the ring.
    @raise Ace_util.Codec.Error on a state [t] cannot hold. *)
