(** Set-associative, write-back, write-allocate cache with true LRU
    replacement and live resizing.

    This is the substrate for the paper's configurable L1 data cache and
    unified L2 cache.  Resizing models the hardware described in the paper:
    shrinking (or growing) the array forces dirty lines to be written back to
    the next level, which is the dominant reconfiguration overhead (§2.1).

    The access path is allocation- and exception-free: the hit scan visits
    every way of the set with no data-dependent branch (which way hits is
    unpredictable to the host), the victim scan on a 2-way cache is computed
    from flags, results are constant constructors and the dirty victim's
    address is exposed through {!last_victim_addr}.  [access] costs zero
    minor words per call — asserted by test and tracked by
    [bench/main.exe -- --core-json]. *)

type config = {
  size_bytes : int;  (** Total capacity; must be [assoc * line_bytes * 2^k]. *)
  assoc : int;  (** Ways per set. *)
  line_bytes : int;  (** Line size; a power of two. *)
}

val config_valid : config -> bool

val pp_config : Format.formatter -> config -> unit
(** e.g. "64KB 2-way 64B". *)

type t

val create : config -> t
(** Fresh, empty cache.
    @raise Invalid_argument on an invalid geometry. *)

val config : t -> config

type result =
  | Hit
  | Miss  (** Line filled; the victim (if any) was clean. *)
  | Miss_dirty_victim
      (** Line filled; a dirty victim was evicted and must be written to the
          next level — its address is {!last_victim_addr}. *)

val access : t -> int -> write:bool -> result
(** [access t addr ~write] looks up the byte address, filling on a miss and
    marking the line dirty on a write. *)

val access_batch :
  t ->
  int array ->
  n:int ->
  loads:int ->
  stores:int ->
  miss_addrs:int array ->
  miss_victims:int array ->
  int
(** [access_batch t addrs ~n ~loads ~stores ~miss_addrs ~miss_victims]
    performs [n] accesses for [addrs.(0 .. n-1)], leaving the array state,
    LRU clock and counters exactly as [n] calls to {!access} would.  The
    write flag is positional: each period of [loads + stores] addresses is
    [loads] reads followed by [stores] writes (the basic-block shape), and
    [n] must be a whole number of periods.  Returns the number of misses
    [m]; for [j < m], [miss_addrs.(j)] is the j-th missing address in
    access order and [miss_victims.(j)] is its dirty victim's line-aligned
    address, or [-1] if the victim was clean — the caller replays these
    against the next level.  Both scratch arrays must have at least [n]
    elements.  An access to the same line as the access before it is
    served from that access's slot without a scan.  Allocates nothing. *)

val last_victim_addr : t -> int
(** Byte address (line-aligned) of the most recent dirty victim.  Only
    meaningful immediately after [access] returned {!Miss_dirty_victim}. *)

val resize : t -> size_bytes:int -> int
(** [resize t ~size_bytes] switches the capacity, keeping associativity and
    line size.  The entire array is flushed (invalidated); the return value
    is the number of dirty lines that had to be written back.  Resizing to
    the current size is a no-op returning 0. *)

val dirty_lines : t -> int
(** Current number of dirty lines (what a resize would write back). *)

val iter_dirty : t -> (int -> unit) -> unit
(** Apply a function to the line-aligned address of every dirty resident
    line; the hierarchy uses this to replay flushed L1 lines into the L2. *)

val invalidate_all : t -> int
(** Flush without changing geometry; returns dirty lines written back. *)

val splice : t -> accesses:int -> hits:int -> writebacks:int -> unit
(** Add memoized counter deltas without performing accesses.  Array
    contents (resident lines, LRU clock) are untouched; used by
    fast-forward simulation to account for a skipped phase. *)

val sync : Ace_util.Codec.io -> t -> unit
(** Current capacity, array contents, LRU clock and counters, for
    checkpoints.  Reading may change the capacity (associativity and line
    size stay those of [t]) and refuses a capacity that is not a valid
    geometry or that the remaining input cannot fill, and a line that does
    not map to the set it is stored in or that appears twice in one set.
    @raise Ace_util.Codec.Error on a state [t] cannot hold. *)

(** Cumulative counters since [create]. *)
module Stats : sig
  val accesses : t -> int
  val hits : t -> int
  val misses : t -> int
  val writebacks : t -> int
  (** Dirty victims evicted by fills (excludes flush writebacks). *)

  val flush_writebacks : t -> int
  (** Dirty lines written back by [resize]/[invalidate_all]. *)

  val resizes : t -> int

  val miss_rate : t -> float
end
