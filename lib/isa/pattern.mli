(** Memory access patterns of basic blocks.

    A pattern describes how one basic block touches data memory each time it
    executes.  The execution engine owns one mutable {!cursor} per static
    block and asks the pattern for the next byte address on every load or
    store.  Patterns are the knob by which synthetic workloads express
    locality: a block with a small [extent] fits in a small cache and makes
    downsizing profitable; a streaming block defeats any cache. *)

type t =
  | Sequential of { base : int; extent : int; stride : int }
      (** Stream through [base, base+extent) with the given byte stride,
          wrapping at the end.  Models array scans (compress, mpeg). *)
  | Random_in of { base : int; extent : int }
      (** Uniform random addresses in [base, base+extent).  Models hash and
          symbol-table traffic (db, javac). *)
  | Pointer_chase of { base : int; extent : int }
      (** A deterministic chaotic walk over the region: the next address is a
          hash of the previous one.  Same cache behaviour as [Random_in] but
          the walk is reproducible without an RNG and models dependent
          (linked-structure) traffic — ray trees, parser stacks. *)

val footprint : t -> int
(** Bytes spanned by the pattern ([extent]). *)

val base : t -> int

val validate : t -> (unit, string) result
(** Check invariants: positive extent, positive stride, non-negative base. *)

(** Per-block mutable iteration state. *)
type cursor

val cursor : t -> cursor
(** Fresh cursor positioned at the pattern's start. *)

val next : cursor -> rng:Ace_util.Rng.t -> int
(** Next byte address.  Only [Random_in] consumes the RNG. *)

val next_batch : cursor -> rng:Ace_util.Rng.t -> int array -> pos:int -> n:int -> unit
(** [next_batch c ~rng buf ~pos ~n] fills [buf.(pos)] … [buf.(pos + n - 1)]
    with the addresses that [n] successive calls to {!next} would return,
    leaving the cursor and RNG in exactly the state those calls would leave
    them.  The pattern dispatch is performed once per batch rather than once
    per address; the call allocates nothing.  The caller must ensure [buf]
    has at least [pos + n] elements. *)

val reset : cursor -> unit
(** Return the cursor to the pattern's start (used between engine runs). *)

val skip : cursor -> rng:Ace_util.Rng.t -> int -> unit
(** [skip c ~rng n] leaves the cursor (and the RNG, for [Random_in]) exactly
    where [n] calls to {!next} would have, without producing the addresses.
    O(1) for [Sequential] and [Random_in]; O(n) cheap hashing for
    [Pointer_chase].  Fast-forward simulation uses this to keep
    architectural state bit-identical to a full run. *)

val sync : Ace_util.Codec.io -> cursor -> unit
(** The iteration position without the (statically known) pattern, for
    checkpoints.  The engine pairs positions with cursors by block id. *)
