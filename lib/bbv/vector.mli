(** Basic block vector accumulator (Sherwood et al., as configured in §4.1 of
    the paper): an array of 32 uncompressed 24-bit saturating counters,
    indexed by branch-PC bits above the 2 least significant.  Each executed
    basic block adds its instruction count to its bucket; at the end of a
    sampling interval the vector is normalized and compared against stored
    phase signatures with the Manhattan distance. *)

type t

val create : ?buckets:int -> unit -> t
(** Default 32 buckets. *)

val buckets : t -> int

val add : t -> pc:int -> instrs:int -> unit
(** Credit [instrs] to the bucket of the block whose branch is at [pc];
    saturates at 2^24 - 1. *)

val snapshot : t -> float array
(** L1-normalized copy of the counters (sums to 1 unless empty). *)

val clear : t -> unit

val is_empty : t -> bool

val sync : Ace_util.Codec.io -> t -> unit
(** Accumulator contents, for checkpoints.
    @raise Ace_util.Codec.Error if the bucket counts differ. *)
