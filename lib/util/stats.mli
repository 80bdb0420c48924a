(** Descriptive statistics used throughout the reproduction: coefficients of
    variation for Table 5, Manhattan distances for BBV matching, and running
    accumulators for per-hotspot performance profiles. *)

val mean : float array -> float
(** Arithmetic mean; 0 for an empty array. *)

val stddev : float array -> float
(** Population standard deviation; 0 for fewer than two samples. *)

val cov : float array -> float
(** Coefficient of variation: [stddev / mean], as a fraction (not percent).
    0 when the mean is 0. *)

val manhattan : float array -> float array -> float
(** [manhattan a b] is the L1 distance between two equal-length vectors.
    @raise Invalid_argument on length mismatch. *)

val normalize_l1 : float array -> float array
(** Scale a non-negative vector so its entries sum to 1; an all-zero vector is
    returned unchanged. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0, 100], nearest-rank on a sorted copy;
    0 for an empty array. *)

(** Running accumulator with O(1) updates (Welford), used for per-hotspot and
    per-phase IPC profiles.  Its floats are stored unboxed, so an update
    boxes none of them. *)
module Running : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val stddev : t -> float

  val cov : t -> float
  (** Coefficient of variation of the samples seen so far. *)

  val last : t -> float
  (** Most recently added sample; 0 if none. *)

  val sync : Codec.io -> t -> unit
  (** The full accumulator, for checkpoints. *)
end

(** Exponential moving average, used for hotspot size estimation.  The
    average is stored unboxed, so an update does not box it. *)
module Ema : sig
  type t

  val create : alpha:float -> t
  (** [alpha] is the weight of each new sample, in (0, 1]. *)

  val add : t -> float -> unit
  val value : t -> float
  (** Current estimate; the first sample initializes the average. *)

  val is_empty : t -> bool

  val sync : Codec.io -> t -> unit
  (** The average minus its fixed [alpha], for checkpoints. *)
end
