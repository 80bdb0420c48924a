(** Phase tracking over BBV signatures.

    At each sampling-interval boundary the tracker is fed the interval's
    normalized BBV.  It matches the vector against its (unbounded, as the
    paper grants the baseline) signature table: the nearest signature within
    the Manhattan-distance threshold identifies a recurring phase; otherwise
    a new phase is created.  The tracker also maintains run lengths so
    intervals can be classified stable (part of a run of >= 2 equal-phase
    intervals) or transitional — the split Figure 1 reports. *)

type t

val create : ?threshold:float -> unit -> t
(** [threshold] is the Manhattan-distance match bound on L1-normalized
    vectors (range 0-2); default 0.15. *)

val classify : t -> float array -> int
(** Consume one interval's normalized BBV and return its phase id (fresh ids
    are consecutive from 0).  Matching updates the stored signature with an
    exponential average so signatures track slow drift. *)

val phase_count : t -> int

val intervals : t -> int
(** Total intervals classified. *)

val stable_intervals : t -> int
(** Intervals in runs of length >= 2.  A run's first interval is counted
    retroactively when its second interval arrives. *)

val transitional_intervals : t -> int

val current_phase : t -> int
(** Phase id of the most recent interval; -1 before any interval. *)

val current_run : t -> int
(** Length of the current same-phase run. *)

val phase_intervals : t -> int -> int
(** Intervals attributed to the given phase id. *)

val sync : Ace_util.Codec.io -> t -> unit
(** Signature table and run-length counters, for checkpoints.  The match
    threshold is fixed at creation and not part of them.
    @raise Ace_util.Codec.Error if signature and count tables disagree. *)
