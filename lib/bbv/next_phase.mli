(** First-order Markov next-phase predictor (Sherwood et al. / Lau et al.,
    the papers' [20] and [24]).

    The paper deliberately leaves next-phase prediction out of its BBV
    baseline ("this BBV implementation does not contain a next phase
    predictor") while noting that accurate prediction would improve the
    baseline's adaptation coverage — and that mispredictions cause wrong
    adaptations and rollbacks.  This module supplies that predictor so the
    claim can be measured ({!Scheme} with [next_phase_prediction = true]).

    The model is a transition-count matrix over observed phase ids: after
    classifying interval t as phase p, the predictor is asked for the likely
    phase of interval t+1.  A prediction is only issued when the modal
    successor has been seen enough times and carries enough probability
    mass. *)

type t

val create : ?min_count:int -> ?min_confidence:float -> unit -> t
(** Defaults: at least 2 observations of the modal successor and 60%
    transition probability before predicting. *)

val observe : t -> prev:int -> next:int -> unit
(** Record one phase transition (self-transitions included). *)

val predict : t -> current:int -> int option
(** Likely phase of the next interval, or [None] below the confidence
    bar. *)

val record_outcome : t -> predicted:int option -> actual:int -> unit
(** Track accuracy: call once per interval with what was predicted for it
    (possibly nothing) and what it turned out to be. *)

val predictions : t -> int
(** Predictions issued. *)

val correct : t -> int

val accuracy : t -> float
(** [correct / predictions]; 0 when none were issued. *)

val sync : Ace_util.Codec.io -> t -> unit
(** Transition counts (rows and successors sorted by phase id, so equal
    predictors write equal bytes) plus accuracy counters, for
    checkpoints. *)
