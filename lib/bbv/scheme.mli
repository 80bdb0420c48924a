(** The complete BBV-based resource adaptation baseline: Sherwood-style phase
    tracking ({!Vector}, {!Tracker}) combined with the Dhodapkar–Smith tuning
    algorithm, driving the same configurable units and hardware guard as the
    DO-based framework (§4.1, §5.2 of the paper).

    Per interval (1 M instructions):
    + the ended interval's BBV is classified into a phase;
    + if the interval was testing a configuration of that phase, the
      measurement (energy proxy, IPC) is recorded — a measurement taken in a
      different phase than intended is discarded and the configuration is
      retried on the phase's next stable interval ("resume from the last
      tested configuration");
    + the next interval's configuration is chosen: the phase's selected best
      if it finished tuning, the next untested combinatorial configuration if
      the phase is stable and still tuning, or the maximum (baseline) sizes
      during transitional intervals, since resources are adapted only in
      stable phases.

    Unlike the DO-based framework, every phase explores the full cartesian
    configuration space of all CUs (16 with the paper's two caches). *)

type config = {
  buckets : int;
  match_threshold : float;
  performance_threshold : float;
      (** Same selection rule as the hotspot tuner, for a fair baseline. *)
  next_phase_prediction : bool;
      (** Enable the {!Next_phase} Markov predictor ([20]/[24] in the
          paper): when it confidently predicts the next interval's phase and
          that phase is tuned, its configuration is applied pre-emptively —
          even across transitional intervals.  Off by default, matching the
          paper's baseline. *)
}

val default_config : config

type t

val attach :
  ?config:config -> ?faults:Ace_faults.Faults.t -> Ace_vm.Engine.t ->
  cus:Ace_core.Cu.t array -> t
(** Install the scheme.  The engine must have been created with
    [interval_instrs = Some n] (the BBV sampling interval).  [faults]
    (default {!Ace_faults.Faults.none}) is applied to every control register
    write and to the observed interval cycle counts.  The BBV baseline has
    no resilience machinery — faulty measurements and dropped writes go
    undetected, as in the hardware-counter-driven original.
    @raise Invalid_argument otherwise. *)

val finalize : t -> unit
(** Close the final interval's energy epoch.  Call once, after the run. *)

(** Run statistics (Tables 5 and 6, Figure 1). *)

val tracker : t -> Tracker.t
val phase_count : t -> int

val quiescent : t -> bool
(** True when no configuration test is pending and every phase the
    tracker has classified so far completed tuning.  The phase-statistics
    sampler only fast-forwards while the scheme is quiescent, so BBV
    measurements always come from fully simulated intervals — and, since
    trials can only start at fully simulated interval boundaries,
    splicing is held off until the configuration sweep has finished
    rather than letting it starve the sweep. *)

val tuned_phase_count : t -> int

val intervals_in_tuned_phases : t -> float
(** Fraction of dynamic sampling intervals belonging to phases that
    completed tuning. *)

val stable_fraction : t -> float
(** Figure 1's stable share of intervals. *)

val tunings : t -> int
(** Configuration trials across all phases. *)

val reconfigs_per_cu : t -> int array
(** Actual setting changes while applying tuned-phase configurations, per
    CU. *)

val mean_per_phase_ipc_cov : t -> float
val inter_phase_ipc_cov : t -> float

val accounting : t -> int -> Ace_power.Accounting.t option
(** Energy accountant of the i-th CU (cache CUs only). *)

val predictor_stats : t -> (int * int * float) option
(** (predictions issued, correct, accuracy) when next-phase prediction is
    enabled; [None] otherwise. *)

(** {2 Checkpoints} *)

val sync : Ace_util.Codec.io -> t -> unit
(** The scheme's mutable state: the in-flight BBV accumulator, the phase
    tracker, per-phase tuning progress, energy accounting, CU register
    state and the optional next-phase predictor.  The configuration space
    is recomputed at attach time, not serialized.  Reading overwrites a
    freshly [attach]ed scheme (same engine config and CU array).
    @raise Ace_util.Codec.Error on a state that scheme cannot hold. *)
