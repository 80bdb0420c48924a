(** The DO-based ACE management framework (§3, Figure 2 of the paper).

    [attach] hooks the framework into an engine's DO system.  From then on:

    - when the DO system promotes a method to hotspot, the framework
      classifies the hotspot's dynamic size, assigns it the matching CU
      subset ({!Decoupling}), builds its configuration list, and has the JIT
      insert tuning/profiling code at its boundaries;
    - each hotspot invocation drives the hotspot's {!Tuner}: tuning
      invocations test configurations (through the {!Hw} guard), configured
      invocations re-apply the selected configuration and occasionally sample
      for behaviour drift;
    - reconfiguration side effects are charged: flush stall cycles to the
      engine clock, flush energy and per-epoch dynamic/leakage energy to each
      cache CU's {!Ace_power.Accounting}.

    With a fault injector attached ([?faults]) and a {!Tuner.resilience}
    policy enabled, the framework additionally verifies every claimed
    register write by reading the setting back, retries/backs off/skips
    configurations whose installation keeps failing, quarantines hotspots
    that re-tune in storms, and force-pins a CU at its safe maximum once its
    writes fail persistently (graceful degradation; periodic probe writes
    recover the CU once a transient fault clears) — while tracking how
    long each CU spent diverged from what software believed
    (misconfiguration time, an omniscient simulator-only metric).

    Call {!finalize} once after [Engine.run]; then read {!report}. *)

type config = {
  tuner : Tuner.params;
  coarse_invocations_per_config : int;
      (** Overrides [tuner.invocations_per_config] for hotspots managing a
          coarse-grained CU (reconfiguration interval >= 500 K instructions):
          such hotspots are invoked far less often, so their tuning must
          finish in fewer invocations even at slightly higher measurement
          noise. *)
  decoupling : bool;  (** [false] = ablation: joint combinatorial tuning. *)
  prediction : bool;
      (** [true] = the JIT statically predicts each hotspot's configuration
          ({!Predictor}) and skips the tuning phase entirely — the paper's
          §6 future-work feature.  Exit sampling still catches
          mispredictions and falls back to measurement-based tuning. *)
  jit_patch_instrs : int;
      (** JIT cost of rewriting a hotspot's boundary stubs (tuning code
          insertion, tuning -> configuration code replacement). *)
  resilience : Tuner.resilience;
      (** Fault-tolerance policy threaded into every hotspot's tuner.
          Disabled by default: with {!Tuner.no_resilience} the framework
          behaves bit-for-bit as before the fault model existed. *)
  cu_failure_threshold : int;
      (** Consecutive verify-failed writes to one CU before it is declared
          failed and pinned at its safe maximum. *)
  cu_probe_interval : int;
      (** Entries between recovery probes of a failed CU: one probe write
          checks whether the fault (e.g. a transient latch-up) has cleared,
          and a verified landing brings the CU back under management. *)
}

val default_config : config
(** Decoupling on, default tuner parameters (2 invocations per configuration
    for coarse hotspots), 2000-instruction JIT patches, resilience off. *)

val config_for : resilient:bool -> config
(** {!default_config}, with {!Tuner.default_resilience} when [resilient]:
    what the [--resilient] flag selects everywhere. *)

type t

val attach :
  ?config:config ->
  ?faults:Ace_faults.Faults.t ->
  ?obs:Ace_obs.Obs.t ->
  Ace_vm.Engine.t ->
  cus:Cu.t array ->
  t
(** Install the framework on the engine.  The engine's hotspot/entry/exit
    hooks are taken over (previously installed hooks are replaced).
    [faults] (default {!Ace_faults.Faults.none}) is applied to every control
    register write issued through {!Hw.request}.  [obs] (default
    {!Ace_obs.Obs.null}) receives per-CU trial/reconfig/retune counters,
    CU failure/recovery events, and is handed to every tuner it creates. *)

val finalize : t -> unit
(** Close coverage windows, misconfiguration windows and energy-accounting
    epochs at the engine's final counters.  Must be called exactly once,
    after the run. *)

(** Per-CU outcome of a run (rows of Tables 5 and 6). *)
type cu_report = {
  cu_name : string;
  class_hotspots : int;  (** Hotspots assigned to this CU. *)
  tuned_hotspots : int;  (** Of those, how many completed tuning. *)
  tunings : int;  (** Configuration trials (tuning attempts). *)
  reconfigs : int;
      (** Times the selected most-energy-efficient configuration was applied
          (actual setting changes in the configured phase). *)
  denied : int;  (** Requests dropped by the hardware guard. *)
  invalid : int;  (** Out-of-range requests rejected at the {!Hw} boundary. *)
  retunes : int;  (** Re-tuning rounds triggered by exit sampling. *)
  predicted_hotspots : int;
      (** Hotspots configured by static prediction (no tuning ran). *)
  coverage : float;
      (** Fraction of program instructions executed inside configured
          hotspots of this CU's class. *)
  energy_nj : float option;  (** Total energy (cache CUs only). *)
  avg_size_bytes : float option;  (** Time-weighted average configured size. *)
  verify_failures : int;
      (** Writes the hardware claimed to apply whose read-back mismatched. *)
  misconfig_instrs : int;
      (** Instructions executed while the CU's actual setting diverged from
          what software believed (omniscient metric). *)
  failed : bool;  (** CU was declared failed and pinned at its maximum. *)
}

val report : t -> cu_report array
(** One entry per CU, in [cus] order.  Only valid after {!finalize}. *)

val accounting : t -> int -> Ace_power.Accounting.t option
(** Energy accountant of the i-th CU (cache CUs only). *)

val hotspot_settled : t -> meth_id:int -> bool
(** True when [meth_id] has no tuner state, or its tuner has chosen a
    configuration and is not currently consuming exit measurements.  The
    phase-statistics sampler ({!Ace_sample.Sample}) only fast-forwards
    settled hotspots, so tuner trials and drift checks always run under
    full simulation. *)

val measuring_open : t -> int
(** Number of invocations currently on the call stack whose exit
    measurement a tuner will consume (tuning trials and configured drift
    samples).  Zero means no measurement is in flight anywhere. *)

val unsettled_active : t -> bool
(** True while some tuner is mid-campaign or mid-measurement *and* its
    hotspot has been entered within the last 256 promoted-method entries.
    Splicing while such a tuner is live would starve its campaign (trials
    only run in fully simulated invocations) and let memoized timing
    diverge from the configuration the full run converges to.  Stranded
    tuners — promoted during setup and never invoked again — age out of
    this predicate, which is what keeps the splice fraction alive on
    many-hotspot workloads.  If a splice does starve a reachable tuner,
    the next recalibration observation re-enters its hotspot and
    re-imposes the block until it settles. *)

val unmanaged_hotspots : t -> int
(** Hotspots too small for any CU class. *)

val quarantined_hotspots : t -> int
(** Hotspots pinned by the re-tune-storm detector. *)

(** Aggregate fault-handling outcome of a run. *)
type resilience_report = {
  total_verify_failures : int;
  failed_cus : int;  (** CUs still pinned at their maximum at run end. *)
  cu_recoveries : int;
      (** Failed CUs brought back by a successful recovery probe. *)
  quarantined : int;
  tuner_retries : int;
  tuner_backoff_skips : int;
  tuner_skipped_configs : int;
  misconfig_frac : float;
      (** Mean over CUs of the fraction of program instructions spent
          misconfigured. *)
}

val resilience_report : t -> resilience_report

(** Per-hotspot diagnostic snapshot (examples and debugging). *)
type hotspot_view = {
  meth_id : int;
  meth_name : string;
  managed_cus : string list;
  configured : bool;
  quarantined : bool;
  selection : (string * string) list;
      (** (CU name, chosen setting label) once configured. *)
  tested : int;  (** Configurations measured in the current/last round. *)
  tuning_rounds : int;
}

val hotspot_views : t -> hotspot_view list
(** All managed hotspots, in method-id order. *)

(** {2 Checkpoints} *)

val sync : Ace_util.Codec.io -> t -> unit
(** The framework's mutable state, including its CUs' register/counter
    state, per-hotspot tuner FSMs and energy accounting.  Tuner
    construction inputs (configuration lists, coarse-vs-fine params) are
    recomputed from the framework config when reading, not serialized.
    Reading overwrites a freshly [attach]ed framework (same program, CU
    array and config).
    @raise Ace_util.Codec.Error on a state that framework cannot hold. *)
