(** Execute one workload under one scheme and collect every statistic the
    paper's tables and figures need. *)

(** Table 4 statistics (hotspot characteristics), gathered from the DO
    database after a run. *)
type do_stats = {
  hotspot_count : int;
  mean_hotspot_size : float;
  pct_code_in_hotspots : float;
  mean_invocations : float;
  id_latency_frac : float;
      (** Hotspot identification latency as a fraction of execution. *)
  per_hotspot_ipc_cov : float;
  inter_hotspot_ipc_cov : float;
}

type hotspot_stats = {
  reports : Ace_core.Framework.cu_report array;  (** L1D at 0, L2 at 1. *)
  unmanaged_hotspots : int;
  views : Ace_core.Framework.hotspot_view list;
      (** Per-hotspot tuning outcomes (diagnostics). *)
}

type bbv_stats = {
  phases : int;
  tuned_phases : int;
  intervals_in_tuned_frac : float;
  stable_frac : float;
  bbv_tunings : int;
  bbv_reconfigs : int array;  (** Per CU: L1D at 0, L2 at 1. *)
  per_phase_ipc_cov : float;
  inter_phase_ipc_cov : float;
}

type result = {
  workload : string;
  scheme : Scheme.t;
  instrs : int;
  cycles : float;
  ipc : float;
  overhead_instrs : int;
  l1d_energy_nj : float;
  l2_energy_nj : float;
  l1d_avg_bytes : float;  (** Time-weighted average configured size. *)
  l2_avg_bytes : float;
  l1d_miss_rate : float;
  l2_miss_rate : float;
  do_stats : do_stats;
  hotspot : hotspot_stats option;  (** [Some] iff scheme = Hotspot. *)
  bbv : bbv_stats option;  (** [Some] iff scheme = Bbv. *)
  bbv_predictor : (int * int * float) option;
      (** (predictions, correct, accuracy) when the BBV next-phase predictor
          ran. *)
  resilience : Ace_core.Framework.resilience_report option;
      (** [Some] iff scheme = Hotspot (all-zero without faults). *)
  fault_stats : Ace_faults.Faults.stats option;
      (** Injector event counts; [Some] iff faults were requested. *)
  sample : Ace_sample.Sample.stats option;
      (** Phase-memoized sampling statistics; [Some] iff sampling was on. *)
}

val default_hot_threshold : int
(** 2 at the default reproduction scale (see DESIGN.md §5-6). *)

val bbv_interval : int
(** 1 M instructions, per the paper. *)

val run :
  ?scale:float ->
  ?seed:int ->
  ?hot_threshold:int ->
  ?framework_config:Ace_core.Framework.config ->
  ?with_issue_queue:bool ->
  ?bbv_prediction:bool ->
  ?fault_rate:float ->
  ?sample:Ace_sample.Sample.config ->
  ?obs:Ace_obs.Obs.t ->
  Ace_workloads.Workload.t ->
  Scheme.t ->
  result
(** Build the workload, create a fresh engine, attach the scheme, execute,
    finalize, and summarize.  [fault_rate] (off by default) attaches a
    fault injector with [Faults.preset ~rate], seeded deterministically
    from [seed], to the engine's measurement path and to every control
    register write the scheme issues.
    [sample] (off by default) attaches the phase-memoized fast-forward
    sampler ([Ace_sample.Sample]) after the scheme, with the scheme's
    quiescence guard, so recurring settled phases are replayed from
    memoized statistics instead of simulated access by access.
    [obs] (default {!Ace_obs.Obs.null}) is threaded through the engine, the
    memory hierarchy, the fault injector and the scheme, and receives the
    whole-run [engine.instrs]/[engine.ipc] gauges at the end; the caller
    exports it afterwards ([Ace_obs.Export]). *)

(** {2 Checkpointed execution}

    A checkpointed run periodically snapshots the complete simulator state
    (see [Ace_ckpt.Snapshot]) so it can be killed at any point and resumed
    bit-identically.  Checkpoint cadence: baseline and hotspot runs fire the
    engine's interval hook every [checkpoint_every] instructions (the hook is
    otherwise unused and side-effect free for them); BBV runs keep their
    fixed 1 M-instruction interval and snapshot every
    [ceil (checkpoint_every / 1M)] intervals. *)

exception Killed of int
(** Raised (and caught internally) when a run crosses [kill_after]; the
    payload is the interval boundary at which the run died. *)

type ckpt_outcome =
  | Completed of result
  | Killed_at of int  (** The run was killed at this instruction boundary. *)

val meta :
  ?scale:float ->
  ?seed:int ->
  ?hot_threshold:int ->
  ?with_issue_queue:bool ->
  ?bbv_prediction:bool ->
  ?resilient:bool ->
  ?fault_rate:float ->
  ?sample:Ace_sample.Sample.config ->
  checkpoint_every:int ->
  string ->
  Scheme.t ->
  Ace_ckpt.Snapshot.meta
(** The meta of a checkpointed run of the named workload.  Its defaults
    are set here and nowhere else: scale 1.0, seed 1,
    {!default_hot_threshold}, no issue queue, no BBV prediction, no
    resilience, no faults, no sampling.
    @raise Invalid_argument if [checkpoint_every] is not positive. *)

val run_checkpointed :
  ?io:Ace_util.Io.t ->
  ?scale:float ->
  ?seed:int ->
  ?hot_threshold:int ->
  ?with_issue_queue:bool ->
  ?bbv_prediction:bool ->
  ?resilient:bool ->
  ?fault_rate:float ->
  ?sample:Ace_sample.Sample.config ->
  ?kill_after:int ->
  ?on_snapshot:(Ace_ckpt.Snapshot.t -> unit) ->
  ?on_boundary:(total_instrs:int -> unit) ->
  ?obs:Ace_obs.Obs.t ->
  checkpoint_every:int ->
  path:string ->
  Ace_workloads.Workload.t ->
  Scheme.t ->
  ckpt_outcome
(** Like {!run}, but snapshot the full simulator state to [path] every
    [checkpoint_every] instructions (atomic write; the previous snapshot is
    rotated to [path.1]): the fresh run of {!meta}, {!continue}d.  The
    workload must be registered in [Ace_workloads.Specjvm] so a resume can
    rebuild it by name.  [resilient] enables the resilient tuner policy;
    [sample] enables phase-memoized fast-forwarding and rides in the
    snapshot metadata, so a resume reattaches the sampler and restores its
    cache.  [obs] state is written into every snapshot, so a later resume
    continues the same metrics and timeline.
    @raise Invalid_argument if [checkpoint_every] is not positive. *)

type durable
(** A run built from a snapshot meta, either fresh or with a snapshot's
    body read back in (a live mid-run state), ready to {!continue}. *)

val restore : ?obs:Ace_obs.Obs.t -> Ace_ckpt.Snapshot.t -> durable
(** Rebuild the run the snapshot's metadata describes and read the body
    into it.  The snapshot's observability image is loaded into [obs]
    (metrics resume their counts; a [Full] sink also gets the ring back),
    so the exported summary of a killed-and-resumed run is byte-identical
    to an uninterrupted one, and {!capture} of the result is the
    snapshot.
    @raise Ace_ckpt.Snapshot.Error [(Malformed _)] if the metadata names
    no registered workload or the body does not restore — never another
    exception, whatever the body's bytes. *)

val restore_latest :
  ?io:Ace_util.Io.t ->
  ?obs:Ace_obs.Obs.t ->
  path:string ->
  unit ->
  (durable * [ `Primary | `Fallback ]) option
(** {!restore} the snapshot at [path], falling back to [path.1] when the
    newest one is truncated, fails its CRC or does not restore (e.g. under
    injected storage faults).  [None] when neither restores. *)

val reopen :
  ?io:Ace_util.Io.t ->
  path:string ->
  Ace_ckpt.Snapshot.meta ->
  durable * [ `Primary | `Fallback | `Fresh ]
(** The one recovery policy of a durable run, shared by the serve daemon,
    the torture matrix and the soak supervisor: {!restore_latest} at
    [path] (the newest snapshot that restores, else [path.1]), else a
    fresh run built from [meta].  A restored run keeps the meta its
    snapshot carries.  The run's sink is {!Ace_obs.Obs.null}.
    @raise Invalid_argument if no snapshot restores and [meta] names no
    registered workload. *)

val capture : durable -> Ace_ckpt.Snapshot.t
(** The snapshot the run would write now. *)

val engine : durable -> Ace_vm.Engine.t
val sampler : durable -> Ace_sample.Sample.t option

val continue :
  ?io:Ace_util.Io.t ->
  ?kill_after:int ->
  ?on_snapshot:(Ace_ckpt.Snapshot.t -> unit) ->
  ?on_boundary:(total_instrs:int -> unit) ->
  ?path:string ->
  durable ->
  ckpt_outcome
(** Run a durable run to completion: a fresh one from its start, a
    restored one from its snapshot, first recording a ring-only
    [Ckpt_restore] marker on a [Full] sink.  With [path] set it writes
    checkpoints there and honours [kill_after]; without it this is a pure
    replay.  [kill_after] simulates a crash: the run stops with
    [Killed_at] at the first interval boundary at or past it (before
    writing that boundary's snapshot).  [on_snapshot] observes every
    snapshot just before it is written, after the run has been serialized
    into it (the determinism oracle collects them).  [on_boundary] runs at
    every interval boundary {e after} any snapshot due at that boundary has
    been written — the serve daemon's drain, deadline and chaos-kill checks
    live there, so stopping a run through it always leaves a snapshot of
    the progress already made.  Any exception it raises aborts the run and
    propagates to the caller.  All snapshot filesystem traffic goes
    through [io] (default [Ace_util.Io.real]) — the torture harness
    substitutes crash-point and fault backends here. *)

val resume_from_snapshot :
  ?io:Ace_util.Io.t ->
  ?kill_after:int ->
  ?on_snapshot:(Ace_ckpt.Snapshot.t -> unit) ->
  ?on_boundary:(total_instrs:int -> unit) ->
  ?path:string ->
  ?obs:Ace_obs.Obs.t ->
  Ace_ckpt.Snapshot.t ->
  ckpt_outcome
(** {!restore}, then {!continue}.
    @raise Ace_ckpt.Snapshot.Error as {!restore} does. *)
