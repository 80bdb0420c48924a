(** Per-hotspot tuning state machine (§3.2.2 and §3.3 of the paper).

    After a hotspot is detected and JIT-optimized it enters the {e tuning}
    phase: successive invocations test the configurations of its managed CUs
    one by one (largest first), until the list is exhausted or performance
    falls past [performance_threshold].  The most energy-efficient
    configuration among those within the performance threshold is then
    selected and the hotspot enters the {e configured} phase: every entry
    re-applies the chosen configuration (zero identification latency for
    recurring phases), and occasional exit sampling compares current IPC with
    the previous sample — a large change triggers re-tuning.

    With a {!resilience} policy enabled the state machine also survives
    faulty hardware: an entry whose read-back verification fails is retried
    with exponential backoff and eventually skipped; per-configuration
    measurements are aggregated by median instead of mean (one spiked
    invocation cannot mislabel a configuration); a drift reading in the
    configured phase is confirmed on the next exit before it may trigger
    re-tuning (transient spikes don't repeat, phase changes do); and a
    hotspot whose exit sampling re-tunes too often in a short window (a
    re-tune storm) is {e quarantined} — its selection is pinned and it stops
    paying tuning and sampling overhead.

    The tuner is a pure decision kernel: the framework feeds it entries,
    hardware outcomes and exit measurements, and executes the actions it
    returns.  This keeps the tuning policy unit-testable without a VM. *)

type params = {
  performance_threshold : float;
      (** Max tolerated IPC degradation vs the best measured configuration
          (paper example: 2%). *)
  retune_threshold : float;
      (** Relative IPC change between samples that triggers re-tuning. *)
  sample_every : int;
      (** In the configured phase, gather statistics every n-th exit. *)
  invocations_per_config : int;
      (** Invocations averaged per configuration during tuning.  Hotspot IPC
          varies 5-10% between invocations (Table 5's per-hotspot CoVs);
          averaging keeps that noise from tripping the 2% performance
          threshold. *)
  warmup_invocations : int;
      (** Invocations skipped between promotion and the first measurement,
          letting the JIT finish recompiling the hotspot's callees so code
          quality is stable when tuning begins. *)
}

val default_params : params
(** 2% performance threshold, 20% retune threshold, sample every 24 exits,
    3 invocations per configuration, 2 warm-up invocations. *)

(** Fault-tolerance policy. *)
type resilience = {
  enabled : bool;
  max_entry_retries : int;
      (** Verify-failed installation attempts per configuration before it is
          skipped. *)
  backoff_base : int;
      (** Invocations sat out after the first failed attempt; doubles per
          attempt. *)
  backoff_max : int;  (** Backoff ceiling, in invocations. *)
  quarantine_retunes : int;
      (** Re-tunes within {!field-quarantine_window} that quarantine the
          hotspot. *)
  quarantine_window : int;  (** Sliding re-tune-storm window, in exits. *)
}

val no_resilience : resilience
(** Disabled: the pre-fault-model behaviour, bit for bit. *)

val default_resilience : resilience
(** Enabled; 3 retries, backoff 1 doubling to 8, quarantine after 3 re-tunes
    within 200 exits. *)

type t

val create :
  ?resilience:resilience ->
  ?obs:Ace_obs.Obs.t ->
  ?id:int ->
  params ->
  configs:int array array ->
  t
(** [configs] is the hotspot's configuration list (from
    {!Decoupling.configurations}); must be non-empty.  Resilience defaults
    to {!no_resilience}.  [obs] (default {!Ace_obs.Obs.null}) receives trial
    counters/histograms; [id] (default [-1]) tags its ring events with the
    method this tuner adapts. *)

val create_configured :
  ?resilience:resilience ->
  ?obs:Ace_obs.Obs.t ->
  ?id:int ->
  params ->
  configs:int array array ->
  best:int array ->
  t
(** A tuner born in the configured phase with a statically predicted
    configuration ({!Predictor}) — zero tuning latency.  Exit sampling still
    runs, so a misprediction triggers ordinary measurement-based re-tuning.
    The first sample establishes the reference IPC. *)

type action =
  | Set of int array  (** Request these CU settings at this entry. *)
  | Nothing

val on_entry : t -> action

val entry_outcome : ?verified:bool -> t -> applied:bool -> changed:bool -> unit
(** Report the hardware's response to the entry's configuration request:
    [applied] = no CU denied it; [changed] = at least one CU actually
    switched setting (flushing its contents); [verified] (default [true]) =
    reading the settings back matched what was requested.  During tuning, a
    denied request leaves the configuration untested and it is retried next
    invocation; a changed request makes this invocation a cache-warming one —
    its measurement is discarded and measuring starts on the next invocation,
    keeping the reconfiguration's cold-start transient out of the
    configuration's quality estimate.  With resilience enabled, a
    verify-failed request additionally counts against the configuration's
    retry budget and engages backoff. *)

val measuring : t -> bool
(** True when this invocation's exit measurement will be consumed (tuning
    with an applied and verified configuration, or a sampling exit). *)

type transition =
  | Continue
  | Finished of int array
      (** Tuning just completed; the argument is the selected most
          energy-efficient configuration. *)
  | Retuning  (** Sampled behaviour change; tuning restarts. *)
  | Quarantine
      (** Re-tune storm: the selection was pinned instead of re-tuning.
          The hotspot should drop to plain configured instrumentation. *)

val on_exit : t -> energy:float -> ipc:float -> transition
(** Feed the invocation's measured energy proxy and IPC. *)

val is_configured : t -> bool
(** True in the configured and quarantined phases. *)

val is_quarantined : t -> bool

val selected : t -> int array option
(** Chosen configuration once configured. *)

val tested_count : t -> int
(** Configurations measured in the current tuning round. *)

val rounds : t -> int
(** Tuning rounds started (1 + re-tunes). *)

(** Cumulative resilience counters. *)
type stats = {
  retries : int;  (** Verify-failed attempts that were retried. *)
  backoff_skips : int;  (** Invocations sat out by backoff. *)
  skipped_configs : int;  (** Configurations abandoned after max retries. *)
  verify_failures : int;  (** Entries whose read-back mismatched. *)
  quarantined : bool;
}

val stats : t -> stats

(** A configuration and the energy and IPC measured under it. *)
type measurement = { config : int array; energy : float; ipc : float }

val select : performance_threshold:float -> measurement list -> measurement
(** The most energy-efficient measurement whose IPC is within
    [performance_threshold] of the best measured IPC (the whole list when
    none is).  The list must not be empty. *)

(** {2 Checkpoints}

    The FSM is plain data.  [params], [resilience] and the configuration
    list are construction-time inputs, recomputed by the caller rather than
    serialized. *)

val measurement_codec : measurement Ace_util.Codec.t

val codec : t Ace_util.Codec.t
(** Writes the FSM; reads a tuner that must be passed through {!rebuild}
    before use. *)

val rebuild :
  ?resilience:resilience ->
  ?obs:Ace_obs.Obs.t ->
  ?id:int ->
  params ->
  configs:int array array ->
  t ->
  t
(** A read tuner completed with its construction-time inputs.
    @raise Ace_util.Codec.Error if its tuning index falls outside [configs].
    @raise Invalid_argument if [configs] is empty. *)
