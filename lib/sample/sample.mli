(** Phase-memoized fast-forward sampling.

    The simulator's dominant cost is per-access cache simulation, yet a
    recurring phase's cache behaviour is stable once the program and the
    adaptation system settle (Phase Distance Mapping; see PAPERS.md).
    This module memoizes per-phase statistics — keyed on phase identity
    plus the exact hardware configuration — and, once a phase is "known",
    asks the engine to fast-forward through its repeats: architectural
    state (DO database, pattern cursors, RNG stream, instruction counts)
    advances exactly as a full simulation would, while timing and
    hierarchy counters are spliced in from the memoized record.  See
    DESIGN.md §Sampled simulation.

    Phase identity is the hotspot's header method by default.  With a
    [classify] function installed (the BBV scheme's phase tracker),
    records are instead keyed on the current {e behaviour cluster}:
    every header executing in one cluster shares one CPI-normalized
    record, so a method can fast-forward off repeats of other methods
    with the same behaviour signature.  When the tracker reassigns a
    header to a different cluster, the old cluster's records are dropped
    (its composition changed) and observations bound for it discarded.

    The detector is warmup-aware: the first [warmup] clean repeats of a
    phase are discarded (cold caches, JIT ramp), and fast-forwarding only
    begins after [repeats] further clean repeats whose per-instruction
    cycle costs agree within [cov_bound].  A repeat is clean when no
    promotion, recompile, reconfiguration or hardware fault landed inside
    it and the hardware signature is unchanged end to end.  Tuner trials
    always run under full simulation: the [allow] guard rejects
    candidates whose scheme is mid-measurement, and reports {e why} so
    the run summary can show what is holding coverage back. *)

type config = {
  warmup : int;  (** Clean repeats discarded before measuring. *)
  repeats : int;  (** Measured clean repeats required to trust a phase. *)
  cov_bound : float;  (** Maximum cycle CoV across the measured repeats. *)
  recalibrate_every : int;
      (** Consecutive splices of a phase before it is re-observed, so a
          record whose true cost drifted is corrected; 0 disables
          recalibration (never re-measure). *)
}

val default_config : config
(** warmup 2, repeats 3, cov_bound 0.05, recalibrate_every 64. *)

val of_flag : bool -> config option
(** What a [--sample] flag, or a serve job spec's [sample] field,
    selects: {!default_config} when set. *)

val validate_config : config -> (unit, string) result
(** Reject nonsensical thresholds (negative warmup, repeats < 1,
    non-finite or negative bound, negative recalibration period). *)

(** Scheme guard verdict for a splice/observe candidate.  [Unsettled]
    means the candidate's own tuner is mid-campaign or mid-measurement;
    [Not_quiescent] means some other measurement is in flight (for the
    hotspot scheme, a measuring invocation is open on the call stack).
    Only the reasons are counted — both rejections behave identically. *)
type verdict = Allow | Unsettled | Not_quiescent

(** The hardware configuration a phase record was measured under; part of
    the cache key, so statistics never cross configurations. *)
type hw_sig = {
  hs_l1d_bytes : int;
  hs_l2_bytes : int;
  hs_ilp_bits : int64;
  hs_exposure_bits : int64;
}

(** Record identity: one hotspot header method exactly, or a BBV
    behaviour cluster shared by every header executing in it. *)
type key = K_meth of int | K_cluster of int

type t

val attach :
  ?config:config ->
  ?faults:Ace_faults.Faults.t ->
  ?obs:Ace_obs.Obs.t ->
  ?classify:(unit -> int option) ->
  allow:(meth_id:int -> verdict) ->
  Ace_vm.Engine.t ->
  t
(** Install the sampler on an engine (once per engine, before it runs or
    resumes).  [allow] is the scheme quiescence guard: a candidate is only
    observed or fast-forwarded while it returns [Allow] (e.g. the hotspot
    tuner has settled and no measurement is in flight, or the BBV scheme
    has no pending trial).  [classify], when given, returns the current
    behaviour cluster id ([None] until the first classification) and
    switches record keying from headers to clusters.  [faults] must be
    the engine's injector: the sampler polls its monotone hardware-fault
    counter and invalidates the entire cache when it moves.  [obs]
    receives [sample.*] counters.
    @raise Invalid_argument on an invalid config or a double attach. *)

val config : t -> config

(** Cumulative sampling statistics for the run summary.  The [blocked_*]
    counters break down why candidates could not fast-forward: guard
    verdicts ([blocked_quiescence], [blocked_unsettled]), known records
    pinned under an open observation ([blocked_open_obs]) and poisoned
    records ([blocked_poisoned]). *)
type stats = {
  observations : int;  (** Candidate invocations measured in full. *)
  known_phases : int;  (** Cache entries currently fast-forwardable. *)
  splices : int;  (** Regions replayed from memoized records. *)
  spliced_instrs : int;  (** Instructions covered by replayed regions. *)
  blocked_quiescence : int;
  blocked_unsettled : int;
  blocked_open_obs : int;
  blocked_poisoned : int;
}

val stats : t -> stats

val record_keys : t -> key list
(** Keys of the memoized phase records, in increasing order. *)

(** {2 Checkpoints} *)

val sync : Ace_util.Codec.io -> t -> unit
(** The whole phase-statistics cache, the learned per-method invocation
    lengths, the header-to-cluster map and any observations in flight, so a
    killed sampled run resumes bit-identically with the uninterrupted one
    (same future decisions, same splices).  Reading overwrites a freshly
    attached sampler. *)
