module Obs = Ace_obs.Obs

type params = {
  performance_threshold : float;
  retune_threshold : float;
  sample_every : int;
  invocations_per_config : int;
  warmup_invocations : int;
}

let default_params =
  {
    performance_threshold = 0.02;
    retune_threshold = 0.20;
    sample_every = 24;
    invocations_per_config = 3;
    warmup_invocations = 2;
  }

type resilience = {
  enabled : bool;
  max_entry_retries : int;
  backoff_base : int;
  backoff_max : int;
  quarantine_retunes : int;
  quarantine_window : int;
}

let no_resilience =
  {
    enabled = false;
    max_entry_retries = 0;
    backoff_base = 0;
    backoff_max = 0;
    quarantine_retunes = 0;
    quarantine_window = 0;
  }

let default_resilience =
  {
    enabled = true;
    max_entry_retries = 3;
    backoff_base = 1;
    backoff_max = 8;
    quarantine_retunes = 3;
    quarantine_window = 200;
  }

type measurement = { config : int array; energy : float; ipc : float }

type tuning_state = {
  mutable next : int;  (* index of the configuration to test *)
  mutable pending : bool;  (* config applied at entry, awaiting its exit *)
  mutable measurements : measurement list;  (* reversed *)
  (* Accumulators averaging the current configuration over
     [invocations_per_config] invocations to suppress per-invocation
     noise (hotspot IPC CoVs run 5-10%, Table 5). *)
  mutable acc_energy : float;
  mutable acc_ipc : float;
  mutable acc_n : int;
  (* Raw samples, kept alongside the sums: with resilience enabled the
     configuration's quality is the per-component median, which a single
     outlier spike cannot drag (the mean can). *)
  mutable acc_samples : (float * float) list;
  (* Invocations to let pass before measuring: right after promotion the
     JIT is still recompiling callees, so early invocations run with
     drifting code quality and would bias the measurements. *)
  mutable warmup_left : int;
  (* Resilience state: verify-failed installation attempts of the
     current configuration, and invocations left to sit out before the
     next attempt (exponential backoff). *)
  mutable attempts : int;
  mutable backoff_left : int;
  (* A below-threshold measurement is being re-measured before it may cut
     the sweep short (resilience only). *)
  mutable degrade_flagged : bool;
}

type phase =
  | Tuning of tuning_state
  | Configured of {
      best : int array;
      mutable ref_ipc : float;  (* IPC at the previous sample *)
      mutable exits : int;  (* exits since the last sample *)
      mutable sampling : bool;  (* this invocation's exit gathers stats *)
      (* A drift reading is being double-checked on the next exit before it
         is allowed to trigger re-tuning (resilience only): a transient
         measurement spike won't repeat, a real phase change will. *)
      mutable confirming : bool;
    }
  | Quarantined of { best : int array }
      (* Re-tune storm detected: the selection is pinned, exit sampling is
         off, and the hotspot stops paying tuning overhead. *)

(* Observability handles.  Counter/histogram names are global (shared by
   every tuner through registry idempotence); [id] tags ring events with the
   method this tuner adapts. *)
type meters = {
  obs : Obs.t;
  id : int;
  m_trials_started : Obs.counter;
  m_trial_results : Obs.counter;
  m_burn_ins : Obs.counter;
  m_rounds_finished : Obs.counter;
  m_drift_samples : Obs.counter;
  m_retunes : Obs.counter;
  m_quarantines : Obs.counter;
  m_configs_skipped : Obs.counter;
  h_degradation : Obs.histogram;
  h_drift : Obs.histogram;
}

let make_meters obs id =
  {
    obs;
    id;
    m_trials_started = Obs.counter obs "tuner.trials_started";
    m_trial_results = Obs.counter obs "tuner.trial_results";
    m_burn_ins = Obs.counter obs "tuner.burn_in_invocations";
    m_rounds_finished = Obs.counter obs "tuner.rounds_finished";
    m_drift_samples = Obs.counter obs "tuner.drift_samples";
    m_retunes = Obs.counter obs "tuner.retunes";
    m_quarantines = Obs.counter obs "tuner.quarantines";
    m_configs_skipped = Obs.counter obs "tuner.configs_skipped";
    h_degradation =
      Obs.histogram obs "tuner.ipc_degradation_pct"
        ~bounds:[| 0.0; 0.5; 1.0; 2.0; 5.0; 10.0; 20.0 |];
    h_drift =
      Obs.histogram obs "tuner.drift_pct"
        ~bounds:[| 1.0; 2.0; 5.0; 10.0; 20.0; 50.0 |];
  }

(* Configuration label for ring events, e.g. "1/0" (one setting index per
   CU).  Only built under a [tracing] gate. *)
let cfg_label config =
  String.concat "/" (Array.to_list (Array.map string_of_int config))

type t = {
  params : params;
  res : resilience;
  configs : int array array;
  mutable phase : phase;
  mutable rounds : int;
  mutable tested_last_round : int;
  (* Resilience bookkeeping. *)
  mutable total_exits : int;
  mutable retune_exits : int list;  (* total_exits values of recent retunes *)
  mutable retries : int;
  mutable backoff_skips : int;
  mutable skipped_configs : int;
  mutable verify_failures : int;
  mt : meters;
}

let fresh_tuning ~warmup =
  Tuning
    {
      next = 0;
      pending = false;
      measurements = [];
      acc_energy = 0.0;
      acc_ipc = 0.0;
      acc_n = 0;
      acc_samples = [];
      warmup_left = warmup;
      attempts = 0;
      backoff_left = 0;
      degrade_flagged = false;
    }

let create ?(resilience = no_resilience) ?(obs = Obs.null) ?(id = -1) params
    ~configs =
  if Array.length configs = 0 then invalid_arg "Tuner.create: empty configuration list";
  {
    params;
    res = resilience;
    configs;
    phase = fresh_tuning ~warmup:params.warmup_invocations;
    rounds = 1;
    tested_last_round = 0;
    total_exits = 0;
    retune_exits = [];
    retries = 0;
    backoff_skips = 0;
    skipped_configs = 0;
    verify_failures = 0;
    mt = make_meters obs id;
  }

let create_configured ?(resilience = no_resilience) ?(obs = Obs.null) ?(id = -1)
    params ~configs ~best =
  if Array.length configs = 0 then
    invalid_arg "Tuner.create_configured: empty configuration list";
  {
    params;
    res = resilience;
    configs;
    (* ref_ipc 0 means the first sampling exit only records a reference
       (drift from 0 is defined as 0 in [on_exit]). *)
    phase =
      Configured
        { best; ref_ipc = 0.0; exits = 0; sampling = false; confirming = false };
    rounds = 0;
    tested_last_round = 0;
    total_exits = 0;
    retune_exits = [];
    retries = 0;
    backoff_skips = 0;
    skipped_configs = 0;
    verify_failures = 0;
    mt = make_meters obs id;
  }

type action = Set of int array | Nothing

let on_entry t =
  match t.phase with
  | Tuning ts ->
      if ts.warmup_left > 0 then Nothing
      else if ts.backoff_left > 0 then begin
        ts.backoff_left <- ts.backoff_left - 1;
        t.backoff_skips <- t.backoff_skips + 1;
        Nothing
      end
      else
        (* [next] is always in range here: a skip that exhausts the list is
           resolved by the same invocation's exit, before the next entry. *)
        Set t.configs.(ts.next)
  | Configured cs ->
      cs.sampling <- cs.confirming || (cs.exits + 1) mod t.params.sample_every = 0;
      Set cs.best
  | Quarantined q ->
      (* Keep re-asserting the pinned configuration: a transiently dropped
         write self-heals on the next admitted request. *)
      Set q.best

(* Abandon the configuration under test after repeated verify failures. *)
let skip_config t ts =
  t.skipped_configs <- t.skipped_configs + 1;
  Obs.incr t.mt.obs t.mt.m_configs_skipped;
  ts.attempts <- 0;
  ts.backoff_left <- 0;
  ts.acc_energy <- 0.0;
  ts.acc_ipc <- 0.0;
  ts.acc_n <- 0;
  ts.acc_samples <- [];
  ts.next <- ts.next + 1

let entry_outcome ?(verified = true) t ~applied ~changed =
  match t.phase with
  | Tuning ts ->
      (if not t.res.enabled then ts.pending <- applied && not changed
      else if not verified then begin
        (* The hardware claimed success but the read-back disagrees: the
           measurement would be mislabeled.  Discard it, back off, and after
           [max_entry_retries] give the configuration up. *)
        t.verify_failures <- t.verify_failures + 1;
        ts.pending <- false;
        ts.attempts <- ts.attempts + 1;
        if ts.attempts > t.res.max_entry_retries then skip_config t ts
        else begin
          t.retries <- t.retries + 1;
          ts.backoff_left <-
            min t.res.backoff_max (t.res.backoff_base lsl (ts.attempts - 1))
        end
      end
      else begin
        (* A guard denial (not applied) is not a fault: the configuration is
           simply retried next invocation, as without resilience. *)
        if applied then ts.attempts <- 0;
        ts.pending <- applied && not changed
      end);
      (* First admitted invocation of a configuration campaign: the trial
         opens here (re-opens after a degrade-flagged re-measure, which is a
         genuine second trial of the same configuration). *)
      if ts.pending && ts.acc_n = 0 then begin
        Obs.incr t.mt.obs t.mt.m_trials_started;
        if Obs.tracing t.mt.obs then
          Obs.record t.mt.obs
            (Obs.Trial_start
               { id = t.mt.id; cfg = cfg_label t.configs.(ts.next) })
      end
  | Configured cs ->
      if t.res.enabled && not verified then begin
        (* Don't sample an invocation that ran on a mis-installed
           configuration: its IPC would spuriously trigger re-tuning. *)
        t.verify_failures <- t.verify_failures + 1;
        cs.sampling <- false
      end
  | Quarantined _ -> ()

let measuring t =
  match t.phase with
  | Tuning ts -> ts.pending
  | Configured cs -> cs.sampling
  | Quarantined _ -> false

type transition = Continue | Finished of int array | Retuning | Quarantine

(* Select the most energy-efficient measured configuration whose IPC is
   within the performance threshold of the best measured IPC. *)
let select ~performance_threshold measurements =
  let best_ipc =
    List.fold_left (fun acc m -> Float.max acc m.ipc) 0.0 measurements
  in
  let floor_ipc = best_ipc *. (1.0 -. performance_threshold) in
  let eligible = List.filter (fun m -> m.ipc >= floor_ipc) measurements in
  let pool = match eligible with [] -> measurements | _ :: _ -> eligible in
  match pool with
  | [] -> assert false (* caller guarantees at least one measurement *)
  | m0 :: rest ->
      List.fold_left (fun acc m -> if m.energy < acc.energy then m else acc) m0 rest

let finish t measurements =
  let best =
    select ~performance_threshold:t.params.performance_threshold measurements
  in
  t.tested_last_round <- List.length measurements;
  t.phase <-
    Configured
      {
        best = best.config;
        ref_ipc = best.ipc;
        exits = 0;
        sampling = false;
        confirming = false;
      };
  Obs.incr t.mt.obs t.mt.m_rounds_finished;
  if Obs.enabled t.mt.obs then begin
    (* How much IPC the energy-driven selection gave up relative to the
       fastest measured configuration (the paper's <2% claim). *)
    let best_ipc =
      List.fold_left (fun acc m -> Float.max acc m.ipc) 0.0 measurements
    in
    if best_ipc > 0.0 then
      Obs.observe t.mt.obs t.mt.h_degradation
        ((best_ipc -. best.ipc) /. best_ipc *. 100.0);
    if Obs.tracing t.mt.obs then
      Obs.record t.mt.obs
        (Obs.Tuning_finished
           {
             id = t.mt.id;
             best = cfg_label best.config;
             tested = List.length measurements;
           })
  end;
  Finished best.config

(* Every configuration was skipped without a single clean measurement: fall
   back to the safe maximum (index 0, largest capacity first). *)
let finish_empty t =
  t.tested_last_round <- 0;
  t.phase <-
    Configured
      {
        best = t.configs.(0);
        ref_ipc = 0.0;
        exits = 0;
        sampling = false;
        confirming = false;
      };
  Obs.incr t.mt.obs t.mt.m_rounds_finished;
  if Obs.tracing t.mt.obs then
    Obs.record t.mt.obs
      (Obs.Tuning_finished
         { id = t.mt.id; best = cfg_label t.configs.(0); tested = 0 });
  Finished t.configs.(0)

(* Median of a non-empty list (average of the two middles when even): the
   robust location estimate the resilient tuner aggregates with. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let retune_storm t =
  (* Count recent re-tunes (including the one firing now) within the
     sliding exit window; K of them quarantine the hotspot. *)
  t.retune_exits <- t.total_exits :: t.retune_exits;
  let horizon = t.total_exits - t.res.quarantine_window in
  t.retune_exits <- List.filter (fun e -> e > horizon) t.retune_exits;
  List.length t.retune_exits >= t.res.quarantine_retunes

let on_exit t ~energy ~ipc =
  t.total_exits <- t.total_exits + 1;
  match t.phase with
  | Tuning ts ->
      if ts.warmup_left > 0 then begin
        ts.warmup_left <- ts.warmup_left - 1;
        Obs.incr t.mt.obs t.mt.m_burn_ins;
        if Obs.tracing t.mt.obs then
          Obs.record t.mt.obs
            (Obs.Burn_in { id = t.mt.id; left = ts.warmup_left });
        Continue
      end
      else if ts.next >= Array.length t.configs then
        (* Only reachable when resilience skipped the last configuration at
           this invocation's entry. *)
        (match ts.measurements with
        | [] -> finish_empty t
        | ms -> finish t ms)
      else if not ts.pending then Continue
      else begin
        ts.pending <- false;
        ts.acc_energy <- ts.acc_energy +. energy;
        ts.acc_ipc <- ts.acc_ipc +. ipc;
        ts.acc_n <- ts.acc_n + 1;
        if t.res.enabled then ts.acc_samples <- (energy, ipc) :: ts.acc_samples;
        if ts.acc_n < t.params.invocations_per_config then Continue
        else begin
          let n = float_of_int ts.acc_n in
          let m =
            (* Resilient: per-component median, so one spiked invocation
               cannot mislabel the configuration.  Otherwise the plain mean,
               bit-for-bit as before the fault model. *)
            if t.res.enabled then
              {
                config = t.configs.(ts.next);
                energy = median (List.map fst ts.acc_samples);
                ipc = median (List.map snd ts.acc_samples);
              }
            else
              {
                config = t.configs.(ts.next);
                energy = ts.acc_energy /. n;
                ipc = ts.acc_ipc /. n;
              }
          in
          (* The trial completed even if the degrade check below discards
             the measurement: every Trial_start gets a Trial_result. *)
          Obs.incr t.mt.obs t.mt.m_trial_results;
          if Obs.tracing t.mt.obs then
            Obs.record t.mt.obs
              (Obs.Trial_result
                 {
                   id = t.mt.id;
                   cfg = cfg_label m.config;
                   energy = m.energy;
                   ipc = m.ipc;
                 });
          ts.acc_energy <- 0.0;
          ts.acc_ipc <- 0.0;
          ts.acc_n <- 0;
          ts.acc_samples <- [];
          ts.attempts <- 0;
          let best_prev =
            List.fold_left (fun acc x -> Float.max acc x.ipc) 0.0 ts.measurements
          in
          let degraded =
            ts.measurements <> []
            && m.ipc < best_prev *. (1.0 -. t.params.performance_threshold)
          in
          if degraded && t.res.enabled && not ts.degrade_flagged then begin
            (* A below-threshold reading cuts the sweep short, hiding every
               smaller configuration from selection; under faults it is as
               likely measurement noise.  Discard it and re-measure the same
               configuration once — real degradation repeats, noise doesn't. *)
            ts.degrade_flagged <- true;
            Continue
          end
          else begin
            ts.degrade_flagged <- false;
            ts.measurements <- m :: ts.measurements;
            ts.next <- ts.next + 1;
            if ts.next >= Array.length t.configs || degraded then
              finish t ts.measurements
            else Continue
          end
        end
      end
  | Configured cs ->
      cs.exits <- cs.exits + 1;
      if not cs.sampling then Continue
      else begin
        cs.sampling <- false;
        let drift =
          if cs.ref_ipc <= 0.0 then 0.0
          else Float.abs (ipc -. cs.ref_ipc) /. cs.ref_ipc
        in
        Obs.incr t.mt.obs t.mt.m_drift_samples;
        if Obs.enabled t.mt.obs then begin
          Obs.observe t.mt.obs t.mt.h_drift (drift *. 100.0);
          if Obs.tracing t.mt.obs then
            Obs.record t.mt.obs
              (Obs.Drift_sample { id = t.mt.id; ipc; ref_ipc = cs.ref_ipc })
        end;
        if drift > t.params.retune_threshold then begin
          if t.res.enabled && not cs.confirming then begin
            (* Could be a one-off measurement spike rather than a phase
               change: re-sample on the very next exit before discarding the
               selection.  A real behaviour change will still be there. *)
            cs.confirming <- true;
            Continue
          end
          else if t.res.enabled && retune_storm t then begin
            t.phase <- Quarantined { best = cs.best };
            Obs.incr t.mt.obs t.mt.m_quarantines;
            if Obs.tracing t.mt.obs then
              Obs.record t.mt.obs (Obs.Quarantine { id = t.mt.id });
            Quarantine
          end
          else begin
            t.phase <- fresh_tuning ~warmup:0;
            t.rounds <- t.rounds + 1;
            Obs.incr t.mt.obs t.mt.m_retunes;
            if Obs.tracing t.mt.obs then
              Obs.record t.mt.obs (Obs.Retune { id = t.mt.id; drift });
            Retuning
          end
        end
        else begin
          cs.confirming <- false;
          cs.ref_ipc <- ipc;
          Continue
        end
      end
  | Quarantined _ -> Continue

let is_configured t =
  match t.phase with
  | Configured _ | Quarantined _ -> true
  | Tuning _ -> false

let is_quarantined t =
  match t.phase with Quarantined _ -> true | Configured _ | Tuning _ -> false

let selected t =
  match t.phase with
  | Configured cs -> Some cs.best
  | Quarantined q -> Some q.best
  | Tuning _ -> None

let tested_count t =
  match t.phase with
  | Tuning ts -> List.length ts.measurements
  | Configured _ | Quarantined _ -> t.tested_last_round

let rounds t = t.rounds

type stats = {
  retries : int;
  backoff_skips : int;
  skipped_configs : int;
  verify_failures : int;
  quarantined : bool;
}

let stats (t : t) =
  {
    retries = t.retries;
    backoff_skips = t.backoff_skips;
    skipped_configs = t.skipped_configs;
    verify_failures = t.verify_failures;
    quarantined = is_quarantined t;
  }

(* {2 Checkpoints}

   The FSM is plain data, described by value codecs.  [params], [res] and
   [configs] are construction-time inputs: a tuner is read blank and then
   then rebuilt with them, so the format stays independent of the
   configuration-space encoding. *)

let measurement_codec =
  let open Ace_util.Codec in
  let+ config = field (array int) (fun m -> m.config)
  and+ energy = field float (fun m -> m.energy)
  and+ ipc = field float (fun m -> m.ipc) in
  { config; energy; ipc }

let tuning_codec =
  let open Ace_util.Codec in
  let+ next = field int (fun ts -> ts.next)
  and+ pending = field bool (fun ts -> ts.pending)
  and+ measurements = field (list measurement_codec) (fun ts -> ts.measurements)
  and+ acc_energy = field float (fun ts -> ts.acc_energy)
  and+ acc_ipc = field float (fun ts -> ts.acc_ipc)
  and+ acc_n = field int (fun ts -> ts.acc_n)
  and+ acc_samples = field (list (pair float float)) (fun ts -> ts.acc_samples)
  and+ warmup_left = field int (fun ts -> ts.warmup_left)
  and+ attempts = field int (fun ts -> ts.attempts)
  and+ backoff_left = field int (fun ts -> ts.backoff_left)
  and+ degrade_flagged = field bool (fun ts -> ts.degrade_flagged) in
  { next; pending; measurements; acc_energy; acc_ipc; acc_n; acc_samples; warmup_left;
    attempts; backoff_left; degrade_flagged }

let phase_codec =
  let open Ace_util.Codec in
  let tuning = case 0 tuning_codec (fun ts -> Tuning ts)
  and configured =
    case 1
      (pair (array int) (pair float (triple int bool bool)))
      (fun (best, (ref_ipc, (exits, sampling, confirming))) ->
        Configured { best; ref_ipc; exits; sampling; confirming })
  and quarantined = case 2 (array int) (fun best -> Quarantined { best }) in
  variant "tuner phase"
    [ Case tuning; Case configured; Case quarantined ]
    (fun w -> function
      | Tuning ts -> write w tuning ts
      | Configured { best; ref_ipc; exits; sampling; confirming } ->
          write w configured (best, (ref_ipc, (exits, sampling, confirming)))
      | Quarantined { best } -> write w quarantined best)

let unattached = make_meters Obs.null (-1)

type tuner = t

let codec =
  let open Ace_util.Codec in
  let+ phase = field phase_codec (fun t -> t.phase)
  and+ rounds = field int (fun t -> t.rounds)
  and+ tested_last_round = field int (fun t -> t.tested_last_round)
  and+ total_exits = field int (fun t -> t.total_exits)
  and+ retune_exits = field (list int) (fun t -> t.retune_exits)
  and+ retries = field int (fun (t : tuner) -> t.retries)
  and+ backoff_skips = field int (fun (t : tuner) -> t.backoff_skips)
  and+ skipped_configs = field int (fun (t : tuner) -> t.skipped_configs)
  and+ verify_failures = field int (fun (t : tuner) -> t.verify_failures) in
  { params = default_params; res = no_resilience; configs = [||]; phase; rounds;
    tested_last_round; total_exits; retune_exits; retries; backoff_skips;
    skipped_configs; verify_failures; mt = unattached }

let rebuild ?(resilience = no_resilience) ?(obs = Obs.null) ?(id = -1) params
    ~configs t =
  if Array.length configs = 0 then invalid_arg "Tuner.rebuild: empty configuration list";
  (match t.phase with
  | Tuning ts when ts.next < 0 || ts.next > Array.length configs ->
      Ace_util.Codec.fail "tuning index %d outside %d configurations" ts.next
        (Array.length configs)
  | Tuning _ | Configured _ | Quarantined _ -> ());
  { t with params; res = resilience; configs; mt = make_meters obs id }
