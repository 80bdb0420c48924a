module Engine = Ace_vm.Engine
module Profile = Ace_vm.Profile
module Faults = Ace_faults.Faults
module Cu = Ace_core.Cu
module Hw = Ace_core.Hw
module Accounting = Ace_power.Accounting
module Hierarchy = Ace_mem.Hierarchy
module Cache = Ace_mem.Cache

type config = {
  buckets : int;
  match_threshold : float;
  performance_threshold : float;
  next_phase_prediction : bool;
}

let default_config =
  {
    buckets = 32;
    match_threshold = 0.15;
    performance_threshold = 0.02;
    next_phase_prediction = false;
  }

type phase_state = {
  mutable next : int;
  mutable measurements : Ace_core.Tuner.measurement list;
  mutable best : int array option;
  ipc_stats : Ace_util.Stats.Running.t;
}

type t = {
  engine : Engine.t;
  cus : Cu.t array;
  cfg : config;
  faults : Faults.t;
  vector : Vector.t;
  tracker : Tracker.t;
  configs : int array array;  (* full cartesian space over all CUs *)
  mutable phases : phase_state array;
  mutable n_phases : int;
  accts : Accounting.t option array;
  (* Pending configuration test: (phase id, config index).  The trial is
     measured in the interval right after it is installed. *)
  mutable pending : (int * int) option;
  (* snapshot of counters at the last interval boundary *)
  mutable instrs0 : int;
  mutable cycles0 : float;
  mutable l1a0 : int;
  mutable l1m0 : int;
  mutable l2a0 : int;
  mutable l2m0 : int;
  (* next-phase prediction (optional) *)
  predictor : Next_phase.t;
  mutable prev_phase : int;
  mutable pending_prediction : int option;
  (* metrics *)
  mutable n_tunings : int;
  reconfigs : int array;
  mutable finalized : bool;
}

let fresh_phase () =
  {
    next = 0;
    measurements = [];
    best = None;
    ipc_stats = Ace_util.Stats.Running.create ();
  }

let phase_state t id =
  while t.n_phases <= id do
    if t.n_phases >= Array.length t.phases then begin
      let bigger = Array.make (max 16 (2 * Array.length t.phases)) (fresh_phase ()) in
      Array.blit t.phases 0 bigger 0 t.n_phases;
      t.phases <- bigger
    end;
    t.phases.(t.n_phases) <- fresh_phase ();
    t.n_phases <- t.n_phases + 1
  done;
  t.phases.(id)

let interval_profile t =
  let hier = Engine.hierarchy t.engine in
  let l1d = Hierarchy.l1d hier and l2 = Hierarchy.l2 hier in
  let p =
    {
      Profile.instrs = Engine.instrs t.engine - t.instrs0;
      (* Fault model (c): the *observed* interval cycles can carry
         measurement noise; the snapshots below keep the true clock. *)
      cycles =
        Faults.perturb_cycles t.faults
          ~cycles:(Engine.cycles t.engine -. t.cycles0);
      l1d_accesses = Cache.Stats.accesses l1d - t.l1a0;
      l1d_misses = Cache.Stats.misses l1d - t.l1m0;
      l2_accesses = Cache.Stats.accesses l2 - t.l2a0;
      l2_misses = Cache.Stats.misses l2 - t.l2m0;
    }
  in
  t.instrs0 <- Engine.instrs t.engine;
  t.cycles0 <- Engine.cycles t.engine;
  t.l1a0 <- Cache.Stats.accesses l1d;
  t.l1m0 <- Cache.Stats.misses l1d;
  t.l2a0 <- Cache.Stats.accesses l2;
  t.l2m0 <- Cache.Stats.misses l2;
  p

let energy_proxy t (profile : Profile.t) config =
  let acc = ref 0.0 in
  Array.iteri
    (fun i cu ->
      acc := !acc +. cu.Cu.energy_proxy profile ~setting:config.(i))
    t.cus;
  !acc

let handle_applied t cu_idx flushed_lines =
  let cu = t.cus.(cu_idx) in
  let lat = Hierarchy.latencies (Engine.hierarchy t.engine) in
  Engine.add_stall_cycles t.engine
    (float_of_int (flushed_lines * lat.Hierarchy.writeback_cycles_per_line));
  match t.accts.(cu_idx) with
  | None -> ()
  | Some acct ->
      Accounting.on_reconfig acct ~new_size:(Cu.current_size cu)
        ~accesses_now:(cu.Cu.accesses_now ())
        ~cycles_now:(Engine.cycles t.engine) ~flushed_lines

(* Request a full configuration; true when no CU denied it.
   [count_reconfigs] marks applications of a tuned phase's best config. *)
let apply_config t config ~count_reconfigs =
  let ok = ref true in
  let now_instrs = Engine.instrs t.engine in
  Array.iteri
    (fun i _cu ->
      match Hw.request ~faults:t.faults t.cus.(i) ~setting:config.(i) ~now_instrs with
      | Hw.Unchanged -> ()
      | Hw.Denied -> ok := false
      | Hw.Applied { flushed_lines } ->
          handle_applied t i flushed_lines;
          if count_reconfigs then t.reconfigs.(i) <- t.reconfigs.(i) + 1)
    config;
  !ok

let max_config t = Array.make (Array.length t.cus) 0

let on_interval t =
  let profile = interval_profile t in
  if Vector.is_empty t.vector then ()
  else begin
    let vec = Vector.snapshot t.vector in
    Vector.clear t.vector;
    let phase = Tracker.classify t.tracker vec in
    let st = phase_state t phase in
    Ace_util.Stats.Running.add st.ipc_stats (Profile.ipc profile);
    if t.cfg.next_phase_prediction then begin
      Next_phase.record_outcome t.predictor ~predicted:t.pending_prediction
        ~actual:phase;
      if t.prev_phase >= 0 then
        Next_phase.observe t.predictor ~prev:t.prev_phase ~next:phase
    end;
    t.prev_phase <- phase;
    if Engine.in_fast_forward t.engine then begin
      (* Fast-forward deferral: intervals inside a replayed region still
         classify (the block vector is identical to a full simulation's)
         and record IPC, but hardware decisions — trial starts, best/max
         config applications, predictive pre-applications — are deferred
         to the next fully simulated interval.  The sampler only starts a
         region while no trial is pending, so there is never a measurement
         to resolve here. *)
      t.pending <- None;
      t.pending_prediction <- None
    end
    else begin
    (* Resolve a pending configuration test. *)
    (match t.pending with
    | Some (p, idx) when p = phase ->
        let config = t.configs.(idx) in
        st.measurements <-
          {
            Ace_core.Tuner.config;
            energy = energy_proxy t profile config;
            ipc = Profile.ipc profile;
          }
          :: st.measurements;
        st.next <- idx + 1;
        if st.next >= Array.length t.configs then
          st.best <-
            Some
              (Ace_core.Tuner.select
                 ~performance_threshold:t.cfg.performance_threshold
                 st.measurements)
                .Ace_core.Tuner.config
    | Some _ | None -> ());
    t.pending <- None;
    (* Choose the next interval's configuration.  With next-phase prediction
       on, a confident prediction of a tuned phase takes precedence: its
       configuration is applied pre-emptively, covering intervals (including
       transitional ones) the plain baseline would run at maximum size.  A
       misprediction means the next interval runs under the wrong phase's
       configuration — the rollback cost the paper warns about. *)
    let predicted_best =
      if not t.cfg.next_phase_prediction then None
      else begin
        let prediction = Next_phase.predict t.predictor ~current:phase in
        t.pending_prediction <- prediction;
        match prediction with
        | Some q when q < t.n_phases -> t.phases.(q).best
        | Some _ | None -> None
      end
    in
    match predicted_best with
    | Some best -> ignore (apply_config t best ~count_reconfigs:true)
    | None ->
    if Tracker.current_run t.tracker >= 2 then begin
      match st.best with
      | Some best -> ignore (apply_config t best ~count_reconfigs:true)
      | None ->
          if st.next < Array.length t.configs then begin
            let idx = st.next in
            (* One configuration per sampling interval, measured in the
               next one (the 1 M-instruction interval amortizes the
               install transient), exactly as the paper's BBV baseline. *)
            if apply_config t t.configs.(idx) ~count_reconfigs:false then begin
              t.pending <- Some (phase, idx);
              t.n_tunings <- t.n_tunings + 1
            end
          end
    end
    else
      (* Transitional interval: resources are adapted only at stable phases;
         fall back to the maximum (baseline) configuration. *)
      ignore (apply_config t (max_config t) ~count_reconfigs:false)
    end
  end

let attach ?(config = default_config) ?(faults = Faults.none) engine ~cus =
  (match (Engine.config engine).Engine.interval_instrs with
  | Some _ -> ()
  | None ->
      invalid_arg "Bbv.Scheme.attach: engine has no sampling interval configured");
  let t =
    {
      engine;
      cus;
      cfg = config;
      faults;
      vector = Vector.create ~buckets:config.buckets ();
      tracker = Tracker.create ~threshold:config.match_threshold ();
      configs =
        Ace_core.Decoupling.configurations ~cus
          ~managed:(List.init (Array.length cus) Fun.id);
      phases = Array.make 16 (fresh_phase ());
      n_phases = 0;
      accts =
        Array.map
          (fun (cu : Cu.t) ->
            match cu.Cu.family with
            | Some family ->
                Some (Accounting.create family ~initial_size:(Cu.current_size cu))
            | None -> None)
          cus;
      pending = None;
      predictor = Next_phase.create ();
      prev_phase = -1;
      pending_prediction = None;
      instrs0 = 0;
      cycles0 = 0.0;
      l1a0 = 0;
      l1m0 = 0;
      l2a0 = 0;
      l2m0 = 0;
      n_tunings = 0;
      reconfigs = Array.make (Array.length cus) 0;
      finalized = false;
    }
  in
  let hooks = Engine.hooks engine in
  hooks.Engine.on_block <-
    (fun ~pc ~instrs ~count -> Vector.add t.vector ~pc ~instrs:(instrs * count));
  hooks.Engine.on_interval <- (fun ~total_instrs:_ -> on_interval t);
  (* Phases are intervals, not invocations: no entry or exit hook. *)
  hooks.Engine.observes_call <- (fun ~meth_id:_ -> false);
  t

let finalize t =
  if t.finalized then invalid_arg "Bbv.Scheme.finalize: already finalized";
  t.finalized <- true;
  Array.iteri
    (fun k acct ->
      match acct with
      | None -> ()
      | Some a ->
          Accounting.finish a
            ~accesses_now:(t.cus.(k).Cu.accesses_now ())
            ~cycles_now:(Engine.cycles t.engine))
    t.accts

let tracker t = t.tracker
let phase_count t = Tracker.phase_count t.tracker
(* Quiescence for the sampler.  [pending = None] alone is not enough:
   trials only *start* at fully simulated interval boundaries, so
   splicing away most of the run would starve the configuration sweep
   and leave phases running at the maximum size where a full run would
   have tuned them down (a 30-75 % energy divergence in practice).
   Requiring every classified phase to be tuned first means sampling
   only begins once the scheme has reached the tuned steady state a
   full simulation would reach. *)
let quiescent t =
  t.pending = None
  &&
  let all_tuned = ref true in
  for i = 0 to t.n_phases - 1 do
    if t.phases.(i).best = None then all_tuned := false
  done;
  !all_tuned

let tuned_phases t =
  List.filter (fun i -> t.phases.(i).best <> None) (List.init t.n_phases Fun.id)

let tuned_phase_count t = List.length (tuned_phases t)

let intervals_in_tuned_phases t =
  let total = Tracker.intervals t.tracker in
  if total = 0 then 0.0
  else
    let tuned =
      List.fold_left
        (fun acc i -> acc + Tracker.phase_intervals t.tracker i)
        0 (tuned_phases t)
    in
    float_of_int tuned /. float_of_int total

let stable_fraction t =
  let total = Tracker.intervals t.tracker in
  if total = 0 then 0.0
  else float_of_int (Tracker.stable_intervals t.tracker) /. float_of_int total

let tunings t = t.n_tunings
let reconfigs_per_cu t = Array.copy t.reconfigs

let mean_per_phase_ipc_cov t =
  let covs =
    List.filter_map
      (fun i ->
        let s = t.phases.(i).ipc_stats in
        if Ace_util.Stats.Running.count s > 1 then
          Some (Ace_util.Stats.Running.cov s)
        else None)
      (List.init t.n_phases Fun.id)
  in
  Ace_util.Stats.mean (Array.of_list covs)

let inter_phase_ipc_cov t =
  let means =
    List.filter_map
      (fun i ->
        let s = t.phases.(i).ipc_stats in
        if Ace_util.Stats.Running.count s > 0 then
          Some (Ace_util.Stats.Running.mean s)
        else None)
      (List.init t.n_phases Fun.id)
  in
  Ace_util.Stats.cov (Array.of_list means)

let accounting t k = t.accts.(k)

let predictor_stats t =
  if t.cfg.next_phase_prediction then
    Some
      ( Next_phase.predictions t.predictor,
        Next_phase.correct t.predictor,
        Next_phase.accuracy t.predictor )
  else None

(* {2 Checkpoints} *)

(* The v4 body keeps a stage byte after a pending trial: 1, a measured
   trial, is the only stage; any other byte is refused. *)
let pending_codec =
  let open Ace_util.Codec in
  let measured = case 1 unit Fun.id in
  let stage =
    variant "pending stage" [ Case measured ] (fun w () -> write w measured ())
  in
  option
    (conv
       (fun (p, i) -> (p, i, ()))
       (fun (p, i, ()) -> (p, i))
       (triple int int stage))

let measurements_codec = Ace_util.Codec.list Ace_core.Tuner.measurement_codec
let best_codec = Ace_util.Codec.(option (array int))

let sync_phase io ps =
  let open Ace_util.Codec in
  ps.next <- sync io int ps.next;
  ps.measurements <- sync io measurements_codec ps.measurements;
  ps.best <- sync io best_codec ps.best;
  Ace_util.Stats.Running.sync io ps.ipc_stats

let sync io t =
  let open Ace_util.Codec in
  Vector.sync io t.vector;
  Tracker.sync io t.tracker;
  (* Live phases only. *)
  let n = sync_length io t.n_phases in
  if reading io then begin
    t.phases <- Array.make (max 16 n) (fresh_phase ());
    for i = 0 to n - 1 do
      t.phases.(i) <- fresh_phase ()
    done;
    t.n_phases <- n
  end;
  for i = 0 to n - 1 do
    sync_phase io t.phases.(i)
  done;
  sync_each io (fun io -> sync_option io Accounting.sync) t.accts;
  sync_each io Cu.sync t.cus;
  t.pending <- sync io pending_codec t.pending;
  t.instrs0 <- sync io int t.instrs0;
  t.cycles0 <- sync io float t.cycles0;
  t.l1a0 <- sync io int t.l1a0;
  t.l1m0 <- sync io int t.l1m0;
  t.l2a0 <- sync io int t.l2a0;
  t.l2m0 <- sync io int t.l2m0;
  Next_phase.sync io t.predictor;
  t.prev_phase <- sync io int t.prev_phase;
  t.pending_prediction <- sync io (option int) t.pending_prediction;
  t.n_tunings <- sync io int t.n_tunings;
  sync_array io int t.reconfigs;
  t.finalized <- sync io bool t.finalized
