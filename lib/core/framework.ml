module Engine = Ace_vm.Engine
module Db = Ace_vm.Do_database
module Profile = Ace_vm.Profile
module Accounting = Ace_power.Accounting
module Hierarchy = Ace_mem.Hierarchy
module Faults = Ace_faults.Faults
module Obs = Ace_obs.Obs

type config = {
  tuner : Tuner.params;
  coarse_invocations_per_config : int;
  decoupling : bool;
  prediction : bool;
  jit_patch_instrs : int;
  resilience : Tuner.resilience;
  cu_failure_threshold : int;
  cu_probe_interval : int;
}

let default_config =
  {
    tuner = Tuner.default_params;
    coarse_invocations_per_config = 2;
    decoupling = true;
    prediction = false;
    jit_patch_instrs = 2000;
    resilience = Tuner.no_resilience;
    cu_failure_threshold = 4;
    cu_probe_interval = 50;
  }

let config_for ~resilient =
  if resilient then { default_config with resilience = Tuner.default_resilience }
  else default_config

type hotspot_state = {
  tuner : Tuner.t;
  managed : int array;  (* indices into the CU array *)
  mutable ever_configured : bool;
  (* [invoke_tick] value at this hotspot's most recent entry; lets
     [unsettled_active] tell a converging tuner (still being invoked)
     from a stranded one (promoted, then never run again). *)
  mutable last_invoked : int;
}

type t = {
  engine : Engine.t;
  cus : Cu.t array;
  cfg : config;
  faults : Faults.t;
  states : hotspot_state option array;
  accts : Accounting.t option array;
  (* Per-CU-class coverage: instructions executed while inside at least one
     configured hotspot of that class. *)
  class_depth : int array;
  class_start : int array;
  covered : int array;
  (* Per-CU metric counters. *)
  tunings : int array;
  reconfigs : int array;
  class_hotspots : int array;
  tuned_hotspots : int array;
  retunes : int array;
  predicted : int array;
  (* Fault-model bookkeeping: [believed] is the setting software last
     observed or wrote per CU; while it diverges from the hardware's actual
     setting the CU is misconfigured and [mis_since] holds the divergence
     start ([-1] = converged). *)
  believed : int array;
  mis_since : int array;
  misconfig : int array;
  verify_failures : int array;
  consec_badwrites : int array;
  failed : bool array;
  probe_countdown : int array;
  recoveries : int array;
  mutable quarantined : int;
  mutable frame_masks : int list;  (* per-frame coverage contributions *)
  mutable measuring_open : int;  (* in-flight invocations some tuner measures *)
  mutable invoke_tick : int;  (* promoted-method entries seen so far *)
  mutable unmanaged : int;
  mutable finalized : bool;
  (* Observability: per-CU named counters plus failure/recovery totals. *)
  obs : Obs.t;
  m_cu_failed : Obs.counter;
  m_cu_recovered : Obs.counter;
  cu_trials : Obs.counter array;
  cu_reconfigs : Obs.counter array;
  cu_retunes : Obs.counter array;
}

(* Frame-mask flag for an invocation whose exit measurement its tuner will
   consume.  CU coverage uses bits [0 .. n_cus-1] (attach enforces
   [n_cus <= 62]), so bit 62 — OCaml's 63-bit int sign bit, harmless under
   [land]/[lor] and round-tripped exactly by the fixed-width snapshot codec
   — is free.  Riding the flag on [frame_masks] makes the open-measurement
   count a pure function of the already-serialized frame list: reading a
   checkpoint recomputes it instead of trusting a second copy. *)
let measuring_bit = 1 lsl 62

let handle_applied t cu_idx flushed_lines =
  let cu = t.cus.(cu_idx) in
  Obs.incr t.obs t.cu_reconfigs.(cu_idx);
  let lat = Hierarchy.latencies (Engine.hierarchy t.engine) in
  Engine.add_stall_cycles t.engine
    (float_of_int (flushed_lines * lat.Hierarchy.writeback_cycles_per_line));
  match t.accts.(cu_idx) with
  | None -> ()
  | Some acct ->
      Accounting.on_reconfig acct ~new_size:(Cu.current_size cu)
        ~accesses_now:(cu.Cu.accesses_now ())
        ~cycles_now:(Engine.cycles t.engine) ~flushed_lines

(* Misconfiguration-time integration (omniscient metric: the simulator knows
   both what software believes and what the hardware holds). *)
let mark_divergence t k =
  if t.mis_since.(k) < 0 then t.mis_since.(k) <- Engine.instrs t.engine

let note_convergence t k =
  if t.mis_since.(k) >= 0 then begin
    t.misconfig.(k) <- t.misconfig.(k) + (Engine.instrs t.engine - t.mis_since.(k));
    t.mis_since.(k) <- -1
  end

(* Graceful degradation: after [cu_failure_threshold] consecutive writes the
   hardware claimed to apply but the read-back contradicted, declare the CU
   failed, pin it once at its safe maximum over the reset line, and stop
   tuning it.  The rest of the framework keeps optimizing the live CUs. *)
let maybe_fail_cu t k =
  if
    t.cfg.resilience.Tuner.enabled
    && (not t.failed.(k))
    && t.consec_badwrites.(k) >= t.cfg.cu_failure_threshold
  then begin
    t.failed.(k) <- true;
    Obs.incr t.obs t.m_cu_failed;
    if Obs.tracing t.obs then
      Obs.record t.obs (Obs.Cu_failed { cu = t.cus.(k).Cu.name });
    t.probe_countdown.(k) <- t.cfg.cu_probe_interval;
    (match Hw.force t.cus.(k) ~setting:0 ~now_instrs:(Engine.instrs t.engine) with
    | Hw.Applied { flushed_lines } -> handle_applied t k flushed_lines
    | Hw.Unchanged | Hw.Denied -> ());
    t.believed.(k) <- 0;
    note_convergence t k
  end

let live_managed t (st : hotspot_state) =
  Array.exists (fun k -> not t.failed.(k)) st.managed

(* Failed CUs sit pinned at their safe maximum, but every
   [cu_probe_interval] entries one probe write checks whether the fault
   (e.g. a transient latch-up) has cleared; a write that demonstrably lands
   brings the CU back under management.  Returns [true] when the probe
   recovered the CU (and resized it, so the invocation is a warming one).
   Probe failures do not count against the tuner's retry budget: the live
   CUs' settings are still fine. *)
let probe_failed t cu_idx ~setting ~now_instrs =
  t.probe_countdown.(cu_idx) <- t.probe_countdown.(cu_idx) - 1;
  if t.probe_countdown.(cu_idx) > 0 then false
  else begin
    t.probe_countdown.(cu_idx) <- t.cfg.cu_probe_interval;
    let cu = t.cus.(cu_idx) in
    match Hw.request ~faults:t.faults cu ~setting ~now_instrs with
    | Hw.Applied { flushed_lines } when cu.Cu.current = setting ->
        handle_applied t cu_idx flushed_lines;
        t.failed.(cu_idx) <- false;
        t.consec_badwrites.(cu_idx) <- 0;
        t.believed.(cu_idx) <- setting;
        t.recoveries.(cu_idx) <- t.recoveries.(cu_idx) + 1;
        Obs.incr t.obs t.m_cu_recovered;
        if Obs.tracing t.obs then
          Obs.record t.obs (Obs.Cu_recovered { cu = cu.Cu.name });
        note_convergence t cu_idx;
        true
    | Hw.Applied { flushed_lines } ->
        handle_applied t cu_idx flushed_lines;
        false
    | Hw.Unchanged ->
        (* The CU already holds the requested setting (it was pinned at the
           maximum and that is what the tuner now wants): there is no
           divergence left to protect against, so resume managing it.  If
           the latch-up still holds, the next mismatching write re-fails it
           within [cu_failure_threshold] entries — a bounded, safe probe. *)
        t.failed.(cu_idx) <- false;
        t.consec_badwrites.(cu_idx) <- 0;
        t.believed.(cu_idx) <- setting;
        t.recoveries.(cu_idx) <- t.recoveries.(cu_idx) + 1;
        Obs.incr t.obs t.m_cu_recovered;
        if Obs.tracing t.obs then
          Obs.record t.obs (Obs.Cu_recovered { cu = cu.Cu.name });
        note_convergence t cu_idx;
        false
    | Hw.Denied -> false
  end

let on_promoted t ~meth_id =
  let db = Engine.db t.engine in
  let e = Db.entry db meth_id in
  let size = Db.estimated_size e in
  let assigned =
    Decoupling.assign ~cus:t.cus ~size ~decoupling:t.cfg.decoupling
    |> List.filter (fun k -> not t.failed.(k))
  in
  match assigned with
  | [] ->
      t.unmanaged <- t.unmanaged + 1;
      Db.set_instrument db meth_id Ace_vm.Instrument.Plain
  | managed ->
      let configs = Decoupling.configurations ~cus:t.cus ~managed in
      let coarse =
        List.exists
          (fun k -> t.cus.(k).Cu.reconfig_interval >= 500_000)
          managed
      in
      let params =
        if coarse then
          {
            t.cfg.tuner with
            Tuner.invocations_per_config = t.cfg.coarse_invocations_per_config;
          }
        else t.cfg.tuner
      in
      let predicted =
        if t.cfg.prediction then
          Predictor.predict (Engine.program t.engine) ~cus:t.cus ~managed
            ~meth_id
        else None
      in
      (match predicted with
      | Some best ->
          (* The JIT's code analysis configures the hotspot directly: no
             tuning code is ever planted (paper §6). *)
          t.states.(meth_id) <-
            Some
              {
                tuner =
                  Tuner.create_configured ~resilience:t.cfg.resilience
                    ~obs:t.obs ~id:meth_id params ~configs ~best;
                managed = Array.of_list managed;
                ever_configured = true;
                last_invoked = t.invoke_tick;
              };
          List.iter
            (fun k ->
              t.predicted.(k) <- t.predicted.(k) + 1;
              t.tuned_hotspots.(k) <- t.tuned_hotspots.(k) + 1)
            managed;
          Db.set_instrument db meth_id Ace_vm.Instrument.Configured_sampling
      | None ->
          t.states.(meth_id) <-
            Some
              {
                tuner =
                  Tuner.create ~resilience:t.cfg.resilience ~obs:t.obs
                    ~id:meth_id params ~configs;
                managed = Array.of_list managed;
                ever_configured = false;
                last_invoked = t.invoke_tick;
              };
          Db.set_instrument db meth_id Ace_vm.Instrument.Tuning);
      List.iter
        (fun k -> t.class_hotspots.(k) <- t.class_hotspots.(k) + 1)
        managed;
      Engine.charge_software_instrs t.engine t.cfg.jit_patch_instrs

let on_entry t ~meth_id =
  let mask =
    match t.states.(meth_id) with
    | None -> 0
    | Some st ->
        t.invoke_tick <- t.invoke_tick + 1;
        st.last_invoked <- t.invoke_tick;
        (match Tuner.on_entry st.tuner with
        | Tuner.Nothing -> ()
        | Tuner.Set cfg when not (live_managed t st) ->
            (* Every managed CU failed: nothing to request beyond recovery
               probes; the hotspot runs at the forced safe settings. *)
            let now_instrs = Engine.instrs t.engine in
            Array.iteri
              (fun i cu_idx ->
                ignore (probe_failed t cu_idx ~setting:cfg.(i) ~now_instrs))
              st.managed
        | Tuner.Set cfg ->
            let applied_all = ref true in
            let changed_any = ref false in
            let verified_all = ref true in
            let now_instrs = Engine.instrs t.engine in
            Array.iteri
              (fun i cu_idx ->
                if not t.failed.(cu_idx) then begin
                  let cu = t.cus.(cu_idx) in
                  match
                    Hw.request ~faults:t.faults cu ~setting:cfg.(i) ~now_instrs
                  with
                  | Hw.Unchanged ->
                      (* Requested = actual: software's view is confirmed. *)
                      t.believed.(cu_idx) <- cfg.(i);
                      note_convergence t cu_idx
                  | Hw.Denied -> applied_all := false
                  | Hw.Applied { flushed_lines } ->
                      changed_any := true;
                      t.believed.(cu_idx) <- cfg.(i);
                      handle_applied t cu_idx flushed_lines;
                      if Tuner.is_configured st.tuner then
                        t.reconfigs.(cu_idx) <- t.reconfigs.(cu_idx) + 1;
                      (* Read-back verification: the hardware claimed success;
                         did the setting actually land? *)
                      if cu.Cu.current <> cfg.(i) then begin
                        verified_all := false;
                        t.verify_failures.(cu_idx) <-
                          t.verify_failures.(cu_idx) + 1;
                        t.consec_badwrites.(cu_idx) <-
                          t.consec_badwrites.(cu_idx) + 1;
                        mark_divergence t cu_idx;
                        maybe_fail_cu t cu_idx
                      end
                      else begin
                        t.consec_badwrites.(cu_idx) <- 0;
                        note_convergence t cu_idx
                      end
                end
                else if probe_failed t cu_idx ~setting:cfg.(i) ~now_instrs then
                  changed_any := true)
              st.managed;
            Tuner.entry_outcome st.tuner ~verified:!verified_all
              ~applied:!applied_all ~changed:!changed_any;
            if (not (Tuner.is_configured st.tuner)) && Tuner.measuring st.tuner
            then
              Array.iter
                (fun k ->
                  t.tunings.(k) <- t.tunings.(k) + 1;
                  Obs.incr t.obs t.cu_trials.(k))
                st.managed);
        let cov =
          if Tuner.is_configured st.tuner then
            Array.fold_left (fun m k -> m lor (1 lsl k)) 0 st.managed
          else 0
        in
        (* [Tuner.measuring] is true here exactly when the tuner will
           consume this invocation's exit measurement (a tuning trial or a
           configured drift sample); latch that into the frame so the
           open-measurement count stays balanced however the tuner's own
           state moves before the matching exit. *)
        if Tuner.measuring st.tuner then cov lor measuring_bit else cov
  in
  t.frame_masks <- mask :: t.frame_masks;
  if mask land measuring_bit <> 0 then
    t.measuring_open <- t.measuring_open + 1;
  if mask land lnot measuring_bit <> 0 then
    for k = 0 to Array.length t.cus - 1 do
      if mask land (1 lsl k) <> 0 then begin
        if t.class_depth.(k) = 0 then t.class_start.(k) <- Engine.instrs t.engine;
        t.class_depth.(k) <- t.class_depth.(k) + 1
      end
    done

let pop_coverage t =
  match t.frame_masks with
  | [] -> ()
  | mask :: rest ->
      t.frame_masks <- rest;
      if mask land measuring_bit <> 0 then
        t.measuring_open <- t.measuring_open - 1;
      if mask land lnot measuring_bit <> 0 then
        for k = 0 to Array.length t.cus - 1 do
          if mask land (1 lsl k) <> 0 then begin
            t.class_depth.(k) <- t.class_depth.(k) - 1;
            if t.class_depth.(k) = 0 then
              t.covered.(k) <-
                t.covered.(k) + (Engine.instrs t.engine - t.class_start.(k))
          end
        done

let on_exit t ~meth_id (profile : Profile.t) =
  pop_coverage t;
  match t.states.(meth_id) with
  | None -> ()
  | Some st ->
      (* Energy is only inspected by the tuner on measuring exits; avoid the
         computation otherwise. *)
      let energy =
        if Tuner.measuring st.tuner then
          Array.fold_left
            (fun acc cu_idx ->
              let cu = t.cus.(cu_idx) in
              acc +. cu.Cu.energy_proxy profile ~setting:cu.Cu.current)
            0.0 st.managed
        else 0.0
      in
      let db = Engine.db t.engine in
      (match Tuner.on_exit st.tuner ~energy ~ipc:(Profile.ipc profile) with
      | Tuner.Continue -> ()
      | Tuner.Finished _best ->
          if not st.ever_configured then begin
            st.ever_configured <- true;
            Array.iter
              (fun k -> t.tuned_hotspots.(k) <- t.tuned_hotspots.(k) + 1)
              st.managed
          end;
          Db.set_instrument db meth_id Ace_vm.Instrument.Configured_sampling;
          Engine.charge_software_instrs t.engine t.cfg.jit_patch_instrs
      | Tuner.Retuning ->
          Array.iter
            (fun k ->
              t.retunes.(k) <- t.retunes.(k) + 1;
              Obs.incr t.obs t.cu_retunes.(k))
            st.managed;
          Db.set_instrument db meth_id Ace_vm.Instrument.Tuning;
          Engine.charge_software_instrs t.engine t.cfg.jit_patch_instrs
      | Tuner.Quarantine ->
          (* Pin the selection and strip the sampling stub: the hotspot
             stops paying any tuning overhead. *)
          t.quarantined <- t.quarantined + 1;
          Db.set_instrument db meth_id Ace_vm.Instrument.Configured;
          Engine.charge_software_instrs t.engine t.cfg.jit_patch_instrs)

let attach ?(config = default_config) ?(faults = Faults.none) ?(obs = Obs.null)
    engine ~cus =
  let n_methods = Ace_isa.Program.method_count (Engine.program engine) in
  let n_cus = Array.length cus in
  if n_cus > 62 then invalid_arg "Framework.attach: too many CUs";
  let cu_counter suffix =
    Array.map (fun (cu : Cu.t) -> Obs.counter obs ("fw." ^ cu.Cu.name ^ suffix)) cus
  in
  let t =
    {
      engine;
      cus;
      cfg = config;
      faults;
      states = Array.make n_methods None;
      accts =
        Array.map
          (fun (cu : Cu.t) ->
            match cu.Cu.family with
            | Some family ->
                Some (Accounting.create family ~initial_size:(Cu.current_size cu))
            | None -> None)
          cus;
      class_depth = Array.make n_cus 0;
      class_start = Array.make n_cus 0;
      covered = Array.make n_cus 0;
      tunings = Array.make n_cus 0;
      reconfigs = Array.make n_cus 0;
      class_hotspots = Array.make n_cus 0;
      tuned_hotspots = Array.make n_cus 0;
      retunes = Array.make n_cus 0;
      predicted = Array.make n_cus 0;
      believed = Array.map (fun (cu : Cu.t) -> cu.Cu.current) cus;
      mis_since = Array.make n_cus (-1);
      misconfig = Array.make n_cus 0;
      verify_failures = Array.make n_cus 0;
      consec_badwrites = Array.make n_cus 0;
      failed = Array.make n_cus false;
      probe_countdown = Array.make n_cus 0;
      recoveries = Array.make n_cus 0;
      quarantined = 0;
      frame_masks = [];
      measuring_open = 0;
      invoke_tick = 0;
      unmanaged = 0;
      finalized = false;
      obs;
      m_cu_failed = Obs.counter obs "fw.cu_failures";
      m_cu_recovered = Obs.counter obs "fw.cu_recoveries";
      cu_trials = cu_counter ".trials";
      cu_reconfigs = cu_counter ".reconfigs";
      cu_retunes = cu_counter ".retunes";
    }
  in
  let hooks = Engine.hooks engine in
  hooks.Engine.on_hotspot_promoted <- (fun ~meth_id -> on_promoted t ~meth_id);
  hooks.Engine.on_method_entry <- (fun ~meth_id -> on_entry t ~meth_id);
  hooks.Engine.on_method_exit <- (fun ~meth_id profile -> on_exit t ~meth_id profile);
  (* For a method without a hotspot state the two hooks only push and pop
     a coverage mask of 0. *)
  hooks.Engine.observes_call <- (fun ~meth_id -> Option.is_some t.states.(meth_id));
  t

let finalize t =
  if t.finalized then invalid_arg "Framework.finalize: already finalized";
  t.finalized <- true;
  let now = Engine.instrs t.engine in
  for k = 0 to Array.length t.cus - 1 do
    if t.class_depth.(k) > 0 then begin
      t.covered.(k) <- t.covered.(k) + (now - t.class_start.(k));
      t.class_depth.(k) <- 0
    end;
    if t.mis_since.(k) >= 0 then begin
      t.misconfig.(k) <- t.misconfig.(k) + (now - t.mis_since.(k));
      t.mis_since.(k) <- -1
    end
  done;
  Array.iteri
    (fun k acct ->
      match acct with
      | None -> ()
      | Some a ->
          Accounting.finish a
            ~accesses_now:(t.cus.(k).Cu.accesses_now ())
            ~cycles_now:(Engine.cycles t.engine))
    t.accts

type cu_report = {
  cu_name : string;
  class_hotspots : int;
  tuned_hotspots : int;
  tunings : int;
  reconfigs : int;
  denied : int;
  invalid : int;
  retunes : int;
  predicted_hotspots : int;
  coverage : float;
  energy_nj : float option;
  avg_size_bytes : float option;
  verify_failures : int;
  misconfig_instrs : int;
  failed : bool;
}

let report t =
  if not t.finalized then invalid_arg "Framework.report: call finalize first";
  let total = Engine.instrs t.engine in
  Array.mapi
    (fun k (cu : Cu.t) ->
      {
        cu_name = cu.Cu.name;
        class_hotspots = t.class_hotspots.(k);
        tuned_hotspots = t.tuned_hotspots.(k);
        tunings = t.tunings.(k);
        reconfigs = t.reconfigs.(k);
        denied = cu.Cu.denied_count;
        invalid = cu.Cu.invalid_count;
        retunes = t.retunes.(k);
        predicted_hotspots = t.predicted.(k);
        coverage =
          (if total = 0 then 0.0
           else float_of_int t.covered.(k) /. float_of_int total);
        energy_nj = Option.map Accounting.total_nj t.accts.(k);
        avg_size_bytes = Option.map Accounting.time_weighted_avg_bytes t.accts.(k);
        verify_failures = t.verify_failures.(k);
        misconfig_instrs = t.misconfig.(k);
        failed = t.failed.(k);
      })
    t.cus

let accounting t k = t.accts.(k)

(* A hotspot is "settled" once its tuner has chosen a configuration and is
   not currently consuming exit measurements (drift checks included).  The
   phase-statistics sampler only fast-forwards settled hotspots: replaying
   a memoized record through an invocation the tuner wants to measure
   would feed it stale statistics. *)
let hotspot_settled t ~meth_id =
  match t.states.(meth_id) with
  | None -> true
  | Some st -> Tuner.is_configured st.tuner && not (Tuner.measuring st.tuner)

let measuring_open t = t.measuring_open

(* A mid-campaign tuner blocks splicing only while its hotspot is still
   being run: fast-forwarding a region that contains its invocations would
   starve the campaign (trials only run in fully simulated entries) and
   let memoized timing diverge from the configuration the full run would
   have converged to.  A tuner whose hotspot has not been entered in this
   many promoted-method entries is *stranded* (typically promoted during
   setup and never called again) and stops blocking — its campaign cannot
   progress either way.  If a splice does starve a reachable tuner, the
   recalibration observation re-enters its hotspot, refreshing
   [last_invoked] and re-imposing the block until it settles. *)
let activity_window = 256

let unsettled_active t =
  let tick = t.invoke_tick in
  Array.exists
    (function
      | None -> false
      | Some st ->
          ((not (Tuner.is_configured st.tuner)) || Tuner.measuring st.tuner)
          && tick - st.last_invoked <= activity_window)
    t.states

let unmanaged_hotspots t = t.unmanaged

let quarantined_hotspots t = t.quarantined

type resilience_report = {
  total_verify_failures : int;
  failed_cus : int;
  cu_recoveries : int;
  quarantined : int;
  tuner_retries : int;
  tuner_backoff_skips : int;
  tuner_skipped_configs : int;
  misconfig_frac : float;
}

let resilience_report t =
  let retries = ref 0 and backoffs = ref 0 and skipped = ref 0 in
  Array.iter
    (fun state ->
      match state with
      | None -> ()
      | Some st ->
          let s = Tuner.stats st.tuner in
          retries := !retries + s.Tuner.retries;
          backoffs := !backoffs + s.Tuner.backoff_skips;
          skipped := !skipped + s.Tuner.skipped_configs)
    t.states;
  let total = Engine.instrs t.engine in
  let n_cus = Array.length t.cus in
  {
    total_verify_failures = Array.fold_left ( + ) 0 t.verify_failures;
    failed_cus =
      Array.fold_left (fun a f -> if f then a + 1 else a) 0 t.failed;
    cu_recoveries = Array.fold_left ( + ) 0 t.recoveries;
    quarantined = t.quarantined;
    tuner_retries = !retries;
    tuner_backoff_skips = !backoffs;
    tuner_skipped_configs = !skipped;
    misconfig_frac =
      (if total = 0 || n_cus = 0 then 0.0
       else
         float_of_int (Array.fold_left ( + ) 0 t.misconfig)
         /. float_of_int (n_cus * total));
  }

type hotspot_view = {
  meth_id : int;
  meth_name : string;
  managed_cus : string list;
  configured : bool;
  quarantined : bool;
  selection : (string * string) list;
  tested : int;
  tuning_rounds : int;
}

let hotspot_views t =
  let program = Engine.program t.engine in
  let views = ref [] in
  Array.iteri
    (fun meth_id state ->
      match state with
      | None -> ()
      | Some st ->
          let cu_of i = t.cus.(st.managed.(i)) in
          let selection =
            match Tuner.selected st.tuner with
            | None -> []
            | Some cfg ->
                List.init (Array.length cfg) (fun i ->
                    let cu = cu_of i in
                    (cu.Cu.name, cu.Cu.setting_labels.(cfg.(i))))
          in
          views :=
            {
              meth_id;
              meth_name = program.Ace_isa.Program.methods.(meth_id).Ace_isa.Program.name;
              managed_cus =
                Array.to_list (Array.map (fun k -> t.cus.(k).Cu.name) st.managed);
              configured = Tuner.is_configured st.tuner;
              quarantined = Tuner.is_quarantined st.tuner;
              selection;
              tested = Tuner.tested_count st.tuner;
              tuning_rounds = Tuner.rounds st.tuner;
            }
            :: !views)
    t.states;
  List.rev !views

(* {2 Checkpoints} *)

let hotspot_codec =
  let open Ace_util.Codec in
  option
    (let+ tuner = field Tuner.codec (fun st -> st.tuner)
     and+ managed = field (array int) (fun st -> st.managed)
     and+ ever_configured = field bool (fun st -> st.ever_configured)
     and+ last_invoked = field int (fun st -> st.last_invoked) in
     { tuner; managed; ever_configured; last_invoked })

(* Tuner construction inputs (configuration list, coarse-vs-fine params) are
   not serialized; they are recomputed here exactly as [on_promoted] derived
   them, from the managed CUs and the framework config. *)
let adopt t meth_id st =
  let n_cus = Array.length t.cus in
  let rec ascending prev = function
    | [] -> true
    | k :: rest -> k > prev && k < n_cus && ascending k rest
  in
  let managed = Array.to_list st.managed in
  if not (ascending (-1) managed) then
    Ace_util.Codec.fail "hotspot %d manages CUs outside 0..%d" meth_id (n_cus - 1);
  let configs = Decoupling.configurations ~cus:t.cus ~managed in
  let coarse =
    List.exists (fun k -> t.cus.(k).Cu.reconfig_interval >= 500_000) managed
  in
  let params =
    if coarse then
      {
        t.cfg.tuner with
        Tuner.invocations_per_config = t.cfg.coarse_invocations_per_config;
      }
    else t.cfg.tuner
  in
  {
    st with
    tuner =
      Tuner.rebuild ~resilience:t.cfg.resilience ~obs:t.obs ~id:meth_id params
        ~configs st.tuner;
  }

let sync io t =
  let open Ace_util.Codec in
  sync_array io hotspot_codec t.states;
  if reading io then
    Array.iteri
      (fun meth_id st -> t.states.(meth_id) <- Option.map (adopt t meth_id) st)
      t.states;
  sync_each io (fun io -> sync_option io Accounting.sync) t.accts;
  sync_each io Cu.sync t.cus;
  sync_array io int t.class_depth;
  sync_array io int t.class_start;
  sync_array io int t.covered;
  sync_array io int t.tunings;
  sync_array io int t.reconfigs;
  sync_array io int t.class_hotspots;
  sync_array io int t.tuned_hotspots;
  sync_array io int t.retunes;
  sync_array io int t.predicted;
  sync_array io int t.believed;
  sync_array io int t.mis_since;
  sync_array io int t.misconfig;
  sync_array io int t.verify_failures;
  sync_array io int t.consec_badwrites;
  sync_array io bool t.failed;
  sync_array io int t.probe_countdown;
  sync_array io int t.recoveries;
  t.quarantined <- sync io int t.quarantined;
  t.frame_masks <- sync io (list int) t.frame_masks;
  if reading io then
    t.measuring_open <-
      List.fold_left
        (fun acc m -> if m land measuring_bit <> 0 then acc + 1 else acc)
        0 t.frame_masks;
  t.invoke_tick <- sync io int t.invoke_tick;
  t.unmanaged <- sync io int t.unmanaged;
  t.finalized <- sync io bool t.finalized
