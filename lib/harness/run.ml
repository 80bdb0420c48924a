module Engine = Ace_vm.Engine
module Db = Ace_vm.Do_database
module Faults = Ace_faults.Faults
module Cu = Ace_core.Cu
module Framework = Ace_core.Framework
module Accounting = Ace_power.Accounting
module Hierarchy = Ace_mem.Hierarchy
module Cache = Ace_mem.Cache
module Obs = Ace_obs.Obs
module Io = Ace_util.Io
module Sample = Ace_sample.Sample

type do_stats = {
  hotspot_count : int;
  mean_hotspot_size : float;
  pct_code_in_hotspots : float;
  mean_invocations : float;
  id_latency_frac : float;
  per_hotspot_ipc_cov : float;
  inter_hotspot_ipc_cov : float;
}

type hotspot_stats = {
  reports : Framework.cu_report array;
  unmanaged_hotspots : int;
  views : Framework.hotspot_view list;
}

type bbv_stats = {
  phases : int;
  tuned_phases : int;
  intervals_in_tuned_frac : float;
  stable_frac : float;
  bbv_tunings : int;
  bbv_reconfigs : int array;
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
  l1d_avg_bytes : float;
  l2_avg_bytes : float;
  l1d_miss_rate : float;
  l2_miss_rate : float;
  do_stats : do_stats;
  hotspot : hotspot_stats option;
  bbv : bbv_stats option;
  bbv_predictor : (int * int * float) option;
  resilience : Framework.resilience_report option;
  fault_stats : Faults.stats option;
  sample : Sample.stats option;
}

let default_hot_threshold = 2
let bbv_interval = 1_000_000

let collect_do_stats engine =
  let db = Engine.db engine in
  let total = Engine.instrs engine in
  let totalf = float_of_int (max 1 total) in
  {
    hotspot_count = Db.hotspot_count db;
    mean_hotspot_size = Db.mean_hotspot_size db;
    pct_code_in_hotspots = float_of_int (Engine.hot_instrs engine) /. totalf;
    mean_invocations = Db.mean_invocations_per_hotspot db;
    id_latency_frac = float_of_int (Db.identification_latency_instrs db) /. totalf;
    per_hotspot_ipc_cov = Db.mean_per_hotspot_ipc_cov db;
    inter_hotspot_ipc_cov = Db.inter_hotspot_ipc_cov db;
  }

let engine_config ~hot_threshold ~seed ~interval =
  {
    Engine.default_config with
    Engine.seed;
    hot_threshold;
    interval_instrs = interval;
  }

(* Fixed-baseline accounting: caches stay at maximum size; one epoch. *)
let fixed_accounting engine =
  let hier = Engine.hierarchy engine in
  let l1d = Hierarchy.l1d hier and l2 = Hierarchy.l2 hier in
  let acct_l1d =
    Accounting.create Ace_power.Energy_model.L1d
      ~initial_size:(Cache.config l1d).Cache.size_bytes
  and acct_l2 =
    Accounting.create Ace_power.Energy_model.L2
      ~initial_size:(Cache.config l2).Cache.size_bytes
  in
  fun () ->
    Accounting.finish acct_l1d
      ~accesses_now:(Cache.Stats.accesses l1d)
      ~cycles_now:(Engine.cycles engine);
    Accounting.finish acct_l2
      ~accesses_now:(Cache.Stats.accesses l2)
      ~cycles_now:(Engine.cycles engine);
    (acct_l1d, acct_l2)

let summarize ~workload ~scheme ~engine ~accts ~hotspot ~bbv ~bbv_predictor
    ~resilience ~fault_stats ~sample =
  let acct_l1d, acct_l2 = accts in
  let hier = Engine.hierarchy engine in
  {
    workload;
    scheme;
    instrs = Engine.instrs engine;
    cycles = Engine.cycles engine;
    ipc = Engine.ipc engine;
    overhead_instrs = Engine.overhead_instrs engine;
    l1d_energy_nj = Accounting.total_nj acct_l1d;
    l2_energy_nj = Accounting.total_nj acct_l2;
    l1d_avg_bytes = Accounting.time_weighted_avg_bytes acct_l1d;
    l2_avg_bytes = Accounting.time_weighted_avg_bytes acct_l2;
    l1d_miss_rate = Cache.Stats.miss_rate (Hierarchy.l1d hier);
    l2_miss_rate = Cache.Stats.miss_rate (Hierarchy.l2 hier);
    do_stats = collect_do_stats engine;
    hotspot;
    bbv;
    bbv_predictor;
    resilience;
    fault_stats;
    sample;
  }

(* The scheme handle held between attach and finalize. *)
type attached =
  | A_baseline
  | A_hotspot of Framework.t
  | A_bbv of Ace_bbv.Scheme.t

let attach_scheme ~framework_config ~with_issue_queue ~bbv_prediction ~faults
    ~obs engine scheme =
  match scheme with
  | Scheme.Fixed_baseline -> A_baseline
  | Scheme.Hotspot ->
      let cus =
        if with_issue_queue then
          [| Cu.l1d engine; Cu.l2 engine; Cu.issue_queue engine |]
        else [| Cu.l1d engine; Cu.l2 engine |]
      in
      A_hotspot
        (Framework.attach ~config:framework_config ~faults ~obs engine ~cus)
  | Scheme.Bbv ->
      let cus = [| Cu.l1d engine; Cu.l2 engine |] in
      A_bbv
        (Ace_bbv.Scheme.attach
           ~config:
             {
               Ace_bbv.Scheme.default_config with
               next_phase_prediction = bbv_prediction;
             }
           ~faults engine ~cus)

(* The sampler attaches after the scheme so its quiescence guard can see
   the scheme's tuning state; tuner trials therefore always run under full
   simulation. *)
let attach_sample ~sample ~faults ~obs engine attached =
  match sample with
  | None -> None
  | Some config ->
      let allow, classify =
        match attached with
        | A_baseline -> ((fun ~meth_id:_ -> Sample.Allow), None)
        | A_hotspot fw ->
            (* Scoped quiescence: the candidate's own tuner must be settled,
               no measuring invocation may be in flight anywhere (any open
               measurement is an ancestor on the single-threaded call
               stack, and splicing under it would feed it memoized cycles),
               and no *reachable* tuner may still be converging (splicing
               would starve its campaign).  Stranded tuners — promoted but
               no longer invoked — age out and stop blocking; see
               DESIGN.md. *)
            ( (fun ~meth_id ->
                if not (Framework.hotspot_settled fw ~meth_id) then
                  Sample.Unsettled
                else if
                  Framework.measuring_open fw > 0
                  || Framework.unsettled_active fw
                then Sample.Not_quiescent
                else Sample.Allow),
              None )
        | A_bbv sch ->
            (* The BBV tracker doubles as the sampler's phase classifier:
               records are keyed on behaviour clusters, so headers sharing
               a cluster share one CPI record. *)
            ( (fun ~meth_id:_ ->
                if Ace_bbv.Scheme.quiescent sch then Sample.Allow
                else Sample.Not_quiescent),
              Some
                (fun () ->
                  let c =
                    Ace_bbv.Tracker.current_phase (Ace_bbv.Scheme.tracker sch)
                  in
                  if c < 0 then None else Some c) )
      in
      Some (Sample.attach ~config ~faults ~obs ?classify ~allow engine)

let finish_run ~name ~scheme ~engine ~faults ~obs ~attached ~sampler =
  let sample = Option.map Sample.stats sampler in
  (* Final whole-run gauges; set here (not per-tick) so the hot path stays
     free of float stores. *)
  if Obs.enabled obs then begin
    Obs.set_gauge obs
      (Obs.gauge obs "engine.instrs")
      (float_of_int (Engine.instrs engine));
    Obs.set_gauge obs (Obs.gauge obs "engine.ipc") (Engine.ipc engine)
  end;
  let fault_stats =
    if Faults.is_none faults then None else Some (Faults.stats faults)
  in
  match attached with
  | A_baseline ->
      summarize ~workload:name ~scheme ~engine ~accts:(fixed_accounting engine ())
        ~hotspot:None ~bbv:None ~bbv_predictor:None ~resilience:None ~fault_stats
        ~sample
  | A_hotspot fw ->
      Framework.finalize fw;
      let accts =
        match (Framework.accounting fw 0, Framework.accounting fw 1) with
        | Some a, Some b -> (a, b)
        | _ -> assert false
      in
      let hotspot =
        Some
          {
            reports = Framework.report fw;
            unmanaged_hotspots = Framework.unmanaged_hotspots fw;
            views = Framework.hotspot_views fw;
          }
      in
      summarize ~workload:name ~scheme ~engine ~accts ~hotspot ~bbv:None
        ~bbv_predictor:None ~resilience:(Some (Framework.resilience_report fw))
        ~fault_stats ~sample
  | A_bbv sch ->
      Ace_bbv.Scheme.finalize sch;
      let accts =
        match (Ace_bbv.Scheme.accounting sch 0, Ace_bbv.Scheme.accounting sch 1) with
        | Some a, Some b -> (a, b)
        | _ -> assert false
      in
      let bbv =
        Some
          {
            phases = Ace_bbv.Scheme.phase_count sch;
            tuned_phases = Ace_bbv.Scheme.tuned_phase_count sch;
            intervals_in_tuned_frac = Ace_bbv.Scheme.intervals_in_tuned_phases sch;
            stable_frac = Ace_bbv.Scheme.stable_fraction sch;
            bbv_tunings = Ace_bbv.Scheme.tunings sch;
            bbv_reconfigs = Ace_bbv.Scheme.reconfigs_per_cu sch;
            per_phase_ipc_cov = Ace_bbv.Scheme.mean_per_phase_ipc_cov sch;
            inter_phase_ipc_cov = Ace_bbv.Scheme.inter_phase_ipc_cov sch;
          }
      in
      summarize ~workload:name ~scheme ~engine ~accts ~hotspot:None ~bbv
        ~bbv_predictor:(Ace_bbv.Scheme.predictor_stats sch) ~resilience:None
        ~fault_stats ~sample

let run ?(scale = 1.0) ?(seed = 1) ?(hot_threshold = default_hot_threshold)
    ?(framework_config = Framework.default_config) ?(with_issue_queue = false)
    ?(bbv_prediction = false) ?faults ?sample ?(obs = Obs.null) workload scheme
    =
  let program = workload.Ace_workloads.Workload.build ~scale ~seed in
  let name = workload.Ace_workloads.Workload.name in
  (* One injector per run, seeded off the run seed so fault sequences are
     reproducible but decorrelated from the engine's own stream. *)
  let faults =
    match faults with
    | None -> Faults.none
    | Some cfg -> Faults.create ~seed:((seed * 1000) + 7) ~obs cfg
  in
  let interval =
    match scheme with Scheme.Bbv -> Some bbv_interval | _ -> None
  in
  let cfg = engine_config ~hot_threshold ~seed ~interval in
  let engine = Engine.create ~config:cfg ~faults ~obs program in
  let attached =
    attach_scheme ~framework_config ~with_issue_queue ~bbv_prediction ~faults
      ~obs engine scheme
  in
  let sampler = attach_sample ~sample ~faults ~obs engine attached in
  Engine.run engine;
  finish_run ~name ~scheme ~engine ~faults ~obs ~attached ~sampler

(* {2 Checkpointed execution} *)

module Snapshot = Ace_ckpt.Snapshot

exception Killed of int

type ckpt_outcome = Completed of result | Killed_at of int

let scheme_to_snap = function
  | Scheme.Fixed_baseline -> Snapshot.Baseline
  | Scheme.Hotspot -> Snapshot.Hotspot
  | Scheme.Bbv -> Snapshot.Bbv

let scheme_of_snap = function
  | Snapshot.Baseline -> Scheme.Fixed_baseline
  | Snapshot.Hotspot -> Scheme.Hotspot
  | Snapshot.Bbv -> Scheme.Bbv

(* A run rebuilt from snapshot metadata: what a checkpoint writes, and
   what a resume continues. *)
type resumed = {
  meta : Snapshot.meta;
  engine : Engine.t;
  faults : Faults.t;
  attached : attached;
  sampler : Sample.t option;
  obs : Obs.t;
}

(* Rebuild every construction-time input from snapshot metadata.  Both the
   fresh checkpointed run and a resume go through this one function, so a
   resumed run is built from exactly the inputs the original was. *)
let instance_of_meta ~obs (m : Snapshot.meta) =
  let workload =
    match Ace_workloads.Specjvm.find m.Snapshot.workload with
    | Some w -> w
    | None ->
        invalid_arg
          (Printf.sprintf "Run: unknown workload %S in checkpoint metadata"
             m.Snapshot.workload)
  in
  let program =
    workload.Ace_workloads.Workload.build ~scale:m.Snapshot.scale
      ~seed:m.Snapshot.seed
  in
  let faults =
    match m.Snapshot.fault_rate with
    | None -> Faults.none
    | Some rate ->
        Faults.create
          ~seed:((m.Snapshot.seed * 1000) + 7)
          ~obs (Faults.preset ~rate)
  in
  let scheme = scheme_of_snap m.Snapshot.scheme in
  (* Baseline and hotspot runs have no interval hook of their own, so the
     checkpoint cadence rides directly on [interval_instrs] (the hook is
     side-effect free for them).  BBV owns the 1 M interval; checkpoints
     then fire every [k] intervals. *)
  let interval =
    match scheme with
    | Scheme.Bbv -> bbv_interval
    | _ -> m.Snapshot.checkpoint_every
  in
  let cfg =
    engine_config ~hot_threshold:m.Snapshot.hot_threshold ~seed:m.Snapshot.seed
      ~interval:(Some interval)
  in
  let engine = Engine.create ~config:cfg ~faults ~obs program in
  let attached =
    attach_scheme
      ~framework_config:(Framework.config_for ~resilient:m.Snapshot.resilient)
      ~with_issue_queue:m.Snapshot.with_issue_queue
      ~bbv_prediction:m.Snapshot.bbv_prediction ~faults ~obs engine scheme
  in
  let sampler =
    attach_sample ~sample:m.Snapshot.sample ~faults ~obs engine attached
  in
  { meta = m; engine; faults; attached; sampler; obs }

let scheme_tag = Ace_util.Codec.enum "scheme state" Snapshot.[ Baseline; Hotspot; Bbv ]

(* The body: every stateful module's [sync], in format order.  The scheme
   section is tagged, and the tag must be the scheme the meta rebuilt. *)
let sync io r =
  let open Ace_util.Codec in
  Engine.sync io r.engine;
  Faults.sync io r.faults;
  if sync io scheme_tag r.meta.Snapshot.scheme <> r.meta.Snapshot.scheme then
    fail "scheme state does not match metadata";
  (match r.attached with
  | A_baseline -> ()
  | A_hotspot fw -> Framework.sync io fw
  | A_bbv sch -> Ace_bbv.Scheme.sync io sch);
  Obs.sync io r.obs;
  sync_option io Sample.sync r.sampler

let capture r = Snapshot.save r.meta (fun io -> sync io r)

let restore ?(obs = Obs.null) (snap : Snapshot.t) =
  let r =
    try instance_of_meta ~obs snap.Snapshot.meta
    with Invalid_argument msg -> raise (Snapshot.Error (Snapshot.Malformed msg))
  in
  (* Read after attach: schemes set ILP/exposure scales when attaching, and
     the engine's section must overwrite them.  The observability image
     rides in the body, so a resumed run picks up its counters and
     timeline where the killed run left them. *)
  Snapshot.read_body snap (fun io -> sync io r);
  r

let restore_latest ?io ?obs ~path () = Snapshot.with_fallback ?io ~path (restore ?obs)
let engine r = r.engine
let sampler r = r.sampler

(* Wrap [on_interval] — after the scheme attached, so the scheme's own hook
   runs first and the captured state is the post-hook state the resumed run
   would also see. *)
let install_checkpointing ?(io = Io.real) ?kill_after ?on_snapshot ?on_boundary
    ~path r =
  let m = r.meta in
  let interval =
    match scheme_of_snap m.Snapshot.scheme with
    | Scheme.Bbv -> bbv_interval
    | _ -> m.Snapshot.checkpoint_every
  in
  let every_k =
    max 1 ((m.Snapshot.checkpoint_every + interval - 1) / interval)
  in
  let hooks = Engine.hooks r.engine in
  let prev = hooks.Engine.on_interval in
  hooks.Engine.on_interval <-
    (fun ~total_instrs ->
      prev ~total_instrs;
      (match kill_after with
      | Some n when total_instrs >= n -> raise (Killed total_instrs)
      | _ -> ());
      if total_instrs / interval mod every_k = 0 then begin
        let snap = capture r in
        (match on_snapshot with Some f -> f snap | None -> ());
        Snapshot.write ~io ~faults:r.faults ~obs:r.obs ~path snap
      end;
      (* After the snapshot block, so anything [on_boundary] does to stop
         the run (drain, deadline, chaos kill) finds this boundary's
         snapshot already on disk — every life of a supervised job is
         guaranteed to have made checkpointable progress. *)
      match on_boundary with Some f -> f ~total_instrs | None -> ())

let finish r =
  finish_run ~name:r.meta.Snapshot.workload
    ~scheme:(scheme_of_snap r.meta.Snapshot.scheme)
    ~engine:r.engine ~faults:r.faults ~obs:r.obs ~attached:r.attached
    ~sampler:r.sampler

let run_checkpointed ?io ?(scale = 1.0) ?(seed = 1)
    ?(hot_threshold = default_hot_threshold) ?(with_issue_queue = false)
    ?(bbv_prediction = false) ?(resilient = false) ?fault_rate ?sample
    ?kill_after ?on_snapshot ?on_boundary ?(obs = Obs.null) ~checkpoint_every
    ~path workload scheme =
  if checkpoint_every <= 0 then
    invalid_arg "Run.run_checkpointed: checkpoint_every must be positive";
  let meta =
    {
      Snapshot.workload = workload.Ace_workloads.Workload.name;
      scheme = scheme_to_snap scheme;
      scale;
      seed;
      hot_threshold;
      with_issue_queue;
      bbv_prediction;
      resilient;
      fault_rate;
      checkpoint_every;
      sample;
    }
  in
  let r = instance_of_meta ~obs meta in
  install_checkpointing ?io ?kill_after ?on_snapshot ?on_boundary ~path r;
  match Engine.run r.engine with
  | () -> Completed (finish r)
  | exception Killed n -> Killed_at n

let continue ?io ?kill_after ?on_snapshot ?on_boundary ?path r =
  (* Ring-only (never a metric): the metrics summary of a resumed run must
     stay byte-identical to an uninterrupted one. *)
  if Obs.tracing r.obs then
    Obs.record r.obs (Obs.Ckpt_restore { instrs = Engine.instrs r.engine });
  Option.iter
    (fun path -> install_checkpointing ?io ?kill_after ?on_snapshot ?on_boundary ~path r)
    path;
  match Engine.resume r.engine with
  | () -> Completed (finish r)
  | exception Killed n -> Killed_at n

let resume_from_snapshot ?io ?kill_after ?on_snapshot ?on_boundary ?path ?obs snap =
  continue ?io ?kill_after ?on_snapshot ?on_boundary ?path (restore ?obs snap)

let resume_run ?io ?kill_after ?on_boundary ?obs ~path () =
  Option.map
    (fun (r, which) -> (continue ?io ?kill_after ?on_boundary ~path r, which))
    (restore_latest ?io ?obs ~path ())
