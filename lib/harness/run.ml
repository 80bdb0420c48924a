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

(* {2 Building a run} *)

(* A built run's live objects, from construction to [finish]. *)
type live = {
  name : string;
  scheme : Scheme.t;
  engine : Engine.t;
  faults : Faults.t;
  attached : attached;
  sampler : Sample.t option;
  obs : Obs.t;
}

(* The one place a run is built: [run] calls it with its arguments, a
   durable run with its snapshot meta.  The order (program, fault injector, engine, scheme,
   sampler) is the one [perfbench/assemble.ml] mirrors.  Non-BBV runs fire
   the interval hook every [interval] instructions, if given; BBV owns the
   1 M interval. *)
let build ~obs ~framework_config ~interval ~scale ~seed ~hot_threshold
    ~with_issue_queue ~bbv_prediction ~fault_rate ~sample
    (workload : Ace_workloads.Workload.t) scheme =
  let program = workload.build ~scale ~seed in
  (* One injector per run, seeded off the run seed so fault sequences are
     reproducible but decorrelated from the engine's own stream. *)
  let faults =
    match fault_rate with
    | None -> Faults.none
    | Some rate ->
        Faults.create ~seed:((seed * 1000) + 7) ~obs (Faults.preset ~rate)
  in
  let interval_instrs =
    match scheme with Scheme.Bbv -> Some bbv_interval | _ -> interval
  in
  let config =
    { Engine.default_config with Engine.seed; hot_threshold; interval_instrs }
  in
  let engine = Engine.create ~config ~faults ~obs program in
  let attached =
    attach_scheme ~framework_config ~with_issue_queue ~bbv_prediction ~faults
      ~obs engine scheme
  in
  let sampler = attach_sample ~sample ~faults ~obs engine attached in
  { name = workload.name; scheme; engine; faults; attached; sampler; obs }

(* Fixed-baseline accounting: caches stay at maximum size; one epoch. *)
let fixed_accounting engine =
  let epoch family cache =
    let a =
      Accounting.create family ~initial_size:(Cache.config cache).Cache.size_bytes
    in
    Accounting.finish a ~accesses_now:(Cache.Stats.accesses cache)
      ~cycles_now:(Engine.cycles engine);
    a
  in
  let hier = Engine.hierarchy engine in
  ( epoch Ace_power.Energy_model.L1d (Hierarchy.l1d hier),
    epoch Ace_power.Energy_model.L2 (Hierarchy.l2 hier) )

let finish r =
  let engine = r.engine in
  let sample = Option.map Sample.stats r.sampler in
  (* Final whole-run gauges; set here (not per-tick) so the hot path stays
     free of float stores. *)
  if Obs.enabled r.obs then begin
    Obs.set_gauge r.obs
      (Obs.gauge r.obs "engine.instrs")
      (float_of_int (Engine.instrs engine));
    Obs.set_gauge r.obs (Obs.gauge r.obs "engine.ipc") (Engine.ipc engine)
  end;
  let fault_stats =
    if Faults.is_none r.faults then None else Some (Faults.stats r.faults)
  in
  let both accounting =
    match (accounting 0, accounting 1) with
    | Some a, Some b -> (a, b)
    | _ -> assert false
  in
  let (acct_l1d, acct_l2), hotspot, bbv, bbv_predictor, resilience =
    match r.attached with
    | A_baseline -> (fixed_accounting engine, None, None, None, None)
    | A_hotspot fw ->
        Framework.finalize fw;
        ( both (Framework.accounting fw),
          Some
            {
              reports = Framework.report fw;
              unmanaged_hotspots = Framework.unmanaged_hotspots fw;
              views = Framework.hotspot_views fw;
            },
          None,
          None,
          Some (Framework.resilience_report fw) )
    | A_bbv sch ->
        Ace_bbv.Scheme.finalize sch;
        ( both (Ace_bbv.Scheme.accounting sch),
          None,
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
            },
          Ace_bbv.Scheme.predictor_stats sch,
          None )
  in
  let hier = Engine.hierarchy engine in
  {
    workload = r.name;
    scheme = r.scheme;
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

let run ?(scale = 1.0) ?(seed = 1) ?(hot_threshold = default_hot_threshold)
    ?(framework_config = Framework.default_config) ?(with_issue_queue = false)
    ?(bbv_prediction = false) ?fault_rate ?sample ?(obs = Obs.null) workload
    scheme =
  let r =
    build ~obs ~framework_config ~interval:None ~scale ~seed ~hot_threshold
      ~with_issue_queue ~bbv_prediction ~fault_rate ~sample workload scheme
  in
  Engine.run r.engine;
  finish r

(* {2 Checkpointed execution} *)

module Snapshot = Ace_ckpt.Snapshot

exception Killed of int

type ckpt_outcome = Completed of result | Killed_at of int

let meta ?(scale = 1.0) ?(seed = 1) ?(hot_threshold = default_hot_threshold)
    ?(with_issue_queue = false) ?(bbv_prediction = false) ?(resilient = false)
    ?fault_rate ?sample ~checkpoint_every workload scheme =
  if checkpoint_every <= 0 then
    invalid_arg "Run.meta: checkpoint_every must be positive";
  {
    Snapshot.workload;
    scheme;
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

type durable = { meta : Snapshot.meta; live : live; restored : bool }

(* Every construction-time input comes from the meta, so a restored run is
   built from exactly the inputs the original was.  Baseline and hotspot
   runs have no interval hook of their own, so the checkpoint cadence rides
   directly on the interval (the hook is side-effect free for them); BBV
   keeps its 1 M interval and checkpoints every [k] of them. *)
let fresh ~obs (m : Snapshot.meta) =
  let workload =
    match Ace_workloads.Specjvm.find m.workload with
    | Some w -> w
    | None ->
        invalid_arg
          (Printf.sprintf "Run: unknown workload %S in checkpoint metadata"
             m.workload)
  in
  let live =
    build ~obs
      ~framework_config:(Framework.config_for ~resilient:m.resilient)
      ~interval:(Some m.checkpoint_every) ~scale:m.scale ~seed:m.seed
      ~hot_threshold:m.hot_threshold ~with_issue_queue:m.with_issue_queue
      ~bbv_prediction:m.bbv_prediction ~fault_rate:m.fault_rate
      ~sample:m.sample workload m.scheme
  in
  { meta = m; live; restored = false }

(* The body: every stateful module's [sync], in format order.  The scheme
   section is tagged, and the tag must be the scheme the meta rebuilt. *)
let sync io r =
  let open Ace_util.Codec in
  let l = r.live in
  Engine.sync io l.engine;
  Faults.sync io l.faults;
  if sync io Snapshot.scheme_codec r.meta.scheme <> r.meta.scheme then
    fail "scheme state does not match metadata";
  (match l.attached with
  | A_baseline -> ()
  | A_hotspot fw -> Framework.sync io fw
  | A_bbv sch -> Ace_bbv.Scheme.sync io sch);
  Obs.sync io l.obs;
  sync_option io Sample.sync l.sampler

let capture r = Snapshot.save r.meta (fun io -> sync io r)

let restore ?(obs = Obs.null) (snap : Snapshot.t) =
  let r =
    try fresh ~obs snap.meta
    with Invalid_argument msg -> raise (Snapshot.Error (Snapshot.Malformed msg))
  in
  (* Read after attach: schemes set ILP/exposure scales when attaching, and
     the engine's section must overwrite them.  The observability image
     rides in the body, so a resumed run picks up its counters and
     timeline where the killed run left them. *)
  Snapshot.read_body snap (fun io -> sync io r);
  { r with restored = true }

let restore_latest ?io ?obs ~path () = Snapshot.with_fallback ?io ~path (restore ?obs)

(* No sink here: a body refused after its observability section has
   written part of its image into the sink, which a fresh run must not
   inherit. *)
let reopen ?io ~path meta =
  match restore_latest ?io ~path () with
  | Some (r, which) -> (r, (which :> [ `Primary | `Fallback | `Fresh ]))
  | None -> (fresh ~obs:Obs.null meta, `Fresh)

let engine r = r.live.engine
let sampler r = r.live.sampler

(* Wrap [on_interval] — after the scheme attached, so the scheme's own hook
   runs first and the captured state is the post-hook state the resumed run
   would also see. *)
let install_checkpointing ?(io = Io.real) ?kill_after ?on_snapshot ?on_boundary
    ~path r =
  let l = r.live in
  (* [fresh] gave the engine its interval: the cadence, or BBV's own. *)
  let interval = Option.get (Engine.config l.engine).Engine.interval_instrs in
  let every_k = max 1 ((r.meta.checkpoint_every + interval - 1) / interval) in
  let hooks = Engine.hooks l.engine in
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
        Snapshot.write ~io ~faults:l.faults ~obs:l.obs ~path snap
      end;
      (* After the snapshot block, so anything [on_boundary] does to stop
         the run (drain, deadline, chaos kill) finds this boundary's
         snapshot already on disk — every life of a supervised job is
         guaranteed to have made checkpointable progress. *)
      match on_boundary with Some f -> f ~total_instrs | None -> ())

let continue ?io ?kill_after ?on_snapshot ?on_boundary ?path r =
  (* Ring-only (never a metric): the metrics summary of a resumed run must
     stay byte-identical to an uninterrupted one. *)
  if r.restored && Obs.tracing r.live.obs then
    Obs.record r.live.obs (Obs.Ckpt_restore { instrs = Engine.instrs r.live.engine });
  Option.iter
    (fun path -> install_checkpointing ?io ?kill_after ?on_snapshot ?on_boundary ~path r)
    path;
  match
    if r.restored then Engine.resume r.live.engine else Engine.run r.live.engine
  with
  | () -> Completed (finish r.live)
  | exception Killed n -> Killed_at n

let run_checkpointed ?io ?scale ?seed ?hot_threshold ?with_issue_queue
    ?bbv_prediction ?resilient ?fault_rate ?sample ?kill_after ?on_snapshot
    ?on_boundary ?(obs = Obs.null) ~checkpoint_every ~path workload scheme =
  let m =
    meta ?scale ?seed ?hot_threshold ?with_issue_queue ?bbv_prediction
      ?resilient ?fault_rate ?sample ~checkpoint_every
      workload.Ace_workloads.Workload.name scheme
  in
  continue ?io ?kill_after ?on_snapshot ?on_boundary ~path (fresh ~obs m)

let resume_from_snapshot ?io ?kill_after ?on_snapshot ?on_boundary ?path ?obs snap =
  continue ?io ?kill_after ?on_snapshot ?on_boundary ?path (restore ?obs snap)
