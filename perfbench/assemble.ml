(* The benchmark's own assembly of one item from the layers' public functions.

   It mirrors [Ace_harness.Run.run] step by step (workload build, engine,
   scheme, sampler, finalize), so that the traced run can reach
   [Engine.hooks] and time every call into a scheme hook or the sampler's
   quiescence guard from outside the engine.  The oracle checks that this
   assembly and [Run.run] produce identical outputs for every item. *)

module Engine = Ace_vm.Engine
module Cache = Ace_mem.Cache
module Hierarchy = Ace_mem.Hierarchy
module Framework = Ace_core.Framework
module Bbv = Ace_bbv.Scheme
module Sample = Ace_sample.Sample
module Accounting = Ace_power.Accounting
module Obs = Ace_obs.Obs
module Run = Ace_harness.Run
module Scheme = Ace_harness.Scheme
module Workload = Ace_workloads.Workload

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Host time and call counts gathered by the hook wrappers of one item. *)
type probe = {
  mutable core_ns : int;  (** Framework entry/exit/promotion hooks. *)
  mutable core_calls : int;
  mutable bbv_ns : int;  (** BBV block and interval hooks. *)
  mutable bbv_calls : int;
  mutable guard_ns : int;  (** The sampler's [allow] guard. *)
  mutable guard_calls : int;
  mutable entries : int;  (** [on_method_entry] calls, every scheme. *)
  mutable blocks : int;  (** [on_block] calls (block batches), every scheme. *)
}

let probe () =
  {
    core_ns = 0;
    core_calls = 0;
    bbv_ns = 0;
    bbv_calls = 0;
    guard_ns = 0;
    guard_calls = 0;
    entries = 0;
    blocks = 0;
  }

type scheme = Baseline | Hotspot of Framework.t | Bbv of Bbv.t

type t = { engine : Engine.t; scheme : scheme; sampler : Sample.t option }

let engine_config ~seed ~interval =
  {
    Engine.default_config with
    Engine.seed;
    hot_threshold = Run.default_hot_threshold;
    interval_instrs = interval;
  }

(* Time the hooks the scheme installed, and count method entries and block
   batches for every scheme.  Installed after the scheme attaches and before
   the sampler does, so the sampler's own promotion bookkeeping stays out of
   the scheme's time, as in [Run.run]'s attach order. *)
let wrap_hooks p engine scheme =
  let h = Engine.hooks engine in
  let entry = h.Engine.on_method_entry and block = h.Engine.on_block in
  let count_entries () =
    h.Engine.on_method_entry <-
      (fun ~meth_id ->
        p.entries <- p.entries + 1;
        entry ~meth_id)
  and count_blocks () =
    h.Engine.on_block <-
      (fun ~pc ~instrs ~count ->
        p.blocks <- p.blocks + 1;
        block ~pc ~instrs ~count)
  in
  match scheme with
  | Hotspot _ ->
      let exit = h.Engine.on_method_exit
      and promoted = h.Engine.on_hotspot_promoted in
      let stop t0 =
        p.core_ns <- p.core_ns + (now_ns () - t0);
        p.core_calls <- p.core_calls + 1
      in
      h.Engine.on_method_entry <-
        (fun ~meth_id ->
          p.entries <- p.entries + 1;
          let t0 = now_ns () in
          entry ~meth_id;
          stop t0);
      h.Engine.on_method_exit <-
        (fun ~meth_id prof ->
          let t0 = now_ns () in
          exit ~meth_id prof;
          stop t0);
      h.Engine.on_hotspot_promoted <-
        (fun ~meth_id ->
          let t0 = now_ns () in
          promoted ~meth_id;
          stop t0);
      count_blocks ()
  | Bbv _ ->
      let interval = h.Engine.on_interval in
      let stop t0 =
        p.bbv_ns <- p.bbv_ns + (now_ns () - t0);
        p.bbv_calls <- p.bbv_calls + 1
      in
      h.Engine.on_block <-
        (fun ~pc ~instrs ~count ->
          p.blocks <- p.blocks + 1;
          let t0 = now_ns () in
          block ~pc ~instrs ~count;
          stop t0);
      h.Engine.on_interval <-
        (fun ~total_instrs ->
          let t0 = now_ns () in
          interval ~total_instrs;
          stop t0);
      count_entries ()
  | Baseline ->
      count_entries ();
      count_blocks ()

(* The scheme's quiescence guard and phase classifier, as [Run.run] builds
   them. *)
let attach_sample ?probe ~config ~obs engine scheme =
  let allow, classify =
    match scheme with
    | Baseline -> ((fun ~meth_id:_ -> Sample.Allow), None)
    | Hotspot fw ->
        ( (fun ~meth_id ->
            if not (Framework.hotspot_settled fw ~meth_id) then Sample.Unsettled
            else if
              Framework.measuring_open fw > 0 || Framework.unsettled_active fw
            then Sample.Not_quiescent
            else Sample.Allow),
          None )
    | Bbv sch ->
        ( (fun ~meth_id:_ ->
            if Bbv.quiescent sch then Sample.Allow else Sample.Not_quiescent),
          Some
            (fun () ->
              let c = Ace_bbv.Tracker.current_phase (Bbv.tracker sch) in
              if c < 0 then None else Some c) )
  in
  let allow =
    match probe with
    | None -> allow
    | Some p ->
        fun ~meth_id ->
          let t0 = now_ns () in
          let v = allow ~meth_id in
          p.guard_ns <- p.guard_ns + (now_ns () - t0);
          p.guard_calls <- p.guard_calls + 1;
          v
  in
  Sample.attach ~config ~obs ?classify ~allow engine

(* Everything [Run.run] does before [Engine.run]: the set-up the benchmark
   times as [setup_s].  [interval] is the non-BBV interval hook (checkpointed
   runs put their cadence there); BBV always owns the 1 M interval. *)
let setup ?probe ?(obs = Obs.null) ?interval ~scale ~seed ~sample
    ((w : Workload.t), scheme) =
  let program = w.Workload.build ~scale ~seed in
  let interval =
    match scheme with Scheme.Bbv -> Some Run.bbv_interval | _ -> interval
  in
  let engine = Engine.create ~config:(engine_config ~seed ~interval) ~obs program in
  let cus = [| Ace_core.Cu.l1d engine; Ace_core.Cu.l2 engine |] in
  let scheme =
    match scheme with
    | Scheme.Fixed_baseline -> Baseline
    | Scheme.Hotspot ->
        Hotspot (Framework.attach ~config:Framework.default_config ~obs engine ~cus)
    | Scheme.Bbv ->
        Bbv
          (Bbv.attach
             ~config:{ Bbv.default_config with next_phase_prediction = false }
             engine ~cus)
  in
  Option.iter (fun p -> wrap_hooks p engine scheme) probe;
  let sampler =
    Option.map (fun config -> attach_sample ?probe ~config ~obs engine scheme) sample
  in
  { engine; scheme; sampler }

(* Everything [Run.run] does after [Engine.run], reduced to the outputs the
   oracle compares. *)
let finish t =
  let engine = t.engine in
  let hier = Engine.hierarchy engine in
  let l1d = Hierarchy.l1d hier and l2 = Hierarchy.l2 hier in
  let get = function Some a -> a | None -> assert false in
  let (acct_l1d, acct_l2), tunings, reconfigs =
    match t.scheme with
    | Baseline ->
        let fixed family cache =
          let a =
            Accounting.create family ~initial_size:(Cache.config cache).Cache.size_bytes
          in
          Accounting.finish a ~accesses_now:(Cache.Stats.accesses cache)
            ~cycles_now:(Engine.cycles engine);
          a
        in
        ( (fixed Ace_power.Energy_model.L1d l1d, fixed Ace_power.Energy_model.L2 l2),
          [||],
          [||] )
    | Hotspot fw ->
        Framework.finalize fw;
        let r = Framework.report fw in
        ( (get (Framework.accounting fw 0), get (Framework.accounting fw 1)),
          Array.map (fun c -> c.Framework.tunings) r,
          Array.map (fun c -> c.Framework.reconfigs) r )
    | Bbv sch ->
        Bbv.finalize sch;
        ( (get (Bbv.accounting sch 0), get (Bbv.accounting sch 1)),
          [| Bbv.tunings sch |],
          Bbv.reconfigs_per_cu sch )
  in
  {
    Outputs.instrs = Engine.instrs engine;
    cycles = Engine.cycles engine;
    l1d_nj = Accounting.total_nj acct_l1d;
    l2_nj = Accounting.total_nj acct_l2;
    l1d_miss_rate = Cache.Stats.miss_rate l1d;
    l2_miss_rate = Cache.Stats.miss_rate l2;
    hotspots = Ace_vm.Do_database.hotspot_count (Engine.db engine);
    tunings;
    reconfigs;
  }
