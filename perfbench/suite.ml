(* The three workloads, their output oracle, and the measurement loop.

   - suite-full: the paper's 7 SPECjvm98 analogues x {baseline, hotspot,
     bbv} under full simulation through [Run.run].  Engine and memory
     hierarchy do almost all the work; sampler and snapshot layers do none.
   - suite-sampled: the same 21 items with [Sample.default_config], so the
     sampler decides every candidate entry and splices recurring phases.
   - durable-traced: mtrt under {hotspot, bbv} at full length, checkpointed
     every 1 M instructions with observability at [Full], killed at its
     midpoint, resumed from the file on disk, and its Chrome trace exported.
     The only workload that exercises [ace_ckpt] and [ace_obs].

   Every run first computes the full-simulation reference of each item with
   the benchmark's own assembly ([Assemble]), checks it against the committed
   digests when the seed has them, and then times passes over the items until
   the requested seconds are used up.  End-to-end times are sums over items of
   per-item medians across passes, which keeps one noisy pass from moving
   them, and each item time is first normalized by the [Yardstick] timed
   right before it.  With tracing on, each untraced pass is followed by a
   traced one whose outputs must equal it item for item, and the per-layer
   figures are means per traced pass, in host seconds. *)

module Run = Ace_harness.Run
module Scheme = Ace_harness.Scheme
module Workload = Ace_workloads.Workload
module Engine = Ace_vm.Engine
module Hierarchy = Ace_mem.Hierarchy
module Sample = Ace_sample.Sample
module Snapshot = Ace_ckpt.Snapshot
module Obs = Ace_obs.Obs
module Export = Ace_obs.Export

type kind = Full | Sampled | Durable

let kinds =
  [ ("suite-full", Full); ("suite-sampled", Sampled); ("durable-traced", Durable) ]

(* The suites run at 1/10 of the reproduction's default run length: a full
   pass over the 21 items takes about 3 s on a 2-core host, so a 30 s run
   measures each item about nine times. *)
let default_scale = 0.1

(* The durable workload runs at the default length, 1.0, where the
   observability ring (65536 events) fills early and every snapshot carries
   it whole, 1.6 MB, as in a user's checkpointed run; at 0.1 it never fills
   and snapshots are a third of that.  At 1.0 one item takes 2.4-5.1 s, so
   the workload keeps the shortest analogue, mtrt, under both schemes. *)
let durable_scale = 1.0
let durable_suite = [ Option.get (Ace_workloads.Specjvm.find "mtrt") ]
let scale_of = function Full | Sampled -> default_scale | Durable -> durable_scale
let suite_of = function Full | Sampled -> Ace_workloads.Specjvm.all | Durable -> durable_suite
let checkpoint_every = 1_000_000
let setup_reps = 50

(* How strongly a workload's time follows the [Yardstick] probe: an item
   time is divided by [slowdown ** weight].  The suites follow it in full.
   Over twenty durable runs whose probe read 0.74-1.26, the fitted exponent
   of raw wall time against the probe was 0.62 (1.05 and 1.04 for the
   suites); with 0.5 the spread of [wall_s] fell from 0.11 to 0.04-0.07. *)
let probe_weight = function Full | Sampled -> 1.0 | Durable -> 0.5
let work_dir = ".perfbench-work"
let now_ns = Assemble.now_ns
let secs ns = float_of_int ns *. 1e-9

type item = Workload.t * Scheme.t

let item_name ((w, s) : item) = w.Workload.name ^ "/" ^ Scheme.name s

let items ~suite kind =
  let schemes =
    match kind with Durable -> [ Scheme.Hotspot; Scheme.Bbv ] | _ -> Scheme.all
  in
  List.concat_map (fun w -> List.map (fun s -> (w, s)) schemes) suite

(* Full simulation of one item, with the simulated work counted at the hooks. *)
type reference = {
  out : Outputs.t;
  counts : Hierarchy.counts;
  entries : int;
  blocks : int;
}

let reference ~scale ~seed item =
  let p = Assemble.probe () in
  let a = Assemble.setup ~probe:p ~scale ~seed ~sample:None item in
  Engine.run a.Assemble.engine;
  let counts = Hierarchy.counts (Engine.hierarchy a.Assemble.engine) in
  { out = Assemble.finish a; counts; entries = p.Assemble.entries; blocks = p.Assemble.blocks }

(* What a traced item run saw: host seconds per layer, and counts. *)
type trace = {
  mutable wall : float;
  mutable setup : float;
  mutable engine : float;  (** Engine self time: run minus timed hooks. *)
  mutable core : float;
  mutable bbv : float;
  mutable guard : float;
  mutable finish : float;
  mutable write : float;  (** [on_snapshot] to [on_boundary]. *)
  mutable read : float;
  mutable export : float;
  mutable encode : float;  (** One [Snapshot.encode], outside the item's wall. *)
  mutable last_snapshot : Snapshot.t option;  (** What [encode] times. *)
  mutable core_calls : int;
  mutable bbv_calls : int;
  mutable guard_calls : int;
  mutable entries : int;
  mutable blocks : int;
  mutable counts : Hierarchy.counts option;
  mutable sample : Sample.stats option;
  mutable phases : int;
  mutable core_trials : int;
  mutable core_reconfigs : int;
  mutable bbv_tunings : int;
  mutable writes : int;
  mutable snapshot_bytes : int;
  mutable events : int;
  mutable dropped : int;
  mutable trace_bytes : int;
}

let new_trace () =
  {
    wall = 0.0;
    setup = 0.0;
    engine = 0.0;
    core = 0.0;
    bbv = 0.0;
    guard = 0.0;
    finish = 0.0;
    write = 0.0;
    read = 0.0;
    export = 0.0;
    encode = 0.0;
    last_snapshot = None;
    core_calls = 0;
    bbv_calls = 0;
    guard_calls = 0;
    entries = 0;
    blocks = 0;
    counts = None;
    sample = None;
    phases = 0;
    core_trials = 0;
    core_reconfigs = 0;
    bbv_tunings = 0;
    writes = 0;
    snapshot_bytes = 0;
    events = 0;
    dropped = 0;
    trace_bytes = 0;
  }

let sample_config kind = if kind = Sampled then Some Sample.default_config else None

(* One timed item under [Run.run] (untraced) or under the benchmark's own
   assembly with every scheme hook and the sampler guard timed (traced). *)
let suite_item ~scale ~seed ~kind ?tr ((w, s) as item) =
  let sample = sample_config kind in
  match tr with
  | None -> Outputs.of_result (Run.run ~scale ~seed ?sample w s)
  | Some tr ->
      let p = Assemble.probe () in
      let t0 = now_ns () in
      let a = Assemble.setup ~probe:p ~scale ~seed ~sample item in
      let t1 = now_ns () in
      Engine.run a.Assemble.engine;
      let t2 = now_ns () in
      let out = Assemble.finish a in
      let t3 = now_ns () in
      tr.setup <- secs (t1 - t0);
      tr.core <- secs p.Assemble.core_ns;
      tr.bbv <- secs p.Assemble.bbv_ns;
      tr.guard <- secs p.Assemble.guard_ns;
      tr.engine <-
        secs (t2 - t1 - p.Assemble.core_ns - p.Assemble.bbv_ns - p.Assemble.guard_ns);
      tr.finish <- secs (t3 - t2);
      tr.core_calls <- p.Assemble.core_calls;
      tr.bbv_calls <- p.Assemble.bbv_calls;
      tr.guard_calls <- p.Assemble.guard_calls;
      tr.entries <- p.Assemble.entries;
      tr.blocks <- p.Assemble.blocks;
      tr.counts <- Some (Hierarchy.counts (Engine.hierarchy a.Assemble.engine));
      tr.sample <- Option.map Sample.stats a.Assemble.sampler;
      (match a.Assemble.scheme with
      | Assemble.Bbv sch -> tr.phases <- Ace_bbv.Scheme.phase_count sch
      | _ -> ());
      out

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

let clear_work_dir () =
  if Sys.file_exists work_dir then
    Array.iter (fun f -> Sys.remove (Filename.concat work_dir f)) (Sys.readdir work_dir)

(* Kill at the midpoint, resume from disk, export the trace.  Traced, it
   also times every snapshot write and keeps the last snapshot to encode. *)
let durable_item ~scale ~seed ~(reference : reference) ?tr ((w, s) : item) =
  let base = Filename.concat work_dir (w.Workload.name ^ "-" ^ Scheme.name s) in
  let path = base ^ ".snap" in
  let files = [ path; path ^ ".1"; path ^ ".tmp"; base ^ ".trace.json"; base ^ ".metrics.csv" ] in
  List.iter remove_if_exists files;
  let t_snap = ref (-1) in
  let on_snapshot, on_boundary =
    match tr with
    | None -> (None, None)
    | Some tr ->
        ( Some
            (fun snap ->
              tr.last_snapshot <- Some snap;
              t_snap := now_ns ()),
          Some
            (fun ~total_instrs:_ ->
              if !t_snap >= 0 then begin
                tr.write <- tr.write +. secs (now_ns () - !t_snap);
                tr.writes <- tr.writes + 1;
                tr.snapshot_bytes <- tr.snapshot_bytes + (Unix.stat path).Unix.st_size;
                t_snap := -1
              end) )
  in
  let t0 = now_ns () in
  (match
     Run.run_checkpointed ~scale ~seed ~obs:(Obs.create Obs.Full) ?on_snapshot
       ?on_boundary ~kill_after:(reference.out.Outputs.instrs / 2) ~checkpoint_every
       ~path w s
   with
  | Run.Killed_at _ -> ()
  | Run.Completed _ -> failwith "the run was not killed at its midpoint");
  let t1 = now_ns () in
  let snap =
    match Snapshot.read_with_fallback ~path () with
    | Some (snap, `Primary) -> snap
    | Some (_, `Fallback) -> failwith "the newest snapshot was unreadable"
    | None -> failwith "no snapshot to resume from"
  in
  let t2 = now_ns () in
  let obs = Obs.create Obs.Full in
  let r =
    match Run.resume_from_snapshot ?on_snapshot ?on_boundary ~path ~obs snap with
    | Run.Completed r -> r
    | Run.Killed_at _ -> failwith "the resumed run was killed"
  in
  let t3 = now_ns () in
  let chrome = Export.chrome obs and csv = Export.metrics_csv obs in
  let t4 = now_ns () in
  Out_channel.with_open_bin (base ^ ".trace.json") (fun oc -> output_string oc chrome);
  Out_channel.with_open_bin (base ^ ".metrics.csv") (fun oc -> output_string oc csv);
  List.iter remove_if_exists files;
  (match tr with
  | None -> ()
  | Some tr ->
      tr.read <- secs (t2 - t1);
      tr.engine <- secs (t1 - t0 + (t3 - t2)) -. tr.write;
      tr.export <- secs (t4 - t3);
      tr.events <- Obs.event_count obs;
      tr.dropped <- Obs.dropped obs;
      tr.trace_bytes <- String.length chrome + String.length csv;
      (* The durable path builds its engine inside [Run]; the simulated work
         it counts is the reference's, which its outputs must equal. *)
      tr.entries <- reference.entries;
      tr.blocks <- reference.blocks;
      tr.counts <- Some reference.counts;
      tr.phases <- (match r.Run.bbv with Some b -> b.Run.phases | None -> 0));
  (Outputs.of_result r, secs (t2 - t1))

(* One attempt at an item: its outputs, host seconds, the host's slowdown
   just before it, minor words, the snapshot read time (durable only), and
   why it failed, if it did. *)
type attempt = {
  item : int;
  wall : float;
  slow : float;
  words : float;
  read_s : float;
  out : Outputs.t option;
  failure : string option;
  tr : trace option;
}

let check kind ~(reference : Outputs.t) out =
  match kind with
  | Sampled -> Outputs.architectural_mismatches ~reference out
  | Full | Durable -> Outputs.mismatches ~reference out

(* Why [out] fails: against the full-simulation reference (architecturally
   for sampled runs), and for a traced attempt also against the untraced
   attempt of the same item in the same pass, exactly on every field, so the
   traced figures describe the program the untraced run measured. *)
let failure_of kind ~(reference : reference) ?untraced out =
  let differs what = function
    | [] -> None
    | fields -> Some (Printf.sprintf "differs from %s in %s" what (String.concat ", " fields))
  in
  match differs "the reference" (check kind ~reference:reference.out out) with
  | Some _ as f -> f
  | None -> (
      match untraced with
      | None -> None
      | Some { out = Some u; _ } -> differs "the untraced run" (Outputs.mismatches ~reference:u out)
      | Some { out = None; _ } -> Some "no untraced run to compare with")

let attempt ~scale ~seed ~kind ~refs ~perturb ?untraced i item =
  let traced = Option.is_some untraced in
  let tr = if traced then Some (new_trace ()) else None in
  (* Start every item from a collected heap, as a separate [ace_sim] process
     would: no item pays for another's garbage, and the peak resident size
     is the largest item's own. *)
  Gc.full_major ();
  let slow = Yardstick.slowdown () in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  match
    match kind with
    | Full | Sampled -> (suite_item ~scale ~seed ~kind ?tr item, 0.0)
    | Durable -> durable_item ~scale ~seed ~reference:refs.(i) ?tr item
  with
  | out, read_s ->
      let wall = secs (now_ns () - t0) and words = Gc.minor_words () -. w0 in
      let out = perturb ~traced out in
      let total a = Array.fold_left ( + ) 0 a in
      Option.iter
        (fun (tr : trace) ->
          tr.wall <- wall;
          Option.iter
            (fun snap ->
              let e0 = now_ns () in
              ignore (Snapshot.encode snap);
              tr.encode <- secs (now_ns () - e0);
              tr.last_snapshot <- None)
            tr.last_snapshot;
          match snd item with
          | Scheme.Hotspot ->
              tr.core_trials <- total out.Outputs.tunings;
              tr.core_reconfigs <- total out.Outputs.reconfigs
          | Scheme.Bbv -> tr.bbv_tunings <- total out.Outputs.tunings
          | Scheme.Fixed_baseline -> ())
        tr;
      let failure = failure_of kind ~reference:refs.(i) ?untraced out in
      { item = i; wall; slow; words; read_s; out = Some out; failure; tr }
  | exception e ->
      clear_work_dir ();
      {
        item = i;
        wall = 0.0;
        slow;
        words = 0.0;
        read_s = 0.0;
        out = None;
        failure = Some (Printexc.to_string e);
        tr;
      }

let setup_once ~scale ~seed ~kind item =
  match kind with
  | Full | Sampled -> ignore (Assemble.setup ~scale ~seed ~sample:(sample_config kind) item)
  | Durable ->
      ignore
        (Assemble.setup ~obs:(Obs.create Obs.Full) ~interval:checkpoint_every ~scale
           ~seed ~sample:None item)

type result = {
  kind : kind;
  scale : float;
  names : string array;  (** Item names, in run order. *)
  item_instrs : int array;  (** Simulated instructions per item. *)
  n_items : int;
  passes : int;  (** Untraced passes. *)
  traced_passes : int;
  attempted : int;
  failed : int;
  failures : string list;  (** One line per failed attempt. *)
  host_slowdown : float;  (** Median yardstick slowdown over the attempts. *)
  raw_wall_s : float;  (** [wall_s] before normalizing to the yardstick. *)
  golden : [ `Checked | `Not_covered ];
  instrs : int;  (** Simulated instructions in one pass over the items. *)
  wall_s : float;
  setup_s : float;
  minor_words_per_kinstr : float;
  peak_rss_mb : float;
  recovery_s : float;
  sample_energy_err_pct : float;
  sample_cycles_err_pct : float;
  traced_wall_s : float;
  per_pass : (trace -> float) -> float;
      (** Mean over traced passes of a per-item figure summed over items. *)
  per_item : int -> (trace -> float) -> float;
      (** Mean over traced passes of one item's figure. *)
}

let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" In_channel.input_all
      |> String.split_on_char '\n'
      |> List.find_map (fun l ->
             Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.0

let run ?scale ?suite ?(min_passes = 3) ?(perturb = fun ~traced:_ o -> o) ~seconds
    ~seed ~trace kind =
  let scale = Option.value scale ~default:(scale_of kind)
  and suite = Option.value suite ~default:(suite_of kind) in
  let items = Array.of_list (items ~suite kind) in
  let n = Array.length items in
  if kind = Durable then
    if Sys.file_exists work_dir then clear_work_dir () else Sys.mkdir work_dir 0o755;
  let failures = ref [] and attempted = ref 0 in
  let fail name why = failures := Printf.sprintf "%s: %s" name why :: !failures in
  (* The reference pass also warms the process up before anything is timed. *)
  let refs = Array.map (reference ~scale ~seed) items in
  attempted := !attempted + n;
  let golden =
    match Golden.lookup ~durable:(kind = Durable) seed with
    | Some digests
      when scale = scale_of kind && suite == suite_of kind && Array.length digests = n ->
        Array.iteri
          (fun i item ->
            if Outputs.digest refs.(i).out <> digests.(i) then
              fail (item_name item) "full simulation differs from the committed digest")
          items;
        `Checked
    | _ -> `Not_covered
  in
  (* Each item is set up [setup_reps] times back to back after one untimed
     set-up, so the median sees warm caches rather than another item's. *)
  let setup =
    Array.map
      (fun item ->
        setup_once ~scale ~seed ~kind item;
        let slow = Yardstick.slowdown () ** probe_weight kind in
        List.init setup_reps (fun _ ->
            let t0 = now_ns () in
            setup_once ~scale ~seed ~kind item;
            secs (now_ns () - t0) /. slow))
      items
  in
  let untraced = ref [] and traced = ref [] and passes = ref 0 in
  (* A traced pass runs right after an untraced one, and each of its
     attempts is checked against the untraced attempt of the same item. *)
  let pass ?counterparts () =
    Array.mapi
      (fun i item ->
        let untraced = Option.map (fun u -> u.(i)) counterparts in
        let a = attempt ~scale ~seed ~kind ~refs ~perturb ?untraced i item in
        incr attempted;
        Option.iter (fail (item_name item)) a.failure;
        a)
      items
  in
  let t_start = now_ns () in
  while !passes < min_passes || secs (now_ns () - t_start) < seconds do
    let u = pass () in
    untraced := Array.to_list u :: !untraced;
    if trace then traced := Array.to_list (pass ~counterparts:u ()) :: !traced;
    incr passes
  done;
  if kind = Durable then Sys.rmdir work_dir;
  let ok = List.filter (fun a -> a.failure = None) in
  let untraced = List.concat_map ok !untraced
  and traced_passes = List.map ok !traced in
  let per_item_median attempts f =
    Array.to_list
      (Array.init n (fun i ->
           Metric.median
             (List.filter_map
                (fun a -> if a.item = i then Some (f a) else None)
                attempts)))
    |> Metric.sum
  in
  let instrs = Array.fold_left (fun acc (r : reference) -> acc + r.out.Outputs.instrs) 0 refs in
  let normalized t a = t /. (a.slow ** probe_weight kind) in
  let wall_s = per_item_median untraced (fun a -> normalized a.wall a) in
  let mean_err f =
    if kind <> Sampled then 0.0
    else
      Metric.mean
        (Array.to_list
           (Array.mapi
              (fun i (r : reference) ->
                match List.find_opt (fun a -> a.item = i) untraced with
                | Some { out = Some o; _ } -> Metric.err_pct ~reference:(f r.out) (f o)
                | _ -> nan)
              refs))
  in
  let per_pass f =
    Metric.mean
      (List.map
         (fun p -> Metric.sum (List.filter_map (fun a -> Option.map f a.tr) p))
         traced_passes)
  in
  let per_item i f =
    Metric.mean
      (List.concat_map
         (List.filter_map (fun a -> if a.item = i then Option.map f a.tr else None))
         traced_passes)
  in
  {
    kind;
    scale;
    names = Array.map item_name items;
    item_instrs = Array.map (fun (r : reference) -> r.out.Outputs.instrs) refs;
    n_items = n;
    passes = !passes;
    traced_passes = List.length traced_passes;
    attempted = !attempted;
    failed = List.length !failures;
    failures = List.rev !failures;
    host_slowdown = Metric.median (List.map (fun a -> a.slow) untraced);
    raw_wall_s = per_item_median untraced (fun a -> a.wall);
    golden;
    instrs;
    wall_s;
    setup_s = Metric.sum (Array.to_list (Array.map Metric.median setup));
    minor_words_per_kinstr =
      per_item_median untraced (fun a -> a.words) /. (float_of_int instrs /. 1000.0);
    peak_rss_mb = peak_rss_mb ();
    recovery_s = per_item_median untraced (fun a -> normalized a.read_s a);
    sample_energy_err_pct = mean_err Outputs.energy_nj;
    sample_cycles_err_pct = mean_err (fun o -> o.Outputs.cycles);
    traced_wall_s =
      (if trace then per_item_median (List.concat traced_passes) (fun a -> normalized a.wall a)
       else nan);
    per_pass;
    per_item;
  }
