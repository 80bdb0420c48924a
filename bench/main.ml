(* Benchmark gates.  Each mode writes one JSON file that a CI step checks:

     main.exe --core-json FILE    simulator hot paths and the snapshot codec
     main.exe --obs-json FILE     observability emission at each level
     main.exe --sample-json FILE  full vs sampled wall clock

   The paper's tables and figures come from [ace_sim exp] alone. *)

(* Every gated timing goes through [measure]: one untimed warm-up batch,
   then [batches] timed ones of [calls] calls each.  It returns the median
   batch's ns and the minor words over all timed batches, both per
   operation ([per_call] operations per call).  Callers size a batch so
   that the periodic costs of what it times (major-GC slices, the obs
   ring's log moves) land in every batch: the median then drops a one-off
   spike without dropping an amortized cost.  Samples go into preallocated
   float arrays and the clock is read outside the minor-words window, so
   the helper's own bookkeeping allocates nothing that it counts. *)
let batches = 11

let batch_s = Float.Array.make batches 0.0
let batch_words = Float.Array.make batches 0.0

let measure ?(per_call = 1) ~calls f =
  for i = 1 to calls do
    f i
  done;
  for b = 0 to batches - 1 do
    let t0 = Unix.gettimeofday () in
    let w0 = Gc.minor_words () in
    for i = 1 to calls do
      f i
    done;
    let w1 = Gc.minor_words () in
    Float.Array.set batch_s b (Unix.gettimeofday () -. t0);
    Float.Array.set batch_words b (w1 -. w0)
  done;
  let ops = float_of_int (calls * per_call) in
  Float.Array.sort Float.compare batch_s;
  ( Float.Array.get batch_s (batches / 2) *. 1e9 /. ops,
    Float.Array.fold_left ( +. ) 0.0 batch_words /. (ops *. float_of_int batches)
  )

let write_json path fields =
  let json =
    "{"
    ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
    ^ "}\n"
  in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s: %s%!" path json

let f1 = Printf.sprintf "%.1f"
let f3 = Printf.sprintf "%.3f"
let f6 = Printf.sprintf "%.6f"

module Obs = Ace_obs.Obs

(* The first snapshot that [pick] accepts from a checkpointed hotspot run of
   [bench]; the run's snapshot files are removed. *)
let first_snapshot ?obs ~scale ~seed ~every ~pick bench =
  let path = Filename.temp_file "ace_bench" ".snap" in
  let snap = ref None in
  (match
     Ace_harness.Run.run_checkpointed ~scale ~seed ?obs
       ~on_snapshot:(fun s -> if !snap = None && pick () then snap := Some s)
       ~checkpoint_every:every ~path
       (Option.get (Ace_workloads.Specjvm.find bench))
       Ace_harness.Scheme.Hotspot
   with
  | Ace_harness.Run.Completed _ -> ()
  | Ace_harness.Run.Killed_at _ -> assert false);
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".1" ];
  Option.get !snap

(* A real mid-run hotspot state, for the per-checkpoint cost a run pays at
   every cadence boundary.  It carries no event ring. *)
let checkpoint_sample =
  lazy
    (first_snapshot ~scale:0.1 ~seed:3 ~every:2_000_000
       ~pick:(fun () -> true)
       "compress")

(* The snapshot a durable, fully observed run writes: mtrt at its default
   length with a [Full] sink, taken at the first checkpoint after the event
   ring filled, so the ring holds all 65,536 events and its image is most of
   the snapshot. *)
let ring_sample =
  lazy
    (let obs = Obs.create Obs.Full in
     first_snapshot ~obs ~scale:1.0 ~seed:1 ~every:1_000_000
       ~pick:(fun () -> Obs.dropped obs > 0)
       "mtrt")

(* A live run needs a [Full] sink of its own to take the ring back. *)
let ring_read data =
  Ace_harness.Run.restore ~obs:(Obs.create Obs.Full) (Ace_ckpt.Snapshot.decode data)

(* Serve wire codec: what one daemon request costs to encode + decode —
   the per-submission protocol tax, paid once per job, off the simulation
   path entirely. *)
let serve_request_sample =
  Ace_serve.Protocol.Submit
    (Ace_serve.Protocol.job_spec ~scale:0.2 ~seed:3 ~fault_rate:0.01
       ~resilient:true ~deadline_s:30.0 ~workload:"compress"
       Ace_harness.Scheme.Hotspot)

(* Observability emission cost at each level, written exactly as producers
   are: an ungated counter bump plus gated float/event emissions.  Off must
   price like a branch; Metrics like a couple of stores; Full adds building
   the event, encoding it into the ring's byte log and hashing those bytes
   into the ring's running CRC-32, which allocates only short-lived words.
   The hash is what lets a checkpoint take the ring's CRC without reading
   the ring again. *)
let obs_emit_sink obs =
  let c = Obs.counter obs "bench.counter" in
  let g = Obs.gauge obs "bench.gauge" in
  let tick = ref 0 in
  Obs.set_clock obs (fun () -> !tick);
  fun (_ : int) ->
    tick := !tick + 1;
    Obs.incr obs c;
    if Obs.enabled obs then Obs.set_gauge obs g (float_of_int !tick);
    if Obs.tracing obs then
      Obs.record obs (Obs.Phase_enter { id = 1; name = "bench" })

(* BENCH_obs.json.  A batch records four ring capacities of events, so
   every Full batch pays the same number of log moves. *)
let obs_json path =
  let ns obs = f3 (fst (measure ~calls:(4 * 65536) (obs_emit_sink obs))) in
  let off = ns Obs.null in
  let metrics = ns (Obs.create Obs.Metrics) in
  let full = ns (Obs.create Obs.Full) in
  write_json path [ ("off_ns", off); ("metrics_ns", metrics); ("full_ns", full) ]

(* BENCH_core.json: wall clock and allocation of the simulator's hot core
   and of the snapshot and serve codecs.  The headline regression guards
   are the [*_minor_words] fields: the engine's per-access path must
   allocate zero minor words per call. *)
let core_json path =
  let rng = Ace_util.Rng.create ~seed:7 in
  let addrs = Array.init 65536 (fun _ -> Ace_util.Rng.int rng 1_000_000) in
  let addr i = Array.unsafe_get addrs (i land 65535) in
  let cache =
    Ace_mem.Cache.create { Ace_mem.Cache.size_bytes = 65536; assoc = 2; line_bytes = 64 }
  in
  let cache_ns, cache_words =
    measure ~calls:1_000_000 (fun i ->
        ignore (Ace_mem.Cache.access cache (addr i) ~write:false))
  in
  let hier = Ace_mem.Hierarchy.create () in
  let data_ns, data_words =
    measure ~calls:500_000 (fun i ->
        ignore (Ace_mem.Hierarchy.data_access hier ~addr:(addr i) ~write:false))
  in
  (* Batched hierarchy access: the engine's inner-loop path.  Gated per
     access like the scalar path, and the words gate must stay at 0.0 (the
     scratch arrays are preallocated; steady state allocates nothing). *)
  let batch_hier = Ace_mem.Hierarchy.create () in
  let batch_n = 4096 in
  let batch_addrs = Array.init batch_n addr in
  let data_batch_ns, data_batch_words =
    measure ~per_call:batch_n ~calls:200 (fun _ ->
        ignore
          (Ace_mem.Hierarchy.data_access_batch batch_hier ~addrs:batch_addrs
             ~n:batch_n ~loads:3 ~stores:1))
  in
  (* Address generation, the other half of the engine's per-chunk work:
     [Pattern.next_batch] over a [Random_in] cursor, the pattern behind
     most simulated data accesses, draws one RNG value per address. *)
  let address_batch_ns, address_batch_words =
    let cursor =
      Ace_isa.Pattern.cursor
        (Ace_isa.Pattern.Random_in { base = 0; extent = 1_000_000 })
    in
    measure ~per_call:batch_n ~calls:1000 (fun _ ->
        Ace_isa.Pattern.next_batch cursor ~rng batch_addrs ~pos:0 ~n:batch_n)
  in
  (* The L1D pass alone, where it is hit-bound: [Cache.access_batch] on the
     64 KB 2-way L1D over a random 48 KB footprint, so every access hits
     and which way holds the line is unpredictable.  The batches cycle
     through 64 different address arrays: a single replayed batch lets the
     host's branch predictor learn its way pattern.  [data_access_batch_ns]
     streams over 1 MB and mostly times misses. *)
  let l1d_batch_hit_ns, _ =
    let l1d =
      Ace_mem.Cache.create
        { Ace_mem.Cache.size_bytes = 65536; assoc = 2; line_bytes = 64 }
    in
    let pool =
      Array.init 64 (fun _ ->
          Array.init batch_n (fun _ -> Ace_util.Rng.int rng (48 * 1024)))
    in
    let miss_addrs = Array.make batch_n 0 and miss_victims = Array.make batch_n 0 in
    measure ~per_call:batch_n ~calls:640 (fun i ->
        ignore
          (Ace_mem.Cache.access_batch l1d (Array.unsafe_get pool (i land 63))
             ~n:batch_n ~loads:3 ~stores:1 ~miss_addrs ~miss_victims))
  in
  let serve_codec_ns, _ =
    measure ~calls:50_000 (fun _ ->
        ignore
          (Ace_serve.Protocol.decode_request
             (Ace_serve.Protocol.encode_request serve_request_sample)))
  in
  (* Snapshot write and read: the per-checkpoint serialization tax every
     durable run pays at each cadence boundary (capture of a live mid-run
     state plus the container), and what a resume pays (decode plus restore
     into a freshly built run). *)
  let snap_data = Ace_ckpt.Snapshot.encode (Lazy.force checkpoint_sample) in
  let live = Ace_harness.Run.restore (Lazy.force checkpoint_sample) in
  let snapshot_encode_ns, _ =
    measure ~calls:100 (fun _ ->
        ignore (Ace_ckpt.Snapshot.encode (Ace_harness.Run.capture live)))
  in
  let snapshot_decode_ns, _ =
    measure ~calls:100 (fun _ ->
        ignore (Ace_harness.Run.restore (Ace_ckpt.Snapshot.decode snap_data)))
  in
  (* The same two costs on a ring-full durable snapshot, where the event
     ring's image is nearly all of the bytes: capturing copies the ring's
     encoded log, and reading decodes and re-records every event. *)
  let ring_data = Ace_ckpt.Snapshot.encode (Lazy.force ring_sample) in
  let ring_live = ring_read ring_data in
  let snapshot_ring_encode_ns, _ =
    measure ~calls:40 (fun _ ->
        ignore (Ace_ckpt.Snapshot.encode (Ace_harness.Run.capture ring_live)))
  in
  let snapshot_ring_decode_ns, _ =
    measure ~calls:8 (fun _ -> ignore (ring_read ring_data))
  in
  (* The passthrough Io backend is a record of closures built once at
     module init: a call through it must allocate nothing beyond the
     syscall wrapper itself.  [exists] bottoms out in a C stub, so any
     nonzero reading here means the dispatch layer started boxing. *)
  let _, io_passthrough_minor_words =
    let probe = Filename.concat (Filename.get_temp_dir_name ()) "ace_bench_absent" in
    measure ~calls:100_000 (fun _ -> ignore (Ace_util.Io.exists Ace_util.Io.real probe))
  in
  write_json path
    [
      ("cache_access_ns", f3 cache_ns);
      ("cache_access_minor_words", f6 cache_words);
      ("data_access_ns", f3 data_ns);
      ("data_access_minor_words", f6 data_words);
      ("data_access_batch_ns", f3 data_batch_ns);
      ("data_access_batch_minor_words", f6 data_batch_words);
      ("address_batch_ns", f3 address_batch_ns);
      ("address_batch_minor_words", f6 address_batch_words);
      ("l1d_batch_hit_ns", f3 l1d_batch_hit_ns);
      ("serve_codec_ns", f1 serve_codec_ns);
      ("snapshot_encode_ns", f1 snapshot_encode_ns);
      ("snapshot_decode_ns", f1 snapshot_decode_ns);
      ("snapshot_ring_encode_ns", f1 snapshot_ring_encode_ns);
      ("snapshot_ring_decode_ns", f1 snapshot_ring_decode_ns);
      ("io_passthrough_minor_words", f6 io_passthrough_minor_words);
    ]

(* BENCH_sample.json: wall clock of a full vs sampled run on a long
   synthetic workload (the fast-forward win scales with phase repetition).
   CI gates the speedup at >= 10x and requires the sampled run's
   architectural instruction count to equal the full run's exactly. *)
let sample_json path =
  let params =
    { Ace_workloads.Synthetic.default with phase_repeats = 2000 }
  in
  let w = Ace_workloads.Synthetic.workload ~name:"sample-bench" params in
  let scheme = Ace_harness.Scheme.Hotspot in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let full, full_s = time (fun () -> Ace_harness.Run.run ~seed:1 w scheme) in
  let sampled, sampled_s =
    time (fun () ->
        Ace_harness.Run.run ~seed:1 ~sample:Ace_sample.Sample.default_config w
          scheme)
  in
  let spliced (r : Ace_harness.Run.result) =
    match r.sample with Some s -> s.Ace_sample.Sample.spliced_instrs | None -> 0
  in
  (* Many-hotspot workload: 181 promoted methods instead of 37, so some
     tuner is mid-campaign for most of the run.  The splice fraction here
     is what the scoped quiescence guard buys — under the old global gate
     it collapses to almost nothing.  CI gates the fraction against the
     recorded pre-scoping baseline (it must at least double). *)
  let mh_params =
    {
      Ace_workloads.Synthetic.default with
      n_phases = 12;
      l1_methods_per_phase = 6;
      phase_repeats = 24;
      setup_calls = 3;
    }
  in
  let mh = Ace_workloads.Synthetic.workload ~name:"sample-bench-mh" mh_params in
  let mh_res, mh_s =
    time (fun () ->
        Ace_harness.Run.run ~seed:1 ~sample:Ace_sample.Sample.default_config mh
          scheme)
  in
  let instrs = full.Ace_harness.Run.instrs in
  write_json path
    [
      ("full_s", f3 full_s);
      ("sampled_s", f3 sampled_s);
      ("speedup", Printf.sprintf "%.2f" (full_s /. sampled_s));
      ("instrs", string_of_int instrs);
      ("instrs_match", string_of_bool (instrs = sampled.Ace_harness.Run.instrs));
      ("spliced_instrs", string_of_int (spliced sampled));
      ("mh_instrs", string_of_int mh_res.Ace_harness.Run.instrs);
      ("mh_spliced_instrs", string_of_int (spliced mh_res));
      ( "mh_spliced_frac",
        Printf.sprintf "%.4f"
          (float_of_int (spliced mh_res)
          /. float_of_int (max 1 mh_res.Ace_harness.Run.instrs)) );
      ("mh_sampled_s", f3 mh_s);
    ]

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--obs-json"; path ] -> obs_json path
  | [ "--core-json"; path ] -> core_json path
  | [ "--sample-json"; path ] -> sample_json path
  | _ ->
      prerr_endline
        "usage: main.exe (--core-json | --obs-json | --sample-json) FILE";
      exit 2
