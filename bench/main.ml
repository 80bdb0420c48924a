(* Benchmark harness.

   Part 1 (Bechamel): one [Test.make] per paper table/figure — each runs the
   experiment's real code path on a reduced-scale context — plus
   micro-benchmarks of the simulator's hot paths (cache access, engine
   execution).  Reported as ns/run OLS estimates.

   Part 2: regenerates every table and figure at the default reproduction
   scale and prints them (this is the output recorded in EXPERIMENTS.md). *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks of simulator hot paths.                            *)

let bench_cache_access =
  let cache =
    Ace_mem.Cache.create { Ace_mem.Cache.size_bytes = 65536; assoc = 2; line_bytes = 64 }
  in
  let rng = Ace_util.Rng.create ~seed:7 in
  Test.make ~name:"micro: L1 cache access"
    (Staged.stage @@ fun () ->
    ignore (Ace_mem.Cache.access cache (Ace_util.Rng.int rng 1_000_000) ~write:false))

let bench_cache_resize =
  let cache =
    Ace_mem.Cache.create { Ace_mem.Cache.size_bytes = 65536; assoc = 2; line_bytes = 64 }
  in
  let size = ref 65536 in
  Test.make ~name:"micro: L1 cache resize (flush)"
    (Staged.stage @@ fun () ->
    size := (if !size = 65536 then 32768 else 65536);
    ignore (Ace_mem.Cache.resize cache ~size_bytes:!size))

let bench_engine_1m =
  let program =
    Ace_workloads.Synthetic.build
      { Ace_workloads.Synthetic.default with phase_repeats = 1 }
      ~seed:3
  in
  Test.make ~name:"micro: engine run (~1M instrs)"
    (Staged.stage @@ fun () ->
    let engine = Ace_vm.Engine.create program in
    Ace_vm.Engine.run engine)

(* The register-write hot path with and without an active fault injector:
   [Faults.none] must be indistinguishable from the pre-fault-model guard
   (a single option match), and even an active injector only adds a few
   bounded RNG draws. *)
let bench_hw_request faults name =
  let engine = Ace_vm.Engine.create (Ace_workloads.Synthetic.build
      { Ace_workloads.Synthetic.default with phase_repeats = 1 } ~seed:3)
  in
  let cu = Ace_core.Cu.l1d engine in
  let now = ref 0 in
  let setting = ref 0 in
  Test.make ~name
    (Staged.stage @@ fun () ->
    now := !now + 100_000;
    setting := (!setting + 1) land 3;
    ignore (Ace_core.Hw.request ~faults cu ~setting:!setting ~now_instrs:!now))

let bench_hw_request_clean = bench_hw_request Ace_faults.Faults.none
    "micro: Hw.request (no faults)"

let bench_hw_request_faulty =
  bench_hw_request
    (Ace_faults.Faults.create (Ace_faults.Faults.preset ~rate:0.01))
    "micro: Hw.request (1% faults)"

(* Snapshot write/read: the per-checkpoint cost a run pays at every cadence
   boundary, measured on a real mid-run hotspot state.  Writing captures a
   live run restored from the sample and encodes the container; reading
   decodes the container and restores its body into a freshly built run. *)
let checkpoint_sample =
  lazy
    (let path = Filename.temp_file "ace_bench" ".snap" in
     let snap = ref None in
     (match
        Ace_harness.Run.run_checkpointed ~scale:0.1 ~seed:3
          ~on_snapshot:(fun s -> if !snap = None then snap := Some s)
          ~checkpoint_every:2_000_000 ~path
          (Option.get (Ace_workloads.Specjvm.find "compress"))
          Ace_harness.Scheme.Hotspot
      with
     | Ace_harness.Run.Completed _ -> ()
     | Ace_harness.Run.Killed_at _ -> assert false);
     List.iter
       (fun p -> if Sys.file_exists p then Sys.remove p)
       [ path; path ^ ".1" ];
     Option.get !snap)

let checkpoint_live = lazy (Ace_harness.Run.restore (Lazy.force checkpoint_sample))

(* The snapshot a durable, fully observed run writes: mtrt at its default
   length with a [Full] sink, taken at the first checkpoint after the event
   ring filled, so the ring holds all 65,536 events and its image is most of
   the snapshot.  The compress sample above carries no ring at all. *)
let ring_sample =
  lazy
    (let path = Filename.temp_file "ace_bench" ".snap" in
     let obs = Ace_obs.Obs.create Ace_obs.Obs.Full in
     let snap = ref None in
     (match
        Ace_harness.Run.run_checkpointed ~scale:1.0 ~seed:1 ~obs
          ~on_snapshot:(fun s ->
            if !snap = None && Ace_obs.Obs.dropped obs > 0 then snap := Some s)
          ~checkpoint_every:1_000_000 ~path
          (Option.get (Ace_workloads.Specjvm.find "mtrt"))
          Ace_harness.Scheme.Hotspot
      with
     | Ace_harness.Run.Completed _ -> ()
     | Ace_harness.Run.Killed_at _ -> assert false);
     List.iter
       (fun p -> if Sys.file_exists p then Sys.remove p)
       [ path; path ^ ".1" ];
     Option.get !snap)

(* A live run needs a [Full] sink of its own to take the ring back. *)
let ring_read data =
  Ace_harness.Run.restore
    ~obs:(Ace_obs.Obs.create Ace_obs.Obs.Full)
    (Ace_ckpt.Snapshot.decode data)

let snapshot_write () =
  Ace_ckpt.Snapshot.encode (Ace_harness.Run.capture (Lazy.force checkpoint_live))

let snapshot_read data = Ace_harness.Run.restore (Ace_ckpt.Snapshot.decode data)

let bench_snapshot_encode =
  Test.make ~name:"micro: snapshot capture + encode"
    (Staged.stage @@ fun () -> ignore (snapshot_write ()))

let bench_snapshot_decode =
  let data = lazy (Ace_ckpt.Snapshot.encode (Lazy.force checkpoint_sample)) in
  Test.make ~name:"micro: snapshot decode + restore"
    (Staged.stage @@ fun () -> ignore (snapshot_read (Lazy.force data)))

(* Serve wire codec: what one daemon request costs to encode + decode —
   the per-submission protocol tax, paid once per job, off the simulation
   path entirely. *)
let serve_request_sample =
  Ace_serve.Protocol.Submit
    (Ace_serve.Protocol.job_spec ~scale:0.2 ~seed:3 ~fault_rate:0.01
       ~resilient:true ~deadline_s:30.0 ~workload:"compress"
       Ace_harness.Scheme.Hotspot)

let bench_serve_codec =
  Test.make ~name:"micro: serve request codec (encode+decode)"
    (Staged.stage @@ fun () ->
    ignore
      (Ace_serve.Protocol.decode_request
         (Ace_serve.Protocol.encode_request serve_request_sample)))

(* Pool dispatch overhead: what a (workload x variant) job pays to go
   through the queue instead of being called directly — an upper bound on
   the harness's parallelization tax, which real multi-second jobs
   amortize to nothing. *)
let bench_pool_dispatch =
  let pool = Ace_util.Pool.create ~num_domains:1 () in
  let jobs = List.init 64 (fun i -> i) in
  Test.make ~name:"micro: pool dispatch (64 trivial jobs)"
    (Staged.stage @@ fun () -> ignore (Ace_util.Pool.map pool (fun x -> x + 1) jobs))

(* Observability emission cost at each level, written exactly as producers
   are: an ungated counter bump plus gated float/event emissions.  Off must
   price like a branch; Metrics like a couple of stores; Full adds building
   the event, encoding it into the ring's byte log and hashing those bytes
   into the ring's running CRC-32, which allocates only short-lived words.
   The hash is what lets a checkpoint take the ring's CRC without reading
   the ring again. *)
module Obs = Ace_obs.Obs

let obs_emit_sink obs =
  let c = Obs.counter obs "bench.counter" in
  let g = Obs.gauge obs "bench.gauge" in
  let tick = ref 0 in
  Obs.set_clock obs (fun () -> !tick);
  fun () ->
    tick := !tick + 1;
    Obs.incr obs c;
    if Obs.enabled obs then Obs.set_gauge obs g (float_of_int !tick);
    if Obs.tracing obs then
      Obs.record obs (Obs.Phase_enter { id = 1; name = "bench" })

let bench_obs_emit name obs =
  let emit = obs_emit_sink obs in
  Test.make ~name (Staged.stage emit)

let bench_obs_off = bench_obs_emit "micro: obs emit (off)" Obs.null
let bench_obs_metrics = bench_obs_emit "micro: obs emit (metrics)" (Obs.create Obs.Metrics)
let bench_obs_full = bench_obs_emit "micro: obs emit (full)" (Obs.create Obs.Full)

(* CI mode: measure the three levels with a plain wall-clock loop and emit
   a small JSON artifact (BENCH_obs.json), then exit without Bechamel. *)
let obs_json path =
  let iters = 2_000_000 in
  let measure obs =
    let emit = obs_emit_sink obs in
    (* warm-up *)
    for _ = 1 to 10_000 do
      emit ()
    done;
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      emit ()
    done;
    let t1 = Unix.gettimeofday () in
    (t1 -. t0) *. 1e9 /. float_of_int iters
  in
  let off = measure Obs.null in
  let metrics = measure (Obs.create Obs.Metrics) in
  let full = measure (Obs.create Obs.Full) in
  let oc = open_out path in
  Printf.fprintf oc
    "{\"off_ns\": %.3f, \"metrics_ns\": %.3f, \"full_ns\": %.3f, \"iters\": %d}\n"
    off metrics full iters;
  close_out oc;
  Printf.printf "wrote %s (off %.2f ns, metrics %.2f ns, full %.2f ns)\n" path
    off metrics full

(* CI mode: wall-clock + allocation measurements of the simulator's hot
   core (cache access, hierarchy data access, address generation, pool
   dispatch), emitted as BENCH_core.json.  The headline regression guards
   are the [*_minor_words] fields: the engine's per-access path must
   allocate zero minor words per call. *)
let core_json path =
  let addrs = Array.init 65536 (fun _ -> 0) in
  let rng = Ace_util.Rng.create ~seed:7 in
  Array.iteri (fun i _ -> addrs.(i) <- Ace_util.Rng.int rng 1_000_000) addrs;
  let mask = Array.length addrs - 1 in
  (* [f] must close over its subject and allocate nothing itself; addresses
     come from a pre-filled array, and address generation is gated on its
     own below. *)
  let measure_ns_and_words iters f =
    for i = 1 to 65536 do
      f (Array.unsafe_get addrs (i land mask))
    done;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for i = 1 to iters do
      f (Array.unsafe_get addrs (i land mask))
    done;
    let t1 = Unix.gettimeofday () in
    let w1 = Gc.minor_words () in
    ( (t1 -. t0) *. 1e9 /. float_of_int iters,
      (w1 -. w0) /. float_of_int iters )
  in
  let iters = 5_000_000 in
  let cache =
    Ace_mem.Cache.create { Ace_mem.Cache.size_bytes = 65536; assoc = 2; line_bytes = 64 }
  in
  let cache_ns, cache_words =
    measure_ns_and_words iters (fun addr ->
        ignore (Ace_mem.Cache.access cache addr ~write:false))
  in
  let hier = Ace_mem.Hierarchy.create () in
  let data_ns, data_words =
    measure_ns_and_words iters (fun addr ->
        ignore (Ace_mem.Hierarchy.data_access hier ~addr ~write:false))
  in
  (* Batched hierarchy access: the engine's inner-loop path since the
     batched exec_block rewrite.  Gated per access like the scalar path —
     both the ns and the minor-words reading are divided by the batch
     element count, and the words gate must stay at 0.0 (the scratch
     arrays are preallocated; steady state allocates nothing). *)
  let batch_hier = Ace_mem.Hierarchy.create () in
  let batch_n = 4096 in
  let batch_addrs = Array.init batch_n (fun i -> addrs.(i land mask)) in
  let batch_iters = 2_000 in
  for _ = 1 to 50 do
    ignore
      (Ace_mem.Hierarchy.data_access_batch batch_hier ~addrs:batch_addrs
         ~n:batch_n ~loads:3 ~stores:1)
  done;
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to batch_iters do
    ignore
      (Ace_mem.Hierarchy.data_access_batch batch_hier ~addrs:batch_addrs
         ~n:batch_n ~loads:3 ~stores:1)
  done;
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  let batch_accesses = float_of_int (batch_iters * batch_n) in
  let data_batch_ns = (t1 -. t0) *. 1e9 /. batch_accesses in
  let data_batch_words = (w1 -. w0) /. batch_accesses in
  (* Address generation, the other half of the engine's per-chunk work:
     [Pattern.next_batch] over a [Random_in] cursor, the pattern behind
     most simulated data accesses, draws one RNG value per address.  Timed
     and gated per address like the access paths: it must allocate
     nothing. *)
  let address_batch_ns, address_batch_words =
    let cursor =
      Ace_isa.Pattern.cursor
        (Ace_isa.Pattern.Random_in { base = 0; extent = 1_000_000 })
    in
    let fill () =
      Ace_isa.Pattern.next_batch cursor ~rng batch_addrs ~pos:0 ~n:batch_n
    in
    for _ = 1 to 50 do
      fill ()
    done;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch_iters do
      fill ()
    done;
    let t1 = Unix.gettimeofday () in
    ( (t1 -. t0) *. 1e9 /. batch_accesses,
      (Gc.minor_words () -. w0) /. batch_accesses )
  in
  (* The L1D pass alone, where it is hit-bound: [Cache.access_batch] on the
     64 KB 2-way L1D over a random 48 KB footprint, so every access hits
     and which way holds the line is unpredictable.  The batches cycle
     through 64 different address arrays: a single replayed batch lets the
     host's branch predictor learn its way pattern.  [data_access_batch_ns]
     streams over 1 MB and mostly times misses. *)
  let l1d_batch_hit_ns =
    let l1d =
      Ace_mem.Cache.create
        { Ace_mem.Cache.size_bytes = 65536; assoc = 2; line_bytes = 64 }
    in
    let footprint = 48 * 1024 in
    let pool =
      Array.init 64 (fun _ ->
          Array.init batch_n (fun _ -> Ace_util.Rng.int rng footprint))
    in
    let miss_addrs = Array.make batch_n 0 and miss_victims = Array.make batch_n 0 in
    let pass i =
      ignore
        (Ace_mem.Cache.access_batch l1d (Array.unsafe_get pool (i land 63))
           ~n:batch_n ~loads:3 ~stores:1 ~miss_addrs ~miss_victims)
    in
    for i = 1 to 64 do
      pass i
    done;
    let t0 = Unix.gettimeofday () in
    for i = 1 to batch_iters do
      pass i
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. batch_accesses
  in
  let pool = Ace_util.Pool.create ~num_domains:1 () in
  let jobs = List.init 64 (fun i -> i) in
  let batches = 2_000 in
  (for _ = 1 to 100 do
     ignore (Ace_util.Pool.map pool (fun x -> x + 1) jobs)
   done);
  let t0 = Unix.gettimeofday () in
  for _ = 1 to batches do
    ignore (Ace_util.Pool.map pool (fun x -> x + 1) jobs)
  done;
  let t1 = Unix.gettimeofday () in
  Ace_util.Pool.shutdown pool;
  let pool_ns = (t1 -. t0) *. 1e9 /. float_of_int (batches * List.length jobs) in
  (* Serve request codec: guards the daemon's per-submission overhead (and
     that accepting jobs stays off the simulation hot path — it shares no
     state with the engine loop measured above). *)
  let codec_iters = 200_000 in
  (for _ = 1 to 10_000 do
     ignore
       (Ace_serve.Protocol.decode_request
          (Ace_serve.Protocol.encode_request serve_request_sample))
   done);
  let t0 = Unix.gettimeofday () in
  for _ = 1 to codec_iters do
    ignore
      (Ace_serve.Protocol.decode_request
         (Ace_serve.Protocol.encode_request serve_request_sample))
  done;
  let t1 = Unix.gettimeofday () in
  let serve_codec_ns = (t1 -. t0) *. 1e9 /. float_of_int codec_iters in
  (* Snapshot write and read: the per-checkpoint serialization tax every
     durable run pays at each cadence boundary (capture of a live mid-run
     state plus the container), and what a resume pays (decode plus restore
     into a freshly built run).  Gated in CI at 2x the committed figures. *)
  let snap_data = Ace_ckpt.Snapshot.encode (Lazy.force checkpoint_sample) in
  let snap_iters = 500 in
  let time_loop iters f =
    for _ = 1 to 20 do
      f ()
    done;
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
  in
  let snapshot_encode_ns = time_loop snap_iters (fun () -> ignore (snapshot_write ())) in
  let snapshot_decode_ns =
    time_loop snap_iters (fun () -> ignore (snapshot_read snap_data))
  in
  (* The same two costs on a ring-full durable snapshot, where the event
     ring's image is nearly all of the bytes: capturing copies the ring's
     encoded log, and reading decodes and re-records every event. *)
  let ring_data = Ace_ckpt.Snapshot.encode (Lazy.force ring_sample) in
  let ring_live = ring_read ring_data in
  let ring_iters = 100 in
  let snapshot_ring_encode_ns =
    time_loop ring_iters (fun () ->
        ignore (Ace_ckpt.Snapshot.encode (Ace_harness.Run.capture ring_live)))
  in
  let snapshot_ring_decode_ns =
    time_loop ring_iters (fun () -> ignore (ring_read ring_data))
  in
  (* The passthrough Io backend is a record of closures built once at
     module init: a call through it must allocate nothing beyond the
     syscall wrapper itself.  [exists] bottoms out in a C stub, so any
     nonzero reading here means the dispatch layer started boxing. *)
  let io_passthrough_minor_words =
    let probe = Filename.concat (Filename.get_temp_dir_name ()) "ace_bench_absent" in
    let io_iters = 1_000_000 in
    for _ = 1 to 10_000 do
      ignore (Ace_util.Io.exists Ace_util.Io.real probe)
    done;
    let w0 = Gc.minor_words () in
    for _ = 1 to io_iters do
      ignore (Ace_util.Io.exists Ace_util.Io.real probe)
    done;
    (Gc.minor_words () -. w0) /. float_of_int io_iters
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\"cache_access_ns\": %.3f, \"cache_access_minor_words\": %.6f, \
     \"data_access_ns\": %.3f, \"data_access_minor_words\": %.6f, \
     \"data_access_batch_ns\": %.3f, \"data_access_batch_minor_words\": %.6f, \
     \"address_batch_ns\": %.3f, \"address_batch_minor_words\": %.6f, \
     \"l1d_batch_hit_ns\": %.3f, \
     \"pool_dispatch_ns_per_job\": %.1f, \"serve_codec_ns\": %.1f, \
     \"snapshot_encode_ns\": %.1f, \"snapshot_decode_ns\": %.1f, \
     \"snapshot_ring_encode_ns\": %.1f, \"snapshot_ring_decode_ns\": %.1f, \
     \"io_passthrough_minor_words\": %.6f, \
     \"iters\": %d}\n"
    cache_ns cache_words data_ns data_words data_batch_ns data_batch_words
    address_batch_ns address_batch_words l1d_batch_hit_ns pool_ns serve_codec_ns
    snapshot_encode_ns snapshot_decode_ns snapshot_ring_encode_ns
    snapshot_ring_decode_ns io_passthrough_minor_words iters;
  close_out oc;
  Printf.printf
    "wrote %s (cache access %.2f ns / %.4f minor words, data access %.2f ns, \
     batched %.2f ns / %.4f minor words, address batch %.2f ns / %.4f minor \
     words, L1D batch hits %.2f ns, pool dispatch %.0f ns/job, serve codec \
     %.0f ns/req, snapshot encode %.0f ns / decode %.0f ns, ring-full \
     snapshot encode %.0f ns / decode %.0f ns, io passthrough %.4f minor \
     words)\n"
    path cache_ns cache_words data_ns data_batch_ns data_batch_words
    address_batch_ns address_batch_words l1d_batch_hit_ns pool_ns
    serve_codec_ns snapshot_encode_ns snapshot_decode_ns
    snapshot_ring_encode_ns snapshot_ring_decode_ns io_passthrough_minor_words

(* CI mode: wall-clock of a full vs sampled run on a long synthetic
   workload (the fast-forward win scales with phase repetition), emitted
   as BENCH_sample.json.  CI gates the speedup at >= 10x and requires the
   sampled run's architectural instruction count to equal the full
   run's exactly. *)
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
  let speedup = full_s /. sampled_s in
  let spliced =
    match sampled.Ace_harness.Run.sample with
    | Some s -> s.Ace_sample.Sample.spliced_instrs
    | None -> 0
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
  let mh_spliced =
    match mh_res.Ace_harness.Run.sample with
    | Some s -> s.Ace_sample.Sample.spliced_instrs
    | None -> 0
  in
  let mh_frac =
    float_of_int mh_spliced /. float_of_int (max 1 mh_res.Ace_harness.Run.instrs)
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\"full_s\": %.3f, \"sampled_s\": %.3f, \"speedup\": %.2f, \
     \"instrs\": %d, \"instrs_match\": %b, \"spliced_instrs\": %d, \
     \"mh_instrs\": %d, \"mh_spliced_instrs\": %d, \"mh_spliced_frac\": %.4f, \
     \"mh_sampled_s\": %.3f}\n"
    full_s sampled_s speedup full.Ace_harness.Run.instrs
    (full.Ace_harness.Run.instrs = sampled.Ace_harness.Run.instrs)
    spliced mh_res.Ace_harness.Run.instrs mh_spliced mh_frac mh_s;
  close_out oc;
  Printf.printf
    "wrote %s (full %.2fs, sampled %.2fs, speedup %.1fx, %d of %d instrs \
     spliced; many-hotspot %.1f%% spliced in %.2fs)\n"
    path full_s sampled_s speedup spliced sampled.Ace_harness.Run.instrs
    (100.0 *. mh_frac) mh_s

(* ------------------------------------------------------------------ *)
(* One Test.make per table/figure: the experiment's real code path on a
   reduced-scale context (fresh context per run so memoization does not
   short-circuit the measurement).                                     *)

let bench_scale = 0.05

let mini_workloads =
  [ Ace_workloads.Compress.workload; Ace_workloads.Mtrt.workload ]

let experiment_test name f =
  Test.make ~name:("exp: " ^ name)
    (Staged.stage @@ fun () ->
    let ctx =
      Ace_harness.Experiments.create ~scale:bench_scale ~workloads:mini_workloads ()
    in
    ignore (f ctx))

let experiment_tests =
  [
    experiment_test "table1" Ace_harness.Experiments.table1;
    experiment_test "table2" (fun _ -> Ace_harness.Experiments.table2 ());
    experiment_test "table3" (fun _ -> Ace_harness.Experiments.table3 ());
    experiment_test "fig1" Ace_harness.Experiments.fig1;
    experiment_test "table4" Ace_harness.Experiments.table4;
    experiment_test "table5" Ace_harness.Experiments.table5;
    experiment_test "table6" Ace_harness.Experiments.table6;
    experiment_test "fig3" Ace_harness.Experiments.fig3;
    experiment_test "fig4" Ace_harness.Experiments.fig4;
    experiment_test "ablation-decoupling" Ace_harness.Experiments.ablation_decoupling;
    experiment_test "ablation-thresholds" Ace_harness.Experiments.ablation_thresholds;
    experiment_test "ext-issue-queue" Ace_harness.Experiments.extension_issue_queue;
    experiment_test "ext-prediction" Ace_harness.Experiments.extension_prediction;
    experiment_test "ext-bbv-predictor" Ace_harness.Experiments.extension_bbv_predictor;
    experiment_test "resilience" Ace_harness.Experiments.resilience;
    experiment_test "stability" Ace_harness.Experiments.stability;
  ]

let run_bechamel () =
  let tests =
    Test.make_grouped ~name:"ace"
      ([
         bench_cache_access; bench_cache_resize; bench_engine_1m;
         bench_hw_request_clean; bench_hw_request_faulty;
         bench_snapshot_encode; bench_snapshot_decode;
         bench_serve_codec; bench_pool_dispatch;
         bench_obs_off; bench_obs_metrics; bench_obs_full;
       ]
      @ experiment_tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  print_endline "Bechamel estimates (monotonic clock, ns/run):";
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let cell =
        match Analyze.OLS.estimates ols_result with
        | Some [ est ] -> Printf.sprintf "%12.0f ns/run" est
        | Some ests ->
            String.concat ", " (List.map (Printf.sprintf "%.0f") ests)
        | None -> "(no estimate)"
      in
      rows := (name, cell) :: !rows)
    results;
  List.iter
    (fun (name, cell) -> Printf.printf "  %-36s %s\n" name cell)
    (List.sort compare !rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Full-scale reproduction of every table and figure.                  *)

let run_reproduction () =
  print_endline "==============================================================";
  print_endline " Full reproduction (scale 1.0, seed 1) - paper tables/figures";
  print_endline "==============================================================";
  let ctx = Ace_harness.Experiments.create ~scale:1.0 ~seed:1 () in
  List.iter
    (fun (name, tbl) ->
      Printf.printf "== %s ==\n" name;
      Ace_util.Table.print tbl;
      print_newline ())
    (Ace_harness.Experiments.all ctx)

let () =
  let rec find_flag name i =
    if i >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name && i + 1 < Array.length Sys.argv then
      Some Sys.argv.(i + 1)
    else find_flag name (i + 1)
  in
  match
    ( find_flag "--obs-json" 1,
      find_flag "--core-json" 1,
      find_flag "--sample-json" 1 )
  with
  | Some path, _, _ -> obs_json path
  | None, Some path, _ -> core_json path
  | None, None, Some path -> sample_json path
  | None, None, None ->
      let quick = Array.exists (fun a -> a = "--quick") Sys.argv in
      run_bechamel ();
      if not quick then run_reproduction ()
