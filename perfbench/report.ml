(* Metrics by name and unit, the Amdahl table, and the printed report. *)

open Suite

let v = Metric.v

let end_to_end r =
  [
    v "wall_s" "s" r.wall_s;
    v "sim_minstr_per_s" "Minstr/s" (float_of_int r.instrs /. r.wall_s /. 1e6);
    v "setup_s" "s" r.setup_s;
    v "peak_rss_mb" "MB" r.peak_rss_mb;
    v "minor_words_per_kinstr" "words/kinstr" r.minor_words_per_kinstr;
  ]

(* Figures that fit only some workloads; 0 where they do not apply.  Printed
   on every run and reported as per-layer metrics, since an end-to-end
   metric must never read 0. *)
let workload_specific r =
  [
    v "sample_energy_err_pct" "%" r.sample_energy_err_pct;
    v "sample_cycles_err_pct" "%" r.sample_cycles_err_pct;
    v "recovery_s" "s" r.recovery_s;
  ]

let counts f r =
  r.per_pass (fun tr ->
      match tr.counts with Some c -> float_of_int (f c) | None -> 0.0)

let sample_stat f r =
  r.per_pass (fun tr ->
      match tr.sample with Some s -> float_of_int (f s) | None -> 0.0)

let per_layer r =
  let pp = r.per_pass and instrs = float_of_int r.instrs in
  let self_s = pp (fun tr -> tr.engine) in
  let spliced = sample_stat (fun s -> s.Ace_sample.Sample.spliced_instrs) r in
  let l1d = counts (fun c -> c.Ace_mem.Hierarchy.c_l1d_accesses) r in
  let l2 = counts (fun c -> c.Ace_mem.Hierarchy.c_l2_accesses) r in
  let miss_rate hits accesses = 1.0 -. Metric.ratio (counts hits r) accesses in
  let core_s = pp (fun tr -> tr.core) and core_calls = pp (fun tr -> float_of_int tr.core_calls) in
  let writes = pp (fun tr -> float_of_int tr.writes) in
  let reads = pp (fun tr -> if tr.read > 0.0 then 1.0 else 0.0) in
  let encodes = pp (fun tr -> if tr.encode > 0.0 then 1.0 else 0.0) in
  [
    v "engine.self_s" "s" self_s;
    v "engine.ns_per_instr" "ns" (Metric.ratio (self_s *. 1e9) instrs);
    v "engine.ns_per_sim_access" "ns"
      (Metric.ratio (self_s *. 1e9) (l1d *. (1.0 -. Metric.ratio spliced instrs)));
    v "engine.method_entries" "count" (pp (fun tr -> float_of_int tr.entries));
    v "engine.block_batches" "count" (pp (fun tr -> float_of_int tr.blocks));
    v "mem.l1d_accesses" "count" l1d;
    v "mem.l1d_miss_rate" "ratio" (miss_rate (fun c -> c.Ace_mem.Hierarchy.c_l1d_hits) l1d);
    v "mem.l2_accesses" "count" l2;
    v "mem.l2_miss_rate" "ratio" (miss_rate (fun c -> c.Ace_mem.Hierarchy.c_l2_hits) l2);
    v "mem.tlb_misses" "count" (counts (fun c -> c.Ace_mem.Hierarchy.c_tlb_misses) r);
    v "mem.mem_reads" "count" (counts (fun c -> c.Ace_mem.Hierarchy.c_mem_reads) r);
    v "core.hook_s" "s" core_s;
    v "core.hook_calls" "count" core_calls;
    v "core.ns_per_hook" "ns" (Metric.ratio (core_s *. 1e9) core_calls);
    v "core.trials" "count" (pp (fun tr -> float_of_int tr.core_trials));
    v "core.reconfigs" "count" (pp (fun tr -> float_of_int tr.core_reconfigs));
    v "bbv.hook_s" "s" (pp (fun tr -> tr.bbv));
    v "bbv.hook_calls" "count" (pp (fun tr -> float_of_int tr.bbv_calls));
    v "bbv.phases" "count" (pp (fun tr -> float_of_int tr.phases));
    v "bbv.tunings" "count" (pp (fun tr -> float_of_int tr.bbv_tunings));
    v "sample.guard_s" "s" (pp (fun tr -> tr.guard));
    v "sample.guard_calls" "count" (pp (fun tr -> float_of_int tr.guard_calls));
    v "sample.spliced_frac" "ratio" (Metric.ratio spliced instrs);
    v "sample.splices" "count" (sample_stat (fun s -> s.Ace_sample.Sample.splices) r);
    v "sample.observations" "count"
      (sample_stat (fun s -> s.Ace_sample.Sample.observations) r);
    v "sample.blocked_quiescence" "count"
      (sample_stat (fun s -> s.Ace_sample.Sample.blocked_quiescence) r);
    v "sample.blocked_unsettled" "count"
      (sample_stat (fun s -> s.Ace_sample.Sample.blocked_unsettled) r);
    v "sample.blocked_open_obs" "count"
      (sample_stat (fun s -> s.Ace_sample.Sample.blocked_open_obs) r);
    v "ckpt.write_s" "s" (pp (fun tr -> tr.write));
    v "ckpt.writes" "count" writes;
    v "ckpt.snapshot_bytes" "B"
      (Metric.ratio (pp (fun tr -> float_of_int tr.snapshot_bytes)) writes);
    v "ckpt.encode_ms" "ms" (Metric.ratio (pp (fun tr -> tr.encode) *. 1e3) encodes);
    v "ckpt.read_ms" "ms" (Metric.ratio (pp (fun tr -> tr.read) *. 1e3) reads);
    v "obs.events" "count" (pp (fun tr -> float_of_int tr.events));
    v "obs.dropped" "count" (pp (fun tr -> float_of_int tr.dropped));
    v "obs.export_s" "s" (pp (fun tr -> tr.export));
    v "obs.trace_bytes" "B" (pp (fun tr -> float_of_int tr.trace_bytes));
    v "trace.overhead_pct" "%"
      (Metric.overhead_pct ~traced:r.traced_wall_s ~untraced:r.wall_s);
  ]
  @ workload_specific r

(* Each layer's share of the traced wall time, per traced pass, and what the
   timers around the layer calls do not cover. *)
let amdahl r =
  let pp = r.per_pass in
  let rows =
    match r.kind with
    | Full | Sampled ->
        [
          ("set-up: Workload.build, Engine.create, attach", pp (fun tr -> tr.setup));
          ("engine self: ace_vm + isa, mem, cpu, sampler", pp (fun tr -> tr.engine));
          ("ace_core hooks", pp (fun tr -> tr.core));
          ("ace_bbv hooks", pp (fun tr -> tr.bbv));
          ("ace_sample allow guard", pp (fun tr -> tr.guard));
          ("finalize and outputs", pp (fun tr -> tr.finish));
        ]
    | Durable ->
        [
          ("run + resume less writes: engine, capture, set-up", pp (fun tr -> tr.engine));
          ("ace_ckpt write: encode, tmp, fsync, rename", pp (fun tr -> tr.write));
          ("ace_ckpt read: read_with_fallback", pp (fun tr -> tr.read));
          ("ace_obs export: chrome + metrics_csv", pp (fun tr -> tr.export));
        ]
  in
  let wall = pp (fun tr -> tr.wall) in
  (rows @ [ ("unattributed", wall -. Metric.sum (List.map snd rows)) ], wall)

(* One line per item from the traced passes: what the workload's profile is
   made of (spliced share for sampled runs, snapshot size for durable ones). *)
let print_items r =
  Printf.printf "per item (traced, mean per pass):\n";
  Array.iteri
    (fun i name ->
      let f = r.per_item i in
      let instrs = float_of_int r.item_instrs.(i) in
      let extra =
        match r.kind with
        | Full -> ""
        | Sampled ->
            Printf.sprintf "  spliced %5.1f %%"
              (100.0
              *. Metric.ratio
                   (f (fun tr ->
                        match tr.sample with
                        | Some s -> float_of_int s.Ace_sample.Sample.spliced_instrs
                        | None -> 0.0))
                   instrs)
        | Durable ->
            let writes = f (fun tr -> float_of_int tr.writes) in
            Printf.sprintf "  %3.0f snapshots of %.2f MB, write %.1f ms each, %.0f events"
              writes
              (Metric.ratio (f (fun tr -> float_of_int tr.snapshot_bytes)) writes /. 1e6)
              (Metric.ratio (f (fun tr -> tr.write) *. 1e3) writes)
              (f (fun tr -> float_of_int tr.events))
      in
      Printf.printf "  %-16s %8.1f M instrs %8.4f s%s\n" name (instrs /. 1e6)
        (f (fun tr -> tr.wall))
        extra)
    r.names

let print_metrics title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-28s %16.6g %s\n" m.Metric.name m.Metric.value m.Metric.unit_)
    metrics

let print ~name ~seed ~trace r =
  Printf.printf
    "perfbench %s: seed %d, scale %g, %d items, %d passes%s, %d simulated instrs per pass\n"
    name seed r.scale r.n_items r.passes
    (if trace then Printf.sprintf " + %d traced" r.traced_passes else "")
    r.instrs;
  Printf.printf "reference: %s\n"
    (match r.golden with
    | `Checked -> "full simulation, checked against the committed digests"
    | `Not_covered -> "full simulation (no committed digests for this seed and scale)");
  Printf.printf "host: %.3fx slower than the yardstick's reference; raw wall %.4f s\n"
    r.host_slowdown r.raw_wall_s;
  print_metrics "end to end (untraced, at the yardstick's reference speed):"
    (end_to_end r);
  print_metrics "workload-specific:"
    (v "error_rate" "ratio" (Metric.error_rate ~failed:r.failed ~attempted:r.attempted)
    :: workload_specific r);
  List.iteri (fun i f -> if i < 10 then Printf.printf "  FAILED %s\n" f) r.failures;
  if trace then begin
    print_metrics "per layer (traced):" (per_layer r);
    print_items r;
    let rows, wall = amdahl r in
    Printf.printf "amdahl (traced wall %.3f s per pass):\n" wall;
    List.iter
      (fun (layer, s) ->
        Printf.printf "  %-52s %9.4f s %6.2f %%\n" layer s (100.0 *. Metric.ratio s wall))
      rows
  end
