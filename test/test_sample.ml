(* Phase-memoized fast-forward sampling (ace_sample): detector config, the
   O(1) skip primitives fast-forward relies on, architectural exactness of
   sampled runs vs full simulation, and sampler snapshot round-trips. *)
module Sample = Ace_sample.Sample
module Engine = Ace_vm.Engine
module Db = Ace_vm.Do_database
module Run = Ace_harness.Run
module Scheme = Ace_harness.Scheme
module Snapshot = Ace_ckpt.Snapshot
module Rng = Ace_util.Rng
module Pattern = Ace_isa.Pattern
module Synthetic = Ace_workloads.Synthetic

let test_config_validation () =
  let ok c = Sample.validate_config c = Ok () in
  Alcotest.(check bool) "default valid" true (ok Sample.default_config);
  List.iter
    (fun (what, c) -> Alcotest.(check bool) (what ^ " rejected") false (ok c))
    [
      ("negative warmup", { Sample.default_config with warmup = -1 });
      ("zero repeats", { Sample.default_config with repeats = 0 });
      ("negative bound", { Sample.default_config with cov_bound = -0.01 });
      ("nan bound", { Sample.default_config with cov_bound = Float.nan });
    ]

(* -- skip primitives ----------------------------------------------- *)

let test_rng_skip_equiv () =
  List.iter
    (fun n ->
      let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
      for _ = 1 to n do
        ignore (Rng.bits64 a)
      done;
      Rng.skip b n;
      Alcotest.(check int64)
        (Printf.sprintf "stream equal after %d draws" n)
        (Rng.bits64 a) (Rng.bits64 b))
    [ 0; 1; 7; 1000; 123_456 ]

let test_pattern_skip_equiv () =
  List.iter
    (fun p ->
      List.iter
        (fun n ->
          let ca = Pattern.cursor p and cb = Pattern.cursor p in
          let ra = Rng.create ~seed:9 and rb = Rng.create ~seed:9 in
          for _ = 1 to n do
            ignore (Pattern.next ca ~rng:ra)
          done;
          Pattern.skip cb ~rng:rb n;
          Alcotest.(check int)
            (Printf.sprintf "address after %d steps" n)
            (Pattern.next ca ~rng:ra) (Pattern.next cb ~rng:rb))
        [ 0; 1; 13; 997 ])
    [
      Pattern.Sequential { base = 0; extent = 8192; stride = 64 };
      Pattern.Random_in { base = 4096; extent = 32768 };
      Pattern.Pointer_chase { base = 0; extent = 16384 };
    ]

(* -- architectural exactness --------------------------------------- *)

let small ?(n_phases = 2) ?(phase_repeats = 30) ?(seed = 5) () =
  Synthetic.build
    {
      Synthetic.default with
      n_phases;
      phase_repeats;
      l1_methods_per_phase = 2;
      l1_target_size = 20_000;
      leaves_per_phase = 4;
      leaf_instrs = 600;
      working_set_kb = 16;
    }
    ~seed

let run_full program =
  let e = Engine.create program in
  Engine.run e;
  e

let run_sampled ?(config = Sample.default_config) program =
  let e = Engine.create program in
  let sam = Sample.attach ~config ~allow:(fun ~meth_id:_ -> Sample.Allow) e in
  Engine.run e;
  (e, sam)

(* Every DO-database field the fast-forward path must advance exactly;
   [samples] (cycle-timer driven) and [ipc_profile] are the documented
   approximations and stay out. *)
let db_arch_fingerprint e =
  let acc = ref [] in
  Db.iter (Engine.db e) (fun en ->
      acc :=
        ( en.Db.meth_id,
          en.Db.invocations,
          en.Db.compile_state,
          en.Db.is_hotspot,
          en.Db.promoted_at_instr,
          en.Db.pre_promotion_instrs )
        :: !acc);
  List.rev !acc

(* The RNG state and pattern cursors, cut from the engine's checkpoint
   bytes.  At run end the frame stack is empty, so they follow the ten
   scalar fields and the stack's zero length at a fixed offset: the RNG's
   8 bytes, then the cursor count and two ints per cursor. *)
let rng_and_cursors e =
  let b = Ace_util.Codec.save (fun io -> Engine.sync io e) in
  if String.get_int64_le b 80 <> 0L then Alcotest.fail "frame stack not empty";
  let n = Int64.to_int (String.get_int64_le b 96) in
  String.sub b 88 (16 + (16 * n))

let arch_equal full sampled =
  Engine.instrs full = Engine.instrs sampled
  && Engine.overhead_instrs full = Engine.overhead_instrs sampled
  && rng_and_cursors full = rng_and_cursors sampled
  && db_arch_fingerprint full = db_arch_fingerprint sampled

let test_sampled_arch_exact () =
  let p = small () in
  let full = run_full p in
  let sampled, sam = run_sampled p in
  let st = Sample.stats sam in
  Alcotest.(check bool)
    "fast-forward engaged" true
    (st.Sample.splices > 0 && st.Sample.spliced_instrs > 0);
  Alcotest.(check bool) "known phases cached" true (st.Sample.known_phases > 0);
  Alcotest.(check bool) "architectural state identical" true
    (arch_equal full sampled)

let test_sampled_timing_close () =
  let p = small ~phase_repeats:60 () in
  let full = run_full p in
  let sampled, _ = run_sampled p in
  let rel =
    Float.abs (Engine.cycles sampled -. Engine.cycles full)
    /. Engine.cycles full
  in
  Alcotest.(check bool)
    (Printf.sprintf "cycle delta %.4f within 2%%" rel)
    true (rel < 0.02)

let prop_sampled_arch_exact =
  QCheck.Test.make ~count:8
    ~name:"sampled arch state = full arch state (synthetic workloads)"
    QCheck.(triple (int_range 1 3) (int_range 20 50) (int_range 1 1000))
    (fun (n_phases, phase_repeats, seed) ->
      let p = small ~n_phases ~phase_repeats ~seed () in
      let full = run_full p in
      let sampled, _ = run_sampled p in
      arch_equal full sampled)

(* -- blocked-candidate breakdown ------------------------------------ *)

let test_blocked_counters_hotspot_scheme () =
  (* Setup methods strand their tuners mid-campaign; the scoped guard
     still splices everything else, and the rejected candidates show up in
     the blocked breakdown instead of silently vanishing. *)
  let wl =
    Synthetic.workload
      {
        Synthetic.default with
        n_phases = 2;
        phase_repeats = 30;
        l1_methods_per_phase = 2;
        l1_target_size = 20_000;
        leaves_per_phase = 4;
        leaf_instrs = 600;
        working_set_kb = 16;
        setup_calls = 3;
      }
  in
  let r = Run.run ~seed:5 ~sample:Sample.default_config wl Scheme.Hotspot in
  let s = Option.get r.Run.sample in
  Alcotest.(check bool) "splices engaged" true (s.Sample.splices > 0);
  Alcotest.(check bool) "unsettled rejections counted" true
    (s.Sample.blocked_unsettled > 0);
  Alcotest.(check bool) "quiescence rejections counted" true
    (s.Sample.blocked_quiescence > 0)

(* -- cluster-keyed memoization -------------------------------------- *)

let run_sampled_clustered ?(config = Sample.default_config) ~classify program =
  let e = Engine.create program in
  let sam =
    Sample.attach ~config ~classify
      ~allow:(fun ~meth_id:_ -> Sample.Allow)
      e
  in
  Engine.run e;
  (e, sam)

let test_cluster_keyed_arch_exact () =
  let p = small () in
  let full = run_full p in
  (* A drifting classifier exercises both cluster-shared records and the
     reassignment-invalidation path; architectural state must stay exact
     no matter what the classifier returns. *)
  let calls = ref 0 in
  let classify () =
    incr calls;
    Some (!calls / 400 mod 3)
  in
  let sampled, sam = run_sampled_clustered ~classify p in
  Alcotest.(check bool) "architectural state identical" true
    (arch_equal full sampled);
  let st = Sample.stats sam in
  Alcotest.(check bool) "observations happened" true
    (st.Sample.observations > 0)

let test_cluster_reassignment_invalidates () =
  let p = small () in
  (* Monotone cluster ids: once the classifier moves on, any record of an
     earlier cluster must be dropped at the next reassignment detection,
     so at run end only the last clusters can remain. *)
  let calls = ref 0 in
  let classify () =
    incr calls;
    Some (!calls / 2000)
  in
  let _, sam = run_sampled_clustered ~classify p in
  let final = !calls / 2000 in
  List.iter
    (function
      | Sample.K_cluster c ->
          if c < final - 1 then
            Alcotest.failf "stale cluster %d survived (final %d)" c final
      | Sample.K_meth _ -> ())
    (Sample.record_keys sam)

let test_bbv_cluster_sampled_consistent () =
  (* End to end through the harness: the BBV scheme wires its phase
     tracker in as the sampler's classifier.  The sampled run must agree
     architecturally with the unsampled one. *)
  let wl =
    Synthetic.workload
      {
        Synthetic.default with
        n_phases = 2;
        phase_repeats = 40;
        l1_methods_per_phase = 2;
        l1_target_size = 20_000;
        leaves_per_phase = 4;
        leaf_instrs = 600;
        working_set_kb = 16;
      }
  in
  let full = Run.run ~seed:2 wl Scheme.Bbv in
  let sampled = Run.run ~seed:2 ~sample:Sample.default_config wl Scheme.Bbv in
  Alcotest.(check int) "instruction count exact" full.Run.instrs
    sampled.Run.instrs;
  let rel =
    Float.abs (sampled.Run.cycles -. full.Run.cycles) /. full.Run.cycles
  in
  Alcotest.(check bool)
    (Printf.sprintf "cycle delta %.4f within 5%%" rel)
    true (rel < 0.05);
  Alcotest.(check bool) "sample stats present" true
    (sampled.Run.sample <> None)

(* -- capture / restore and snapshot round-trip ---------------------- *)

let image sam = Ace_util.Codec.save (fun io -> Sample.sync io sam)

(* Read a sampler's image into a freshly attached one, which must write it
   back unchanged. *)
let check_roundtrip p sam =
  let st = image sam in
  let fresh =
    Sample.attach ~config:Sample.default_config
      ~allow:(fun ~meth_id:_ -> Sample.Allow)
      (Engine.create p)
  in
  Ace_util.Codec.load st (fun io -> Sample.sync io fresh);
  Alcotest.(check string) "capture (restore s) = s" st (image fresh)

let test_capture_restore_roundtrip () =
  let p = small () in
  let _, sam = run_sampled p in
  Alcotest.(check bool) "cache non-empty" true (Sample.record_keys sam <> []);
  check_roundtrip p sam

let test_cluster_capture_restore_roundtrip () =
  let p = small () in
  let calls = ref 0 in
  let classify () =
    incr calls;
    Some (!calls / 500)
  in
  let _, sam = run_sampled_clustered ~classify p in
  (* A cluster record implies a header-to-cluster binding, and a splice off
     a cluster record implies a learned invocation length: both maps are
     in the image. *)
  Alcotest.(check bool) "cluster state captured" true
    (List.exists
       (function Sample.K_cluster _ -> true | Sample.K_meth _ -> false)
       (Sample.record_keys sam)
    && (Sample.stats sam).Sample.splices > 0);
  check_roundtrip p sam

let test_sampled_snapshot_roundtrip () =
  let path = Filename.temp_file "ace_sample" ".snap" in
  let snaps = ref [] in
  (match
     Run.run_checkpointed ~scale:0.2 ~seed:3 ~sample:Sample.default_config
       ~on_snapshot:(fun s -> snaps := s :: !snaps)
       ~checkpoint_every:2_000_000 ~path
       (Option.get (Ace_workloads.Specjvm.find "compress"))
       Scheme.Hotspot
   with
  | Run.Completed _ -> ()
  | Run.Killed_at _ -> assert false);
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".1" ];
  Alcotest.(check bool) "run produced checkpoints" true (!snaps <> []);
  List.iter
    (fun s ->
      Alcotest.(check bool) "meta records the sampling config" true
        (s.Snapshot.meta.Snapshot.sample <> None);
      if Stdlib.compare (Snapshot.decode (Snapshot.encode s)) s <> 0 then
        Alcotest.fail "decode (encode s) <> s for a sampled snapshot";
      if Stdlib.compare (Run.capture (Run.restore s)) s <> 0 then
        Alcotest.fail "capture (restore s) <> s for a sampled snapshot")
    !snaps;
  Alcotest.(check bool) "a checkpoint carries a populated phase cache" true
    (List.exists
       (fun s ->
         match Run.sampler (Run.restore s) with
         | Some sam -> Sample.record_keys sam <> []
         | None -> false)
       !snaps)

(* -- quiet leaf calls ------------------------------------------------ *)

(* A sampled run under one scheme, assembled as [Run.run] assembles it,
   with the engine's [observes_call] left as the scheme set it or
   overridden.  Returns the whole simulator state as checkpoint bytes
   (engine with its DO database, hierarchy, RNG and cursors; scheme;
   sampler; fault injector), the sampler's counters, and how many
   invocations reached the entry hook. *)
let quiet_run ~observes ~faulty ~scheme program =
  let faults =
    if faulty then Ace_faults.Faults.create (Ace_faults.Faults.preset ~rate:0.01)
    else Ace_faults.Faults.none
  in
  let interval = match scheme with `Bbv -> Some Run.bbv_interval | _ -> None in
  let e =
    Engine.create
      ~config:
        {
          Engine.default_config with
          seed = 1;
          hot_threshold = Run.default_hot_threshold;
          interval_instrs = interval;
        }
      ~faults program
  in
  let cus = [| Ace_core.Cu.l1d e; Ace_core.Cu.l2 e |] in
  let sync_scheme, allow, classify =
    match scheme with
    | `Baseline -> ((fun _ -> ()), (fun ~meth_id:_ -> Sample.Allow), None)
    | `Hotspot ->
        let fw =
          Ace_core.Framework.attach
            ~config:(Ace_core.Framework.config_for ~resilient:faulty)
            ~faults e ~cus
        in
        ( (fun io -> Ace_core.Framework.sync io fw),
          (fun ~meth_id ->
            if not (Ace_core.Framework.hotspot_settled fw ~meth_id) then
              Sample.Unsettled
            else if
              Ace_core.Framework.measuring_open fw > 0
              || Ace_core.Framework.unsettled_active fw
            then Sample.Not_quiescent
            else Sample.Allow),
          None )
    | `Bbv ->
        let sch = Ace_bbv.Scheme.attach ~faults e ~cus in
        ( (fun io -> Ace_bbv.Scheme.sync io sch),
          (fun ~meth_id:_ ->
            if Ace_bbv.Scheme.quiescent sch then Sample.Allow
            else Sample.Not_quiescent),
          Some
            (fun () ->
              let c = Ace_bbv.Tracker.current_phase (Ace_bbv.Scheme.tracker sch) in
              if c < 0 then None else Some c) )
  in
  let hooks = Engine.hooks e in
  let entries = ref 0 in
  let entry = hooks.Engine.on_method_entry in
  hooks.Engine.on_method_entry <-
    (fun ~meth_id ->
      incr entries;
      entry ~meth_id);
  Option.iter (fun f -> hooks.Engine.observes_call <- f) observes;
  let sam = Sample.attach ~faults ?classify ~allow e in
  Engine.run e;
  let state =
    Ace_util.Codec.save (fun io ->
        Engine.sync io e;
        sync_scheme io;
        Sample.sync io sam;
        Ace_faults.Faults.sync io faults)
  in
  (state, Sample.stats sam, !entries)

(* Quiet leaf calls skip the entry and exit hooks but must leave the run
   bit-identical to one where every call reaches them: the synthetic
   workload and a SPEC analogue under all three schemes, plus a faulty
   resilient hotspot run (the profile perturbation draws in the same
   order).  The baseline installs no entry or exit hook, so "none" is a
   valid answer for it too, and it exercises the quiet path there. *)
let test_quiet_calls_exact () =
  let every = Some (fun ~meth_id:_ -> true) and none = Some (fun ~meth_id:_ -> false) in
  let synthetic = small ~phase_repeats:60 () in
  let mtrt =
    (Option.get (Ace_workloads.Specjvm.find "mtrt")).Ace_workloads.Workload.build
      ~scale:0.3 ~seed:1
  in
  let quiet_somewhere = ref false in
  List.iter
    (fun (name, program, scheme, faulty, quiet) ->
      let state, stats, entries = quiet_run ~observes:quiet ~faulty ~scheme program in
      let state', stats', entries' =
        quiet_run ~observes:every ~faulty ~scheme program
      in
      Alcotest.(check bool) (name ^ ": state bit-identical") true (state = state');
      Alcotest.(check bool) (name ^ ": sampler counters equal") true (stats = stats');
      if entries < entries' then quiet_somewhere := true)
    [
      ("synthetic/baseline", synthetic, `Baseline, false, none);
      ("synthetic/hotspot", synthetic, `Hotspot, false, None);
      ("synthetic/bbv", synthetic, `Bbv, false, None);
      ("synthetic/hotspot+faults", synthetic, `Hotspot, true, None);
      ("mtrt/baseline", mtrt, `Baseline, false, none);
      ("mtrt/hotspot", mtrt, `Hotspot, false, None);
      ("mtrt/bbv", mtrt, `Bbv, false, None);
    ];
  Alcotest.(check bool) "some calls ran without hooks" true !quiet_somewhere

let suite =
  [
    Tu.case "config validation" test_config_validation;
    Tu.case "Rng.skip = n draws" test_rng_skip_equiv;
    Tu.case "Pattern.skip = n nexts" test_pattern_skip_equiv;
    Tu.case "sampled run: arch state exact" test_sampled_arch_exact;
    Tu.case "sampled run: cycles within bound" test_sampled_timing_close;
    QCheck_alcotest.to_alcotest prop_sampled_arch_exact;
    Tu.case "blocked-candidate breakdown" test_blocked_counters_hotspot_scheme;
    Tu.case "cluster-keyed run: arch state exact" test_cluster_keyed_arch_exact;
    Tu.case "cluster reassignment invalidates records"
      test_cluster_reassignment_invalidates;
    Tu.case "BBV cluster-keyed run consistent" test_bbv_cluster_sampled_consistent;
    Tu.case "sampler capture/restore round-trip" test_capture_restore_roundtrip;
    Tu.case "cluster sampler capture/restore round-trip"
      test_cluster_capture_restore_roundtrip;
    Tu.slow_case "sampled snapshot codec round-trip"
      test_sampled_snapshot_roundtrip;
    Tu.case "quiet leaf calls: run bit-identical" test_quiet_calls_exact;
  ]
