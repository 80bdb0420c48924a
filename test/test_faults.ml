(* Fault injection: neutrality of [none], determinism, per-channel behavior. *)
module Faults = Ace_faults.Faults

let preset_1pct = Faults.preset ~rate:0.01

let drive_writes t n =
  List.init n (fun i ->
      Faults.on_reg_write t ~cu:"L1D" ~now_instrs:(i * 1000) ~setting:(i mod 4)
        ~n_settings:4)

let test_none_neutral () =
  let t = Faults.none in
  Alcotest.(check bool) "is_none" true (Faults.is_none t);
  List.iter
    (fun o ->
      Alcotest.(check bool) "every write lands" true (o = Faults.Landed))
    (drive_writes t 50);
  Alcotest.(check bool) "never stuck" false
    (Faults.cu_stuck t ~cu:"L1D" ~now_instrs:1_000_000);
  Tu.check_approx "cycles untouched" 1234.5
    (Faults.perturb_cycles t ~cycles:1234.5);
  Tu.check_approx "period untouched" 50_000.0
    (Faults.jitter_period t ~period:50_000.0);
  let s = Faults.stats t in
  Alcotest.(check int) "no drops" 0 s.Faults.writes_dropped;
  Alcotest.(check int) "no spikes" 0 s.Faults.spikes

let test_zero_rate_config_neutral () =
  (* An injector built from all-zero probabilities must behave exactly like
     [none]: every roll is gated on its probability, so it not only injects
     nothing, it never even draws from its RNG. *)
  let t = Faults.create (Faults.preset ~rate:0.0) in
  Alcotest.(check bool) "not none, but inert" false (Faults.is_none t);
  List.iter
    (fun o -> Alcotest.(check bool) "lands" true (o = Faults.Landed))
    (drive_writes t 50);
  Tu.check_approx "cycles untouched" 777.0 (Faults.perturb_cycles t ~cycles:777.0);
  Tu.check_approx "period untouched" 9.0 (Faults.jitter_period t ~period:9.0);
  let s = Faults.stats t in
  Alcotest.(check int) "nothing injected" 0
    (s.Faults.writes_dropped + s.Faults.writes_corrupted + s.Faults.stuck_events
    + s.Faults.spikes + s.Faults.jittered_ticks)

let test_deterministic_from_seed () =
  let trace seed =
    let t = Faults.create ~seed preset_1pct in
    let writes = drive_writes t 200 in
    let cycles = List.init 200 (fun _ -> Faults.perturb_cycles t ~cycles:1e6) in
    (writes, cycles, Faults.stats t)
  in
  Alcotest.(check bool) "same seed, same trace" true (trace 42 = trace 42);
  let _, _, s1 = trace 42 and _, _, s2 = trace 43 in
  Alcotest.(check bool) "different seed, different outcome" true (s1 <> s2)

let test_drop_channel () =
  let t = Faults.create { Faults.no_faults with Faults.reg_write_drop_p = 1.0 } in
  List.iter
    (fun o -> Alcotest.(check bool) "dropped" true (o = Faults.Dropped))
    (drive_writes t 10);
  Alcotest.(check int) "counted" 10 (Faults.stats t).Faults.writes_dropped

let test_corrupt_channel () =
  let t =
    Faults.create { Faults.no_faults with Faults.reg_write_corrupt_p = 1.0 }
  in
  for i = 0 to 19 do
    match
      Faults.on_reg_write t ~cu:"L1D" ~now_instrs:i ~setting:2 ~n_settings:4
    with
    | Faults.Corrupted wrong ->
        Alcotest.(check bool) "lands elsewhere" true (wrong <> 2);
        Alcotest.(check bool) "in range" true (wrong >= 0 && wrong < 4)
    | Faults.Landed | Faults.Dropped -> Alcotest.fail "expected Corrupted"
  done;
  Alcotest.(check int) "counted" 20 (Faults.stats t).Faults.writes_corrupted;
  (* A single-setting CU has nowhere wrong to land: the write goes through. *)
  let t1 =
    Faults.create { Faults.no_faults with Faults.reg_write_corrupt_p = 1.0 }
  in
  Alcotest.(check bool) "1-setting CU cannot corrupt" true
    (Faults.on_reg_write t1 ~cu:"IQ" ~now_instrs:0 ~setting:0 ~n_settings:1
    = Faults.Landed)

let test_stuck_transient () =
  let t =
    Faults.create
      {
        Faults.no_faults with
        Faults.stuck_transient_p = 1.0;
        stuck_transient_instrs = 10_000;
      }
  in
  (* The first write lands but latches the CU for 10 K instructions. *)
  Alcotest.(check bool) "first write lands" true
    (Faults.on_reg_write t ~cu:"L1D" ~now_instrs:0 ~setting:1 ~n_settings:4
    = Faults.Landed);
  Alcotest.(check bool) "latched" true
    (Faults.cu_stuck t ~cu:"L1D" ~now_instrs:5_000);
  Alcotest.(check bool) "writes swallowed while stuck" true
    (Faults.on_reg_write t ~cu:"L1D" ~now_instrs:5_000 ~setting:2 ~n_settings:4
    = Faults.Dropped);
  Alcotest.(check bool) "other CUs unaffected" false
    (Faults.cu_stuck t ~cu:"L2" ~now_instrs:5_000);
  Alcotest.(check bool) "clears after the window" false
    (Faults.cu_stuck t ~cu:"L1D" ~now_instrs:10_000);
  Alcotest.(check bool) "writes land again (and re-latch)" true
    (Faults.on_reg_write t ~cu:"L1D" ~now_instrs:20_000 ~setting:2 ~n_settings:4
    = Faults.Landed);
  Alcotest.(check int) "latch events counted" 2 (Faults.stats t).Faults.stuck_events

let test_stuck_permanent () =
  let t =
    Faults.create { Faults.no_faults with Faults.stuck_permanent_p = 1.0 }
  in
  ignore (Faults.on_reg_write t ~cu:"L1D" ~now_instrs:0 ~setting:1 ~n_settings:4);
  Alcotest.(check bool) "stuck forever" true
    (Faults.cu_stuck t ~cu:"L1D" ~now_instrs:max_int)

let test_spike_channel () =
  let t =
    Faults.create
      {
        Faults.no_faults with
        Faults.profile_spike_p = 1.0;
        profile_spike_mag = 1.5;
      }
  in
  Tu.check_approx "spike multiplies by 1+mag" 2500.0
    (Faults.perturb_cycles t ~cycles:1000.0);
  Alcotest.(check int) "counted" 1 (Faults.stats t).Faults.spikes

let test_noise_bounds () =
  let cov = 0.05 in
  let t = Faults.create { Faults.no_faults with Faults.profile_noise_cov = cov } in
  let bound = cov *. sqrt 3.0 +. 1e-9 in
  for _ = 1 to 500 do
    let p = Faults.perturb_cycles t ~cycles:1000.0 in
    Alcotest.(check bool) "within uniform bounds" true
      (Float.abs ((p /. 1000.0) -. 1.0) <= bound)
  done

let test_jitter_bounds () =
  let frac = 0.2 in
  let t =
    Faults.create { Faults.no_faults with Faults.sampler_jitter_frac = frac }
  in
  for _ = 1 to 200 do
    let p = Faults.jitter_period t ~period:50_000.0 in
    Alcotest.(check bool) "within jitter bounds" true
      (Float.abs ((p /. 50_000.0) -. 1.0) <= frac +. 1e-9)
  done;
  Alcotest.(check int) "counted" 200 (Faults.stats t).Faults.jittered_ticks

let test_preset_scales_with_rate () =
  let low = Faults.preset ~rate:0.001 and high = Faults.preset ~rate:0.05 in
  Alcotest.(check bool) "drop scales" true
    (low.Faults.reg_write_drop_p < high.Faults.reg_write_drop_p);
  Alcotest.(check bool) "noise scales" true
    (low.Faults.profile_noise_cov < high.Faults.profile_noise_cov);
  Alcotest.(check bool) "permanent latch-up much rarer than transient" true
    (high.Faults.stuck_permanent_p < high.Faults.stuck_transient_p /. 2.0)

let test_preset_rejects_out_of_range () =
  let rejects rate =
    match Faults.preset ~rate with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "preset accepted rate %g" rate
  in
  rejects (-0.01);
  rejects 1.5;
  rejects Float.nan;
  rejects Float.infinity;
  (* Boundary values are legal. *)
  ignore (Faults.preset ~rate:0.0);
  ignore (Faults.preset ~rate:1.0)

let test_corrupt_snapshot_channel () =
  let t =
    Faults.create { Faults.no_faults with Faults.ckpt_corrupt_p = 1.0 }
  in
  let buf = Bytes.make 64 'x' in
  Alcotest.(check bool) "corrupts" true (Faults.maybe_corrupt_snapshot t buf);
  Alcotest.(check bool) "buffer changed" false (Bytes.for_all (( = ) 'x') buf);
  Alcotest.(check int) "counted" 1 (Faults.stats t).Faults.snapshots_corrupted;
  Alcotest.(check bool) "none is inert" false
    (Faults.maybe_corrupt_snapshot Faults.none (Bytes.make 8 'y'))

let test_corrupt_snapshot_stream_isolated () =
  (* Snapshot writes must not perturb the engine-visible fault schedule:
     two injectors, one of which also corrupts snapshots, must agree on
     every register-write outcome. *)
  let cfg rate = { (Faults.preset ~rate:0.2) with Faults.ckpt_corrupt_p = rate } in
  let a = Faults.create ~seed:5 (cfg 0.0) in
  let b = Faults.create ~seed:5 (cfg 1.0) in
  for i = 1 to 200 do
    ignore (Faults.maybe_corrupt_snapshot b (Bytes.make 32 'z'));
    let oa = Faults.on_reg_write a ~cu:"l1d" ~now_instrs:(i * 1000) ~setting:1 ~n_settings:4 in
    let ob = Faults.on_reg_write b ~cu:"l1d" ~now_instrs:(i * 1000) ~setting:1 ~n_settings:4 in
    if oa <> ob then Alcotest.failf "write outcomes diverged at %d" i
  done

let test_capture_restore_roundtrip () =
  let t = Faults.create ~seed:9 (Faults.preset ~rate:0.3) in
  for i = 1 to 100 do
    ignore (Faults.on_reg_write t ~cu:"l1d" ~now_instrs:(i * 500) ~setting:0 ~n_settings:4);
    ignore (Faults.perturb_cycles t ~cycles:1000.0)
  done;
  let state = Ace_util.Codec.save (fun io -> Faults.sync io t) in
  (* Drain both copies forward and compare the schedules. *)
  let t2 = Faults.create ~seed:9 (Faults.preset ~rate:0.3) in
  Ace_util.Codec.load state (fun io -> Faults.sync io t2);
  Alcotest.(check bool) "stats restored" true (Faults.stats t = Faults.stats t2);
  for i = 101 to 200 do
    let a = Faults.on_reg_write t ~cu:"l2" ~now_instrs:(i * 500) ~setting:2 ~n_settings:4 in
    let b = Faults.on_reg_write t2 ~cu:"l2" ~now_instrs:(i * 500) ~setting:2 ~n_settings:4 in
    if a <> b then Alcotest.failf "restored schedule diverged at %d" i;
    if
      Faults.perturb_cycles t ~cycles:2000.0
      <> Faults.perturb_cycles t2 ~cycles:2000.0
    then Alcotest.failf "restored noise diverged at %d" i
  done;
  let none = Ace_util.Codec.save (fun io -> Faults.sync io Faults.none) in
  Alcotest.(check string) "none writes an empty option" "\000" none;
  (match Ace_util.Codec.load none (fun io -> Faults.sync io t2) with
  | exception Ace_util.Codec.Error _ -> ()
  | () -> Alcotest.fail "read accepted noneness mismatch")

let suite =
  [
    Tu.case "none is neutral" test_none_neutral;
    Tu.case "zero-rate config is inert" test_zero_rate_config_neutral;
    Tu.case "deterministic from seed" test_deterministic_from_seed;
    Tu.case "drop channel" test_drop_channel;
    Tu.case "corrupt channel" test_corrupt_channel;
    Tu.case "stuck transient latch" test_stuck_transient;
    Tu.case "stuck permanent latch" test_stuck_permanent;
    Tu.case "spike channel" test_spike_channel;
    Tu.case "noise bounds" test_noise_bounds;
    Tu.case "jitter bounds" test_jitter_bounds;
    Tu.case "preset scales with rate" test_preset_scales_with_rate;
    Tu.case "preset rejects out-of-range rates" test_preset_rejects_out_of_range;
    Tu.case "snapshot corruption channel" test_corrupt_snapshot_channel;
    Tu.case "snapshot corruption stream isolated"
      test_corrupt_snapshot_stream_isolated;
    Tu.case "capture/restore roundtrip" test_capture_restore_roundtrip;
  ]
