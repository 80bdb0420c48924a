(* Tests of the benchmark's own code: metric arithmetic, a smoke run of each
   workload on one small item set, and the oracle counting a perturbed
   output as a failure. *)

open Perfbench

let close = Alcotest.float 1e-9

let test_median () =
  Alcotest.check close "odd" 2.0 (Metric.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "even" 2.5 (Metric.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.(check bool) "empty" true (Float.is_nan (Metric.median []))

let test_ratios () =
  Alcotest.check close "ratio" 0.25 (Metric.ratio 1.0 4.0);
  Alcotest.check close "ratio by zero" 0.0 (Metric.ratio 1.0 0.0);
  Alcotest.check close "err_pct" 2.0 (Metric.err_pct ~reference:50.0 49.0);
  Alcotest.check close "err_pct exact" 0.0 (Metric.err_pct ~reference:0.0 0.0);
  Alcotest.check close "overhead" 10.0 (Metric.overhead_pct ~traced:1.1 ~untraced:1.0)

let test_error_rate () =
  Alcotest.check close "none" 0.0 (Metric.error_rate ~failed:0 ~attempted:21);
  Alcotest.check close "some" 0.25 (Metric.error_rate ~failed:1 ~attempted:4);
  Alcotest.check close "nothing attempted" 1.0 (Metric.error_rate ~failed:0 ~attempted:0)

let test_json () =
  Alcotest.(check string)
    "result line"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": \
     {\"value\": 1.5, \"unit\": \"s\"}, \"bad\": {\"value\": 0, \"unit\": \"ms\"}}}"
    (Metric.result_json ~correct:true ~attempted:3 ~failed:0
       [ Metric.v "wall_s" "s" 1.5; Metric.v "bad" "ms" nan ])

let out =
  {
    Outputs.instrs = 100;
    cycles = 120.0;
    l1d_nj = 1.0;
    l2_nj = 2.0;
    l1d_miss_rate = 0.1;
    l2_miss_rate = 0.2;
    hotspots = 3;
    tunings = [| 4; 5 |];
    reconfigs = [| 1; 0 |];
  }

let test_oracle () =
  Alcotest.(check (list string)) "equal" [] (Outputs.mismatches ~reference:out out);
  let timing = { out with Outputs.cycles = Float.succ out.Outputs.cycles } in
  Alcotest.(check (list string))
    "one ulp of cycles" [ "cycles" ]
    (Outputs.mismatches ~reference:out timing);
  Alcotest.(check (list string))
    "sampled timing may differ" []
    (Outputs.architectural_mismatches ~reference:out timing);
  Alcotest.(check (list string))
    "census" [ "hotspots" ]
    (Outputs.architectural_mismatches ~reference:out { out with Outputs.hotspots = 4 });
  Alcotest.(check bool)
    "digest sees reconfigs" false
    (Outputs.digest out = Outputs.digest { out with Outputs.reconfigs = [| 0; 1 |] })

let suite = [ Option.get (Ace_workloads.Specjvm.find "compress") ]

let smoke ?perturb ~trace kind =
  Suite.run ~scale:0.01 ~suite ~min_passes:1 ?perturb ~seconds:0.0 ~seed:3 ~trace kind

let untraced_only f ~traced o = if traced then o else f o

let test_smoke (name, kind) () =
  let r = smoke ~trace:true kind in
  Alcotest.(check int) (name ^ " failed") 0 r.Suite.failed;
  Alcotest.(check bool) (name ^ " attempted") true (r.Suite.attempted > 0);
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (name ^ " " ^ m.Metric.name ^ " positive")
        true
        (Float.is_finite m.Metric.value && m.Metric.value > 0.0))
    (Report.end_to_end r);
  let layers = Report.per_layer r in
  List.iter
    (fun m ->
      Alcotest.(check bool) (name ^ " " ^ m.Metric.name ^ " finite") true
        (Float.is_finite m.Metric.value))
    layers;
  let names = List.map (fun m -> m.Metric.name) layers in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  let rows, wall = Report.amdahl r in
  Alcotest.check (Alcotest.float 1e-6) "amdahl adds up" wall (Metric.sum (List.map snd rows))

let test_perturbed () =
  let slower o = { o with Outputs.cycles = o.Outputs.cycles +. 1.0 } in
  let r = smoke ~perturb:(untraced_only slower) ~trace:false Suite.Full in
  (* 3 reference runs pass; each of the 3 timed attempts must fail. *)
  Alcotest.(check int) "full: every timed attempt fails" 3 r.Suite.failed;
  Alcotest.(check int) "attempted" 6 r.Suite.attempted;
  let r = smoke ~perturb:(untraced_only slower) ~trace:false Suite.Sampled in
  Alcotest.(check int) "sampled: timing is not architectural" 0 r.Suite.failed;
  let shorter o = { o with Outputs.instrs = o.Outputs.instrs - 1 } in
  let r = smoke ~perturb:(untraced_only shorter) ~trace:false Suite.Sampled in
  Alcotest.(check int) "sampled: instrs are" 3 r.Suite.failed

(* A traced attempt must equal the untraced attempt of its item exactly, even
   where the reference check is only architectural. *)
let test_perturbed_traced () =
  let slower ~traced o =
    if traced then { o with Outputs.cycles = o.Outputs.cycles +. 1.0 } else o
  in
  List.iter
    (fun (name, kind) ->
      let r = smoke ~perturb:slower ~trace:true kind in
      let n = r.Suite.n_items in
      Alcotest.(check int) (name ^ ": attempted") (3 * n) r.Suite.attempted;
      Alcotest.(check int) (name ^ ": every traced attempt fails") n r.Suite.failed)
    Suite.kinds

let () =
  Alcotest.run "perfbench"
    [
      ( "metric",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "ratios and error percentages" `Quick test_ratios;
          Alcotest.test_case "error_rate" `Quick test_error_rate;
          Alcotest.test_case "result json" `Quick test_json;
          Alcotest.test_case "output oracle" `Quick test_oracle;
        ] );
      ( "workload",
        List.map
          (fun (name, kind) ->
            Alcotest.test_case ("smoke " ^ name) `Quick (test_smoke (name, kind)))
          Suite.kinds
        @ [
            Alcotest.test_case "perturbed output fails" `Quick test_perturbed;
            Alcotest.test_case "perturbed traced output fails" `Quick
              test_perturbed_traced;
          ] );
    ]
