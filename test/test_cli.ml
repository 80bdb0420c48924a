(* Integration tests that spawn the real ace_sim binary (a dune dep of this
   test), checking exit codes and output end to end. *)

let exe = "../bin/ace_sim.exe"

let sh cmd =
  let out = Filename.temp_file "ace_cli" ".out" in
  let code = Sys.command (Printf.sprintf "%s > %s 2>&1" cmd out) in
  let ic = open_in_bin out in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, s)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_faults_range_rejected () =
  List.iter
    (fun rate ->
      let code, out = sh (Printf.sprintf "%s run compress --faults=%s" exe rate) in
      Alcotest.(check bool) ("nonzero exit for " ^ rate) true (code <> 0);
      Alcotest.(check bool) ("clear message for " ^ rate) true
        (contains out "outside [0, 1]"))
    [ "1.5"; "-0.2"; "nan" ]

let test_faults_in_range_accepted () =
  let code, out = sh (exe ^ " run compress --scale 0.1 --faults 0.01") in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "prints fault stats" true (contains out "faults")

let test_checkpoint_kill_resume () =
  let p_full = Filename.temp_file "ace_cli_full" ".snap" in
  let p_kill = Filename.temp_file "ace_cli_kill" ".snap" in
  let base = " run compress -s hotspot --scale 0.2 --checkpoint-every 2000000" in
  let code_full, out_full = sh (exe ^ base ^ " --checkpoint " ^ p_full) in
  Alcotest.(check int) "uninterrupted exits 0" 0 code_full;
  let code_kill, out_kill =
    sh (exe ^ base ^ " --checkpoint " ^ p_kill ^ " --kill-after 5000000")
  in
  Alcotest.(check int) "killed run exits 3" 3 code_kill;
  Alcotest.(check bool) "reports kill point" true (contains out_kill "killed at");
  Alcotest.(check bool) "snapshot left behind" true (Sys.file_exists p_kill);
  let code_res, out_res = sh (exe ^ " run --resume " ^ p_kill) in
  Alcotest.(check int) "resume exits 0" 0 code_res;
  Alcotest.(check string) "resumed summary is bit-identical" out_full out_res;
  List.iter
    (fun p -> List.iter (fun s -> if Sys.file_exists (p ^ s) then Sys.remove (p ^ s)) [ ""; ".1" ])
    [ p_full; p_kill ]

let test_nonpositive_args_rejected () =
  (* Negative values must use the --flag=value form or the shell-level
     parser would read them as options. *)
  List.iter
    (fun flag ->
      let code, out = sh (Printf.sprintf "%s run compress %s" exe flag) in
      Alcotest.(check bool) ("nonzero exit for " ^ flag) true (code <> 0);
      Alcotest.(check bool) ("clear message for " ^ flag) true
        (contains out "positive"))
    [
      "--checkpoint-every=0";
      "--checkpoint-every=-5";
      "--checkpoint-every=nope";
      "--kill-after=0";
      "--kill-after=-1";
      "--scale=0";
      "--scale=-1";
      "--scale=nan";
      "--scale=inf";
    ]

let test_jobs_rejected () =
  (* Same style as --checkpoint-every: non-positive or junk values must die
     at parse time with a clear message, not fall through to a hung pool. *)
  List.iter
    (fun flag ->
      let code, out = sh (Printf.sprintf "%s exp fig4 %s" exe flag) in
      Alcotest.(check bool) ("nonzero exit for " ^ flag) true (code <> 0);
      Alcotest.(check bool) ("clear message for " ^ flag) true
        (contains out "positive"))
    [ "--jobs=0"; "--jobs=-2"; "--jobs=many"; "-j 0" ]

let test_jobs_output_identical () =
  (* End-to-end CLI determinism: the same experiment through the real
     binary at -j1 and -j4 must emit byte-identical bytes. *)
  let base = " exp fig4 --scale 0.05 --seed 7" in
  let code1, out1 = sh (exe ^ base ^ " --jobs 1") in
  let code4, out4 = sh (exe ^ base ^ " --jobs 4") in
  Alcotest.(check int) "sequential exits 0" 0 code1;
  Alcotest.(check int) "parallel exits 0" 0 code4;
  Alcotest.(check bool) "prints the table" true (contains out1 "== fig4 ==");
  Alcotest.(check string) "-j4 output byte-identical to -j1" out1 out4

let test_exp_paper_alias () =
  (* "paper" must parse and behave as an alias of "all"; scale keeps it
     cheap and the output must contain the first and last paper tables. *)
  let code, out = sh (exe ^ " exp paper --scale 0.02 --jobs 2") in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "starts with table1" true (contains out "== table1 ==");
  Alcotest.(check bool) "includes stability" true (contains out "== stability ==")

let read_file p =
  let ic = open_in_bin p in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The requested files set the sink level's floor, whatever --obs-level
   says: a trace needs full, a metrics CSV needs metrics. *)
let test_trace_and_metrics_written () =
  List.iter
    (fun level ->
      let trace = Filename.temp_file "ace_cli_trace" ".json" in
      let metrics = Filename.temp_file "ace_cli_metrics" ".csv" in
      let code, _ =
        sh
          (Printf.sprintf
             "%s run compress -s hotspot --scale 0.1 --trace %s --metrics %s%s"
             exe trace metrics level)
      in
      Alcotest.(check int) ("exit 0" ^ level) 0 code;
      let t = read_file trace and m = read_file metrics in
      Alcotest.(check bool) ("trace has the event array" ^ level) true
        (contains t "\"traceEvents\":[");
      Alcotest.(check bool) ("trace has phase spans" ^ level) true
        (contains t "\"ph\":\"X\"");
      Alcotest.(check bool) ("metrics header" ^ level) true
        (contains m "metric,type,value\n");
      Alcotest.(check bool) ("metrics carry engine counters" ^ level) true
        (contains m "engine.method_entries,counter,");
      List.iter Sys.remove [ trace; metrics ])
    [ ""; " --obs-level off"; " --obs-level metrics"; " --obs-level full" ]

(* CLI-level counterpart of the API-level identity test in test_obs.ml:
   the metrics file of a killed-then-resumed run must be byte-identical to
   the uninterrupted run's.  The killed run must itself pass --metrics so
   its snapshots embed the observability state. *)
let test_resume_metrics_identity () =
  let p_full = Filename.temp_file "ace_cli_ofull" ".snap" in
  let p_kill = Filename.temp_file "ace_cli_okill" ".snap" in
  let m_full = Filename.temp_file "ace_cli_mfull" ".csv" in
  let m_kill = Filename.temp_file "ace_cli_mkill" ".csv" in
  let m_res = Filename.temp_file "ace_cli_mres" ".csv" in
  let base = " run compress -s hotspot --scale 0.2 --checkpoint-every 2000000" in
  let code_full, _ =
    sh (exe ^ base ^ " --checkpoint " ^ p_full ^ " --metrics " ^ m_full)
  in
  Alcotest.(check int) "uninterrupted exits 0" 0 code_full;
  let code_kill, _ =
    sh
      (exe ^ base ^ " --checkpoint " ^ p_kill ^ " --metrics " ^ m_kill
     ^ " --kill-after 5000000")
  in
  Alcotest.(check int) "killed run exits 3" 3 code_kill;
  let code_res, _ =
    sh (exe ^ " run --resume " ^ p_kill ^ " --metrics " ^ m_res)
  in
  Alcotest.(check int) "resume exits 0" 0 code_res;
  Alcotest.(check string) "metrics byte-identical after resume"
    (read_file m_full) (read_file m_res);
  List.iter
    (fun p ->
      List.iter
        (fun s -> if Sys.file_exists (p ^ s) then Sys.remove (p ^ s))
        [ ""; ".1" ])
    [ p_full; p_kill; m_full; m_kill; m_res ]

let test_report_subcommand () =
  let code, out = sh (exe ^ " report compress --scale 0.1") in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "prints the report" true
    (contains out "ACE observability report")

let test_resume_missing_snapshot () =
  let code, out = sh (exe ^ " run --resume /nonexistent/ace.snap") in
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check bool) "says no usable snapshot" true
    (contains out "no usable snapshot")

(* A newest snapshot whose CRC holds but whose body does not restore (here:
   one stray trailing byte) must be skipped like a corrupted one: resume
   falls back to [.1], and with no [.1] exits 1 instead of crashing. *)
let test_resume_unrestorable_body () =
  let module Snapshot = Ace_ckpt.Snapshot in
  let read name = In_channel.with_open_bin name In_channel.input_all in
  let write name data =
    Out_channel.with_open_bin name (fun oc -> output_string oc data)
  in
  let good = read "golden.snap" in
  let snap = Snapshot.decode good in
  let bad =
    Snapshot.encode (Snapshot.of_body snap.Snapshot.meta (snap.Snapshot.body ^ "\000"))
  in
  let path = Filename.temp_file "ace_cli_bad" ".snap" in
  write path bad;
  write (path ^ ".1") good;
  let code, out = sh (exe ^ " run --resume " ^ path) in
  Alcotest.(check int) "falls back and exits 0" 0 code;
  Alcotest.(check bool) "says it fell back" true (contains out (path ^ ".1"));
  Sys.remove (path ^ ".1");
  write path bad;
  let code, out = sh (exe ^ " run --resume " ^ path) in
  Alcotest.(check int) "no fallback: exit 1" 1 code;
  Alcotest.(check bool) "says no usable snapshot" true
    (contains out "no usable snapshot");
  List.iter
    (fun s -> if Sys.file_exists (path ^ s) then Sys.remove (path ^ s))
    [ ""; ".1" ]

let test_run_requires_benchmark_or_resume () =
  let code, out = sh (exe ^ " run") in
  Alcotest.(check int) "usage error" 2 code;
  Alcotest.(check bool) "explains" true (contains out "--resume")

let test_sample_flag_combinations_rejected () =
  List.iter
    (fun (args, needle) ->
      let code, out = sh (Printf.sprintf "%s %s" exe args) in
      Alcotest.(check bool) ("nonzero exit for " ^ args) true (code <> 0);
      Alcotest.(check bool) ("clear message for " ^ args) true
        (contains out needle))
    [
      ("run compress --sample-repeats 5", "--sample");
      ("run compress --sample --faults 0.01", "--resilient");
      ("run --resume /tmp/nope.snap --sample", "metadata");
      ("run compress --sample --sample-repeats=0", "positive");
      ("exp sample-accuracy --sample", "sample-accuracy");
      ("exp torture --sample", "torture");
      (* Validation fires before any daemon connection is attempted. *)
      ( "submit --socket /tmp/ace_cli_no.sock compress --sample --faults 0.01",
        "--resilient" );
    ]

let test_sample_run_summary () =
  let code, out = sh (exe ^ " run compress -s hotspot --scale 0.2 --sample") in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "summary reports sampling" true
    (contains out "sampling")

let test_sample_kill_resume () =
  (* Kill a sampled checkpointed run mid-flight and resume it: the resumed
     summary must be byte-identical to the uninterrupted sampled run's (the
     snapshot carries the phase cache, so post-resume splice decisions
     replay exactly). *)
  let p_full = Filename.temp_file "ace_cli_sfull" ".snap" in
  let p_kill = Filename.temp_file "ace_cli_skill" ".snap" in
  let base =
    " run compress -s hotspot --scale 0.2 --sample --checkpoint-every 2000000"
  in
  let code_full, out_full = sh (exe ^ base ^ " --checkpoint " ^ p_full) in
  Alcotest.(check int) "uninterrupted exits 0" 0 code_full;
  let code_kill, _ =
    sh (exe ^ base ^ " --checkpoint " ^ p_kill ^ " --kill-after 5000000")
  in
  Alcotest.(check int) "killed run exits 3" 3 code_kill;
  let code_res, out_res = sh (exe ^ " run --resume " ^ p_kill) in
  Alcotest.(check int) "resume exits 0" 0 code_res;
  Alcotest.(check bool) "resumed summary reports sampling" true
    (contains out_res "sampling");
  Alcotest.(check string) "resumed sampled summary is bit-identical" out_full
    out_res;
  List.iter
    (fun p ->
      List.iter
        (fun s -> if Sys.file_exists (p ^ s) then Sys.remove (p ^ s))
        [ ""; ".1" ])
    [ p_full; p_kill ]

let suite =
  [
    Tu.case "--faults rejects out-of-range rates" test_faults_range_rejected;
    Tu.slow_case "--faults accepts in-range rate" test_faults_in_range_accepted;
    Tu.slow_case "checkpoint/kill/resume smoke" test_checkpoint_kill_resume;
    Tu.case "non-positive cadence/kill point rejected" test_nonpositive_args_rejected;
    Tu.case "--jobs rejects non-positive values" test_jobs_rejected;
    Tu.slow_case "exp --jobs output byte-identical" test_jobs_output_identical;
    Tu.slow_case "exp paper alias" test_exp_paper_alias;
    Tu.slow_case "--trace/--metrics write exports" test_trace_and_metrics_written;
    Tu.slow_case "resumed metrics file is byte-identical" test_resume_metrics_identity;
    Tu.slow_case "report subcommand" test_report_subcommand;
    Tu.case "--resume with missing snapshot" test_resume_missing_snapshot;
    Tu.slow_case "--resume skips a body that does not restore"
      test_resume_unrestorable_body;
    Tu.case "run requires benchmark or --resume" test_run_requires_benchmark_or_resume;
    Tu.case "--sample flag combinations rejected"
      test_sample_flag_combinations_rejected;
    Tu.slow_case "--sample run prints sampling summary" test_sample_run_summary;
    Tu.slow_case "--sample checkpoint/kill/resume smoke" test_sample_kill_resume;
  ]
