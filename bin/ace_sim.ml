(* ace_sim: command-line driver for the CGO 2005 ACE-management
   reproduction.

   Subcommands:
     run <benchmark> [-s scheme] [--scale x] [--seed n]   one run, summary
         [--trace f.json] [--metrics f.csv] [--obs-level off|metrics|full]
     report <benchmark> [-s scheme]                       observability report
     exp <id|all> [--scale x] [--seed n] [--jobs n]       regenerate a table/figure
     list                                                 benchmarks and experiments
*)

open Cmdliner
module Obs = Ace_obs.Obs
module Export = Ace_obs.Export

let workload_conv =
  let parse s =
    match Ace_workloads.Specjvm.find s with
    | Some w -> Ok w
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown benchmark %S (expected one of: %s)" s
               (String.concat ", " Ace_workloads.Specjvm.names)))
  in
  Arg.conv (parse, fun fmt w -> Format.pp_print_string fmt w.Ace_workloads.Workload.name)

let scheme_conv =
  let parse s =
    match Ace_harness.Scheme.of_string s with
    | Some x -> Ok x
    | None -> Error (`Msg "expected one of: baseline, hotspot, bbv")
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Ace_harness.Scheme.name s))

(* A probability: rejected at parse time so an out-of-range rate fails with
   a usage error instead of silently scaling the whole fault model. *)
let rate_conv =
  let parse s =
    match float_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "invalid fault rate %S" s))
    | Some r when not (r >= 0.0 && r <= 1.0) ->
        Error
          (`Msg
            (Printf.sprintf "fault rate %g is outside [0, 1] (a probability)" r))
    | Some r -> Ok r
  in
  Arg.conv (parse, Format.pp_print_float)

(* Positive, finite reals (scale, deadline, timeout, ENOSPC window):
   anything else is rejected at parse time, not clamped downstream. *)
let pos_float_conv what =
  let parse s =
    match float_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "invalid %s %S" what s))
    | Some f when not (f > 0.0 && Float.is_finite f) ->
        Error (`Msg (Printf.sprintf "%s must be positive (got %g)" what f))
    | Some f -> Ok f
  in
  Arg.conv (parse, Format.pp_print_float)

let scale_arg =
  let doc =
    "Workload scale factor, positive (1.0 = default reproduction scale)."
  in
  Arg.(value & opt (pos_float_conv "scale") 1.0 & info [ "scale" ] ~docv:"X" ~doc)

let seed_arg =
  let doc = "Deterministic seed for workload construction and simulation." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let scheme_arg =
  Arg.(
    value
    & opt scheme_conv Ace_harness.Scheme.Hotspot
    & info [ "s"; "scheme" ] ~docv:"SCHEME"
        ~doc:"Resource-management scheme: baseline, hotspot or bbv.")

let faults_arg =
  Arg.(
    value
    & opt (some rate_conv) None
    & info [ "faults" ] ~docv:"RATE"
        ~doc:
          "Inject hardware faults at the given base rate in [0, 1] (e.g. \
           0.01 = 1% register-write drop/corrupt probability, plus derived \
           stuck-CU, measurement-noise, sampler-jitter and \
           snapshot-corruption rates).")

let resilient_arg =
  Arg.(
    value & flag
    & info [ "resilient" ]
        ~doc:
          "Enable the framework's resilience machinery (retry/backoff, \
           quarantine, graceful degradation; hotspot scheme only).")

(* The one --sample flag of run, report, exp and submit, read as the
   sampling configuration it selects; [note] is the command's own rule. *)
let sample_arg note =
  Term.(
    const Ace_sample.Sample.of_flag
    $ Arg.(
        value & flag
        & info [ "sample" ]
            ~doc:
              ("Phase-memoized fast-forward sampling: once a recurring \
                optimized phase's statistics stabilize, replay its repeats \
                from the memoized record instead of simulating every cache \
                access.  Architectural results are exact; timing and energy \
                are within the memoization bound.  " ^ note)))

(* Memoized phase statistics are only invalidated safely when the framework
   can detect and recover from faulty configurations, so a sampled faulty
   run without the resilient policy is a usage error (exit 2). *)
let check_sample_faults ~sample ~fault_rate ~resilient =
  if sample <> None && fault_rate <> None && not resilient then begin
    Printf.eprintf
      "ace_sim: --sample with --faults requires --resilient (memoized \
       phase statistics are only invalidated safely when the framework \
       can detect and recover from faulty configurations)\n";
    exit 2
  end

(* Strictly positive instruction counts (checkpoint cadence, kill point):
   zero or negative values would silently disable checkpointing or kill the
   run at startup, so they are rejected at parse time. *)
let pos_int_conv what =
  let parse s =
    match int_of_string_opt s with
    | None ->
        Error
          (`Msg
            (Printf.sprintf "invalid %s %S (expected a positive integer)" what s))
    | Some n when n <= 0 ->
        Error (`Msg (Printf.sprintf "%s must be positive (got %d)" what n))
    | Some n -> Ok n
  in
  Arg.conv (parse, Format.pp_print_int)

let obs_level_conv =
  Arg.enum [ ("off", Obs.Off); ("metrics", Obs.Metrics); ("full", Obs.Full) ]

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the run's event timeline to $(docv): Chrome trace-event \
           JSON (open in Perfetto or about:tracing), or CSV when $(docv) \
           ends in .csv.  Implies $(b,--obs-level) full.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the run's metrics registry (counters, gauges, histogram \
           buckets) to $(docv) as CSV.  Implies at least $(b,--obs-level) \
           metrics.")

let obs_level_arg =
  Arg.(
    value
    & opt (some obs_level_conv) None
    & info [ "obs-level" ] ~docv:"LEVEL"
        ~doc:
          "Observability level: $(b,off), $(b,metrics) (counters only) or \
           $(b,full) (counters plus the event timeline), raised to what \
           $(b,--trace) and $(b,--metrics) need.  Defaults to $(b,off) for \
           $(b,run) and $(b,metrics) for $(b,serve).")

(* The summary/fault-stats rendering lives in [Ace_harness.Render] so the
   serve daemon can store byte-identical result payloads. *)
let print_summary r = print_string (Ace_harness.Render.summary r)
let print_fault_stats r = print_string (Ace_harness.Render.fault_stats r)

let run_cmd =
  let workload =
    Arg.(
      value
      & pos 0 (some workload_conv) None
      & info [] ~docv:"BENCHMARK"
          ~doc:"SPECjvm98 benchmark name (optional with $(b,--resume)).")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print per-hotspot selections.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Periodically snapshot the full simulator state to $(docv) \
             (previous snapshot rotated to $(docv).1).")
  in
  let checkpoint_every =
    Arg.(
      value
      & opt (pos_int_conv "checkpoint cadence") 10_000_000
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Checkpoint cadence in program instructions (positive).")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume from the snapshot at $(docv) instead of starting fresh \
             (falls back to $(docv).1 if the newest snapshot is corrupted \
             or does not restore); the benchmark and scheme come from the \
             snapshot's metadata.")
  in
  let kill_after =
    Arg.(
      value
      & opt (some (pos_int_conv "kill point")) None
      & info [ "kill-after" ] ~docv:"N"
          ~doc:
            "Simulate a crash: stop (exit 3) at the first checkpoint \
             boundary at or past $(docv) instructions (positive), leaving \
             the last snapshot on disk.")
  in
  let sample =
    sample_arg "Requires $(b,--resilient) when combined with $(b,--faults)."
  in
  let sample_repeats =
    Arg.(
      value
      & opt (some (pos_int_conv "sample repeat threshold")) None
      & info [ "sample-repeats" ] ~docv:"N"
          ~doc:
            "Clean repeats required before a phase may be fast-forwarded \
             (positive; default 3).  Only valid with $(b,--sample).")
  in
  let action workload scheme scale seed verbose fault_rate resilient checkpoint
      checkpoint_every resume kill_after sample sample_repeats trace metrics
      obs_level =
    let obs = Export.sink (Option.value obs_level ~default:Obs.Off) ~trace ~metrics in
    (* --sample flag validation: the combinations below would silently
       produce misleading results, so they are hard errors (exit 2, like a
       usage error). *)
    if sample_repeats <> None && sample = None then begin
      Printf.eprintf "ace_sim: --sample-repeats requires --sample\n";
      exit 2
    end;
    check_sample_faults ~sample ~fault_rate ~resilient;
    if sample <> None && resume <> None then begin
      Printf.eprintf
        "ace_sim: --sample cannot be set on --resume (the snapshot's \
         metadata decides whether the run is sampled)\n";
      exit 2
    end;
    let sample =
      match sample_repeats with
      | None -> sample
      | Some repeats ->
          Option.map (fun c -> { c with Ace_sample.Sample.repeats }) sample
    in
    (* Exports are written for killed runs too: the trace of a crashed run
       is exactly what one wants to look at. *)
    let finish_outcome outcome =
      Export.write ~trace ~metrics obs;
      match outcome with
      | Ace_harness.Run.Completed r ->
          print_summary r;
          print_fault_stats r
      | Ace_harness.Run.Killed_at n ->
          Printf.printf "killed at %s instructions (snapshot retained)\n"
            (Ace_util.Table.cell_int n);
          exit 3
    in
    match resume with
    | Some path -> (
        match Ace_harness.Run.restore_latest ~obs ~path () with
        | None ->
            Printf.eprintf
              "ace_sim: no usable snapshot at %s (nor at %s.1)\n" path path;
            exit 1
        | Some (r, which) ->
            if which = `Fallback then
              Printf.eprintf
                "ace_sim: newest snapshot unusable, resumed from %s.1\n" path;
            finish_outcome (Ace_harness.Run.continue ?kill_after ~path r))
    | None -> (
        let workload =
          match workload with
          | Some w -> w
          | None ->
              Printf.eprintf
                "ace_sim: a BENCHMARK is required unless --resume is given\n";
              exit 2
        in
        match checkpoint with
        | Some path ->
            finish_outcome
              (Ace_harness.Run.run_checkpointed ~scale ~seed ~resilient
                 ?fault_rate ?sample ?kill_after ~obs ~checkpoint_every ~path
                 workload scheme)
        | None ->
            let r =
              Ace_harness.Run.run ~scale ~seed
                ~framework_config:(Ace_core.Framework.config_for ~resilient)
                ?fault_rate ?sample ~obs workload scheme
            in
            Export.write ~trace ~metrics obs;
            print_summary r;
            print_fault_stats r;
            if verbose then
              match r.Ace_harness.Run.hotspot with
              | Some h ->
                  List.iter
                    (fun (v : Ace_core.Framework.hotspot_view) ->
                      Printf.printf "  %-24s %-12s %s\n" v.meth_name
                        (String.concat "+" v.managed_cus)
                        (if v.configured then
                           String.concat ", "
                             (List.map (fun (c, s) -> c ^ "=" ^ s) v.selection)
                         else "still tuning"))
                    h.Ace_harness.Run.views
              | None -> ())
  in
  let info =
    Cmd.info "run" ~doc:"Run one benchmark under one scheme and print a summary."
  in
  Cmd.v info
    Term.(
      const action $ workload $ scheme_arg $ scale_arg $ seed_arg $ verbose
      $ faults_arg $ resilient_arg $ checkpoint $ checkpoint_every $ resume
      $ kill_after $ sample $ sample_repeats $ trace_arg $ metrics_arg
      $ obs_level_arg)

let report_cmd =
  let workload =
    Arg.(
      required
      & pos 0 (some workload_conv) None
      & info [] ~docv:"BENCHMARK" ~doc:"SPECjvm98 benchmark name.")
  in
  let sample =
    sample_arg "The report's $(i,sampled regions) line counts the spliced regions."
  in
  let action workload scheme scale seed sample =
    let obs = Obs.create Obs.Full in
    let (_ : Ace_harness.Run.result) =
      Ace_harness.Run.run ~scale ~seed ~obs ?sample workload scheme
    in
    print_string (Export.report obs)
  in
  let info =
    Cmd.info "report"
      ~doc:
        "Run one benchmark with full observability and print a \
         human-readable activity report (metrics, rates, timeline tail)."
  in
  Cmd.v info
    Term.(const action $ workload $ scheme_arg $ scale_arg $ seed_arg $ sample)

(* Every id [exp] accepts: the [Experiments] tables, then the storage
   torture matrix, [all] and its alias [paper]. *)
let experiment_ids =
  List.map fst Ace_harness.Experiments.experiments @ [ "torture"; "all"; "paper" ]

let exp_cmd =
  let id =
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun s -> (s, s)) experiment_ids))) None
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            ("Experiment id: " ^ String.concat ", " experiment_ids
           ^ " ($(b,paper) is an alias of $(b,all))."))
  in
  let jobs =
    Arg.(
      value
      & opt (pos_int_conv "jobs") 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Run the experiment's independent simulations on $(docv) domains \
             (positive; 1 = sequential).  Output is byte-identical for every \
             $(docv).")
  in
  let seeds =
    Arg.(
      value
      & opt (pos_int_conv "seeds") 2
      & info [ "seeds" ] ~docv:"N"
          ~doc:
            "Torture only: enumerate the crash-point matrix under seeds 1 \
             through $(docv).  Ignored by the other experiments.")
  in
  let sample =
    sample_arg
      "Applies to every simulation in the experiment; not valid with \
       $(b,sample-accuracy), which already compares sampled vs full, nor \
       with $(b,torture)."
  in
  let action id scale seed jobs seeds sample =
    (* sample-accuracy runs both sides itself; a context-wide --sample
       would collapse the comparison to sampled-vs-sampled. *)
    if sample <> None && (id = "sample-accuracy" || id = "torture") then begin
      Printf.eprintf "ace_sim: --sample is not valid with %s\n" id;
      exit 2
    end;
    if id = "torture" then begin
      (* Not an Experiments table: the torture matrix needs no worker
         context, exercises ace_serve rather than the paper harness, and
         its exit status is the CI gate. *)
      let scale = if scale = 1.0 then None else Some scale in
      let tallies =
        Ace_serve.Torture.run_matrix ?scale
          ~seeds:(List.init seeds (fun i -> i + 1))
          ()
      in
      print_string (Ace_serve.Torture.render tallies);
      if Ace_serve.Torture.total_violations tallies > 0 then exit 1
    end
    else
    let ctx = Ace_harness.Experiments.create ~scale ~seed ~jobs ?sample () in
    let print (name, tbl) =
      Printf.printf "== %s ==\n" name;
      Ace_util.Table.print tbl;
      print_newline ()
    in
    List.iter print
      (if id = "all" || id = "paper" then Ace_harness.Experiments.all ctx
       else [ (id, List.assoc id Ace_harness.Experiments.experiments ctx) ]);
    Ace_harness.Experiments.shutdown ctx
  in
  let info =
    Cmd.info "exp"
      ~doc:
        "Regenerate one of the paper's tables or figures, or run the \
         storage-crash torture matrix."
  in
  Cmd.v info
    Term.(const action $ id $ scale_arg $ seed_arg $ jobs $ seeds $ sample)

let list_cmd =
  let action () =
    print_endline "Benchmarks:";
    List.iter
      (fun w ->
        Printf.printf "  %-10s %s\n" w.Ace_workloads.Workload.name
          w.Ace_workloads.Workload.description)
      Ace_workloads.Specjvm.all;
    print_endline "";
    Format.printf "@[<hov 13>Experiments:@ %a@]@."
      (Format.pp_print_list ~pp_sep:Format.pp_print_space Format.pp_print_string)
      experiment_ids
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmarks and experiments.") Term.(const action $ const ())

(* {2 Service daemon (ace_serve)} *)

module Serve_protocol = Ace_serve.Protocol
module Serve_client = Ace_serve.Client

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path of the serve daemon.")

let serve_cmd =
  let spool =
    Arg.(
      required
      & opt (some string) None
      & info [ "spool" ] ~docv:"DIR"
          ~doc:
            "Spool directory holding job specs, checkpoints and results; \
             created if missing.  A restarted daemon rescans it and resumes \
             in-flight jobs.")
  in
  let jobs =
    Arg.(
      value
      & opt (pos_int_conv "workers") 2
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains executing jobs concurrently (positive).")
  in
  let queue_max =
    Arg.(
      value
      & opt (pos_int_conv "queue high-water mark") 64
      & info [ "queue-max" ] ~docv:"N"
          ~doc:
            "Queue high-water mark: submissions beyond $(docv) queued jobs \
             are rejected with an explicit overloaded response.")
  in
  let checkpoint_every =
    Arg.(
      value
      & opt (pos_int_conv "checkpoint cadence") 10_000_000
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Per-job checkpoint cadence in instructions (positive).")
  in
  let kill_after =
    Arg.(
      value
      & opt (some (pos_int_conv "kill point")) None
      & info [ "kill-after" ] ~docv:"N"
          ~doc:
            "Chaos testing: crash the daemon (exit 3, no cleanup) at the \
             first checkpoint boundary once $(docv) instructions have been \
             executed across all jobs; a restarted daemon must recover the \
             spool.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ] ~doc:"Log job state transitions to stderr.")
  in
  let io_faults =
    Arg.(
      value
      & opt (some rate_conv) None
      & info [ "io-faults" ] ~docv:"RATE"
          ~doc:
            "Robustness testing: inject seeded storage faults (short/torn \
             writes, ENOSPC, EIO, lost fsyncs, rename failures) into all \
             spool and snapshot I/O at the given base rate in [0, 1].")
  in
  let enospc_for =
    Arg.(
      value
      & opt (some (pos_float_conv "ENOSPC window")) None
      & info [ "enospc-for" ] ~docv:"SECONDS"
          ~doc:
            "Robustness testing: make every spool/snapshot write fail with \
             ENOSPC for the first $(docv) seconds of the daemon's life — \
             the daemon must degrade (pause admissions) and then recover \
             automatically when the \"disk\" drains.")
  in
  let action socket spool jobs queue_max checkpoint_every kill_after verbose
      io_faults enospc_for trace metrics obs_level =
    let obs_level = Option.value obs_level ~default:Obs.Metrics in
    let io =
      let base = Ace_util.Io.real in
      let base =
        match io_faults with
        | Some rate -> Ace_faults.Faults.storage_io ~rate base
        | None -> base
      in
      match enospc_for with
      | Some secs ->
          let until = Unix.gettimeofday () +. secs in
          Ace_util.Io.enospc_while (fun () -> Unix.gettimeofday () < until) base
      | None -> base
    in
    Ace_serve.Daemon.run
      {
        Ace_serve.Daemon.socket_path = socket;
        spool_dir = spool;
        workers = jobs;
        queue_max;
        checkpoint_every;
        kill_after;
        obs_level;
        trace;
        metrics;
        verbose;
        io;
      }
  in
  let info =
    Cmd.info "serve"
      ~doc:
        "Run the tuning-as-a-service daemon: accept simulation jobs over a \
         Unix-domain socket, execute them crash-safely (checkpoints, \
         retries, supervised restart recovery), drain gracefully on \
         SIGTERM."
  in
  Cmd.v info
    Term.(
      const action $ socket_arg $ spool $ jobs $ queue_max $ checkpoint_every
      $ kill_after $ verbose $ io_faults $ enospc_for $ trace_arg
      $ metrics_arg $ obs_level_arg)

let submit_cmd =
  let workload =
    Arg.(
      required
      & pos 0 (some workload_conv) None
      & info [] ~docv:"BENCHMARK" ~doc:"SPECjvm98 benchmark name.")
  in
  let deadline =
    Arg.(
      value
      & opt (some (pos_float_conv "deadline")) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget for the job; exceeding it fails the job \
             without retries.")
  in
  let fail_after =
    Arg.(
      value
      & opt (some (pos_int_conv "failure point")) None
      & info [ "fail-after" ] ~docv:"N"
          ~doc:
            "Test hook: poison the job so every attempt raises at the \
             first checkpoint boundary at or past $(docv) instructions \
             (exercises retry and quarantine).")
  in
  let sample = sample_arg "With $(b,--faults) it requires $(b,--resilient)." in
  let wait =
    Arg.(
      value & flag
      & info [ "wait" ]
          ~doc:
            "Block until the job settles and print its output (the exact \
             $(b,ace_sim run) summary); exit 1 if it failed.")
  in
  let timeout =
    Arg.(
      value
      & opt (pos_float_conv "timeout") 120.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Give up waiting after $(docv) seconds (with $(b,--wait)).")
  in
  let action socket workload scheme scale seed fault_rate resilient sample
      deadline fail_after wait timeout =
    check_sample_faults ~sample ~fault_rate ~resilient;
    let spec =
      Serve_protocol.job_spec ?fault_rate ~resilient ~sample:(sample <> None)
        ?deadline_s:deadline ?fail_after ~scale ~seed
        ~workload:workload.Ace_workloads.Workload.name scheme
    in
    match Serve_client.submit ~socket spec with
    | Serve_protocol.Accepted id ->
        if not wait then Printf.printf "accepted job %d\n" id
        else (
          match Serve_client.wait ~socket ~timeout id with
          | `Done output -> print_string output
          | `Failed msg ->
              Printf.eprintf "ace_sim: job %d failed: %s\n" id msg;
              exit 1
          | `Timeout ->
              Printf.eprintf "ace_sim: timed out waiting for job %d\n" id;
              exit 1)
    | Serve_protocol.Overloaded ->
        Printf.eprintf "ace_sim: daemon overloaded, try again later\n";
        (* EX_TEMPFAIL: scripted submitters can distinguish backpressure
           from hard failures. *)
        exit 75
    | Serve_protocol.Error_resp msg ->
        Printf.eprintf "ace_sim: %s\n" msg;
        exit 1
    | _ ->
        Printf.eprintf "ace_sim: unexpected response from daemon\n";
        exit 1
  in
  let info =
    Cmd.info "submit" ~doc:"Submit a simulation job to a running serve daemon."
  in
  Cmd.v info
    Term.(
      const action $ socket_arg $ workload $ scheme_arg $ scale_arg $ seed_arg
      $ faults_arg $ resilient_arg $ sample $ deadline $ fail_after $ wait
      $ timeout)

let status_cmd =
  let job =
    Arg.(
      value
      & opt (some int) None
      & info [ "job" ] ~docv:"ID"
          ~doc:"Show one job's state (and output, once settled).")
  in
  let action socket job =
    match job with
    | Some id -> (
        match Serve_client.result ~socket id with
        | Serve_protocol.Result_ok { id; state; output } -> (
            Printf.printf "job %d: %s\n" id state;
            match output with
            | Some out ->
                (* A done job's output ends its last line; a failed job's
                   reason does not. *)
                print_string out;
                if out <> "" && not (String.ends_with ~suffix:"\n" out) then
                  print_newline ()
            | None -> ())
        | Serve_protocol.Error_resp msg ->
            Printf.eprintf "ace_sim: %s\n" msg;
            exit 1
        | _ ->
            Printf.eprintf "ace_sim: unexpected response from daemon\n";
            exit 1)
    | None -> (
        match Serve_client.status ~socket with
        | Serve_protocol.Status_ok r ->
            Printf.printf "queue depth      : %d\n" r.Serve_protocol.queue_depth;
            Printf.printf "running          : %d\n" r.Serve_protocol.running;
            Printf.printf "draining         : %s\n"
              (if r.Serve_protocol.draining then "yes" else "no");
            Printf.printf "degraded         : %s\n"
              (if r.Serve_protocol.degraded then "yes" else "no");
            List.iter
              (fun (name, v) -> Printf.printf "%-17s: %d\n" name v)
              r.Serve_protocol.counters;
            List.iter
              (fun (ji : Serve_protocol.job_info) ->
                Printf.printf "job %d: %s\n" ji.Serve_protocol.id
                  ji.Serve_protocol.state)
              r.Serve_protocol.jobs
        | Serve_protocol.Error_resp msg ->
            Printf.eprintf "ace_sim: %s\n" msg;
            exit 1
        | _ ->
            Printf.eprintf "ace_sim: unexpected response from daemon\n";
            exit 1)
  in
  let info =
    Cmd.info "status"
      ~doc:
        "Query a running serve daemon: queue depth, counters and per-job \
         states, or one job's result with $(b,--job)."
  in
  Cmd.v info Term.(const action $ socket_arg $ job)

let stop_cmd =
  let action socket =
    match Serve_client.stop ~socket with
    | Serve_protocol.Stopping -> print_endline "draining"
    | _ ->
        Printf.eprintf "ace_sim: unexpected response from daemon\n";
        exit 1
  in
  let info =
    Cmd.info "stop"
      ~doc:
        "Ask a running serve daemon to drain: finish or snapshot running \
         jobs, then exit (queued jobs stay spooled for the next daemon)."
  in
  Cmd.v info Term.(const action $ socket_arg)

let () =
  let client_guard f =
    try f () with
    | Serve_client.Client_error msg ->
        Printf.eprintf "ace_sim: %s\n" msg;
        exit 1
    | e ->
        (* Preserve cmdliner's default uncaught-exception behavior, which
           [~catch:false] below disables. *)
        Printf.eprintf "ace_sim: internal error, uncaught exception:\n%s\n"
          (Printexc.to_string e);
        exit 125
  in
  let info =
    Cmd.info "ace_sim" ~version:"1.0.0"
      ~doc:
        "Reproduction of 'Effective Adaptive Computing Environment Management \
         via Dynamic Optimization' (CGO 2005)."
  in
  client_guard (fun () ->
      (* [~catch:false]: cmdliner must not swallow Client_error into its
         generic "internal error" report — the guard above turns it into a
         plain diagnostic and exit 1. *)
      exit
        (Cmd.eval ~catch:false
           (Cmd.group info
              [
                run_cmd; report_cmd; exp_cmd; list_cmd; serve_cmd; submit_cmd;
                status_cmd; stop_cmd;
              ])))
