(* Wire protocol, spool and daemon tests for ace_serve.

   The unit half round-trips the codecs and framing; the integration
   half spawns the real binary ([ace_sim serve]) against a private spool,
   drives it through the client library, and asserts the issue's core
   robustness claims: byte-identical results vs batch runs, explicit
   [Overloaded] backpressure, poisoned-job quarantine, and kill -9 /
   chaos-kill restart recovery. *)

module Protocol = Ace_serve.Protocol
module Spool = Ace_serve.Spool
module Client = Ace_serve.Client
module Scheme = Ace_harness.Scheme
module Run = Ace_harness.Run
module Render = Ace_harness.Render
module Scratch = Ace_util.Scratch
module Io = Ace_util.Io

let compress () = Option.get (Ace_workloads.Specjvm.find "compress")

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let expected_output ~scale ~seed scheme =
  Render.run_output (Run.run ~scale ~seed (compress ()) scheme)

(* ------------------------------------------------------------------ *)
(* Codecs                                                              *)
(* ------------------------------------------------------------------ *)

let spec_gen =
  let open QCheck.Gen in
  (* Any byte: a length-prefixed string must carry every one. *)
  let* workload = string_size ~gen:char (int_range 0 24) in
  let* scheme = oneofl [ Scheme.Fixed_baseline; Scheme.Hotspot; Scheme.Bbv ] in
  let* scale = float_range 0.001 64.0 in
  let* seed = int_range 0 1_000_000 in
  let* fault_rate = opt (float_range 0.0 1.0) in
  let* resilient = bool in
  (* The decoder refuses sample+faults without resilience, so only generate
     combinations it admits. *)
  let* sample = bool in
  let sample = sample && (fault_rate = None || resilient) in
  let* deadline_s = opt (float_range 0.001 3600.0) in
  let+ fail_after = opt (int_range 1 1_000_000_000) in
  { Protocol.workload; scheme; scale; seed; fault_rate; resilient; sample;
    deadline_s; fail_after }

let print_spec (s : Protocol.job_spec) =
  let opt f = Option.fold ~none:"-" ~some:f in
  Printf.sprintf "%S %s scale %h seed %d faults %s resilient %b sample %b \
                  deadline %s fail_after %s"
    s.workload (Scheme.name s.scheme) s.scale s.seed
    (opt (Printf.sprintf "%h") s.fault_rate) s.resilient s.sample
    (opt (Printf.sprintf "%h") s.deadline_s) (opt string_of_int s.fail_after)

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"job spec codec round-trips exactly" ~count:500
    (QCheck.make ~print:print_spec spec_gen) (fun spec ->
      Protocol.decode_spec (Protocol.encode_spec spec) = spec)

let test_spec_roundtrip_awkward_strings () =
  (* Workload names the submit path would reject, but the codec must still
     carry faithfully: quotes, backslashes, control characters. *)
  [ "a\"b"; "back\\slash"; "tab\tnewline\n"; ""; "nul\x00byte"; "\x1f" ]
  |> List.iter (fun workload ->
         let spec = Protocol.job_spec ~workload Scheme.Hotspot in
         let spec' = Protocol.decode_spec (Protocol.encode_spec spec) in
         Alcotest.(check string) "workload survives" workload spec'.Protocol.workload)

let sample_report =
  { Protocol.queue_depth = 3; running = 2; draining = true; degraded = true;
    counters = [ ("serve.completed", 5); ("serve.submitted", 9) ];
    jobs = [ { Protocol.id = 1; state = "done" }; { Protocol.id = 2; state = "running" } ] }

let test_request_roundtrip () =
  let specs =
    [ Protocol.job_spec ~workload:"compress" Scheme.Hotspot;
      Protocol.job_spec ~scale:0.25 ~seed:7 ~fault_rate:0.01 ~resilient:true
        ~deadline_s:12.5 ~fail_after:1_000_000 ~workload:"db" Scheme.Bbv ]
  in
  let reqs =
    List.map (fun s -> Protocol.Submit s) specs
    @ [ Protocol.Status; Protocol.Result 42; Protocol.Stop ]
  in
  List.iter
    (fun req ->
      let req' = Protocol.decode_request (Protocol.encode_request req) in
      Alcotest.(check bool) "request round-trips" true (req = req'))
    reqs

let test_response_roundtrip () =
  let resps =
    [ Protocol.Accepted 17; Protocol.Overloaded; Protocol.Status_ok sample_report;
      Protocol.Result_ok { id = 3; state = "done"; output = Some "table\n" };
      Protocol.Result_ok { id = 4; state = "queued"; output = None };
      Protocol.Stopping; Protocol.Error_resp "unknown workload" ]
  in
  List.iter
    (fun resp ->
      let resp' = Protocol.decode_response (Protocol.encode_response resp) in
      Alcotest.(check bool) "response round-trips" true (resp = resp'))
    resps

(* Names the response in a failure message; the encoding is binary. *)
let response_name = function
  | Protocol.Accepted id -> Printf.sprintf "Accepted %d" id
  | Protocol.Overloaded -> "Overloaded"
  | Protocol.Status_ok _ -> "Status_ok"
  | Protocol.Result_ok { id; state; _ } -> Printf.sprintf "Result_ok %d %s" id state
  | Protocol.Stopping -> "Stopping"
  | Protocol.Error_resp msg -> "Error_resp " ^ msg

let test_decode_rejects_garbage () =
  (* Each case must be refused for the reason it is named for, not for
     whatever breaks first. *)
  let expect what ~says f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Protocol_error" what
    | exception Protocol.Protocol_error msg ->
        if not (contains msg says) then
          Alcotest.failf "%s: refused as %S, not for %S" what msg says
  in
  let request s () = Protocol.decode_request s in
  let spec = Protocol.job_spec ~workload:"compress" Scheme.Hotspot in
  (* The encoder does not validate, so an out-of-range spec encodes. *)
  let submit s = request (Protocol.encode_request (Protocol.Submit s)) in
  let submit_bytes = Protocol.encode_request (Protocol.Submit spec) in
  expect "a JSON request, as an older client sends it" ~says:"bad request tag 123"
    (request {|{"type":"status"}|});
  expect "unknown request tag" ~says:"bad request tag 4" (request "\x04");
  expect "submit without a spec" ~says:"truncated" (request (String.sub submit_bytes 0 1));
  expect "bad scheme tag" ~says:"bad scheme tag 7" (fun () ->
      (* The scheme follows the request tag and the length-prefixed
         workload. *)
      let b = Bytes.of_string submit_bytes in
      Bytes.set b (1 + 8 + String.length spec.workload) '\x07';
      Protocol.decode_request (Bytes.to_string b));
  expect "negative scale" ~says:"scale" (submit { spec with scale = -1.0 });
  expect "NaN scale" ~says:"scale" (submit { spec with scale = Float.nan });
  expect "infinite scale" ~says:"scale" (submit { spec with scale = Float.infinity });
  expect "fault rate out of range" ~says:"fault_rate"
    (submit { spec with fault_rate = Some 1.5 });
  expect "sample with faults, not resilient" ~says:"requires resilient"
    (submit { spec with sample = true; fault_rate = Some 0.01 });
  expect "zero deadline" ~says:"deadline_s" (submit { spec with deadline_s = Some 0.0 });
  expect "zero fail_after" ~says:"fail_after" (submit { spec with fail_after = Some 0 });
  expect "trailing byte" ~says:"1 trailing bytes"
    (request (Protocol.encode_request Protocol.Status ^ "\x00"));
  expect "a JSON response, as an older daemon sends it" ~says:"bad response tag 123"
    (fun () -> Protocol.decode_response {|{"type":"stopping"}|});
  expect "unknown response tag" ~says:"bad response tag 6" (fun () ->
      Protocol.decode_response "\x06")

let mem_spool () =
  let io = Io.Mem.io (Io.Mem.create ()) and dir = "/spool" in
  Spool.ensure_dir ~io dir;
  (io, dir)

let spec_file spec =
  let io, dir = mem_spool () in
  Spool.write_spec ~io ~dir 1 spec;
  Io.read_file io (Spool.spec_path ~dir 1)

(* A spool on the in-memory filesystem holding spec files with these ids
   and bytes, scanned as a restarted daemon would. *)
let scan_spec_files files =
  let io, dir = mem_spool () in
  List.iter (fun (id, data) -> Io.write_file io (Spool.spec_path ~dir id) data) files;
  Spool.scan ~io ~dir ()

(* Every encoding a decoder takes from outside the process: frames from a
   peer and spec files from disk.  A frame decodes to a value or raises
   [Protocol_error]; a spec file is either pending or refused. *)
let hostile_targets spec =
  let request r = (Protocol.encode_request r, fun s -> ignore (Protocol.decode_request s)) in
  let response r =
    (Protocol.encode_response r, fun s -> ignore (Protocol.decode_response s))
  in
  let spec_file_scan data =
    match scan_spec_files [ (1, data) ] with
    | { Spool.pending = [ _ ]; refused = []; _ } | { pending = []; refused = [ _ ]; _ } -> ()
    | _ -> failwith "spec file neither pending nor refused"
  in
  [ ("submit", request (Protocol.Submit spec));
    ("result request", request (Protocol.Result spec.seed));
    ("status report", response (Protocol.Status_ok sample_report));
    ("job result",
     response (Protocol.Result_ok { id = 3; state = "done"; output = Some spec.workload }));
    ("error", response (Protocol.Error_resp spec.workload));
    ("spec file", (spec_file spec, spec_file_scan)) ]

let prop_hostile_bytes =
  let n = List.length (hostile_targets (Protocol.job_spec ~workload:"" Scheme.Hotspot)) in
  let print (spec, i, m) =
    Printf.sprintf "%s of %s: %s"
      (fst (List.nth (hostile_targets spec) i))
      (print_spec spec) (Tu.mutation_to_string m)
  in
  QCheck.Test.make ~name:"hostile bytes: a value or a Protocol_error" ~count:2000
    (QCheck.make ~print QCheck.Gen.(triple spec_gen (int_bound (n - 1)) Tu.mutation_gen))
    (fun (spec, i, m) ->
      let bytes, decode = snd (List.nth (hostile_targets spec) i) in
      match decode (Tu.mutate bytes m) with
      | () -> true
      | exception Protocol.Protocol_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ r; w ])
    (fun () -> f r w)

let test_frame_roundtrip () =
  with_pipe (fun r w ->
      [ ""; "x"; {|{"type":"status"}|}; String.make 40_000 'z' ]
      |> List.iter (fun payload ->
             Protocol.write_frame w payload;
             Alcotest.(check string) "frame round-trips" payload (Protocol.read_frame r)))

let test_frame_oversized_write_refused () =
  with_pipe (fun _r w ->
      match Protocol.write_frame w (String.make (Protocol.max_frame + 1) 'a') with
      | () -> Alcotest.fail "oversized write_frame should raise"
      | exception Protocol.Protocol_error _ -> ())

let test_frame_oversized_length_refused () =
  with_pipe (fun r w ->
      let header = Bytes.create 4 in
      Bytes.set_int32_le header 0 (Int32.of_int (Protocol.max_frame + 1));
      ignore (Unix.write w header 0 4);
      match Protocol.read_frame r with
      | _ -> Alcotest.fail "oversized declared length should raise"
      | exception Protocol.Protocol_error _ -> ())

let test_frame_negative_length_refused () =
  with_pipe (fun r w ->
      let header = Bytes.create 4 in
      Bytes.set_int32_le header 0 (-1l);
      ignore (Unix.write w header 0 4);
      match Protocol.read_frame r with
      | _ -> Alcotest.fail "negative declared length should raise"
      | exception Protocol.Protocol_error _ -> ())

let test_frame_eof_mid_frame () =
  with_pipe (fun r w ->
      (* Declare 100 bytes, deliver 10, then close the writer. *)
      let header = Bytes.create 4 in
      Bytes.set_int32_le header 0 100l;
      ignore (Unix.write w header 0 4);
      ignore (Unix.write_substring w "0123456789" 0 10);
      Unix.close w;
      match Protocol.read_frame r with
      | _ -> Alcotest.fail "EOF mid-frame should raise"
      | exception Protocol.Protocol_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Spool                                                               *)
(* ------------------------------------------------------------------ *)

let test_spool_scan_classifies () =
  Scratch.with_temp_dir ~prefix:"ace_spool" (fun dir ->
      let spec = Protocol.job_spec ~scale:0.1 ~seed:3 ~workload:"compress" Scheme.Hotspot in
      Spool.write_spec ~dir 1 spec;
      Spool.write_spec ~dir 2 spec;
      Spool.settle ~dir 2 (`Result "output\n");
      Spool.write_spec ~dir 5 spec;
      Spool.settle ~dir 5 (`Failed "poisoned");
      let scan = Spool.scan ~dir () in
      Alcotest.(check int) "next id past the highest ever used" 6 scan.Spool.next_id;
      Alcotest.(check (list int)) "pending"
        [ 1 ] (List.map (fun e -> e.Spool.id) scan.Spool.pending);
      Alcotest.(check (list int)) "done" [ 2 ] scan.Spool.done_ids;
      Alcotest.(check (list int)) "failed" [ 5 ] scan.Spool.failed_ids;
      Alcotest.(check (option string)) "result readable"
        (Some "output\n") (Spool.read_result ~dir 2);
      Alcotest.(check (option string)) "failure readable"
        (Some "poisoned") (Spool.read_failed ~dir 5);
      let entry = List.hd scan.Spool.pending in
      Alcotest.(check bool) "pending spec survives" true (entry.Spool.spec = spec);
      Alcotest.(check (option string)) "no snapshot, no note" None entry.Spool.snapshot_note)

let test_spool_scan_notes_truncated_snapshot () =
  Scratch.with_temp_dir ~prefix:"ace_spool" (fun dir ->
      let spec = Protocol.job_spec ~workload:"compress" Scheme.Hotspot in
      Spool.write_spec ~dir 1 spec;
      (* A crash mid-write leaves a zero-byte primary snapshot; the scan must
         classify the job as pending and explain why the snapshot is dead. *)
      let oc = open_out (Spool.snap_path ~dir 1) in
      close_out oc;
      let scan = Spool.scan ~dir () in
      match scan.Spool.pending with
      | [ entry ] ->
          let note = Option.value ~default:"" entry.Spool.snapshot_note in
          Alcotest.(check bool)
            (Printf.sprintf "note mentions truncation: %S" note)
            true
            (String.length note > 0 && contains note "truncated")
      | _ -> Alcotest.fail "expected exactly one pending entry")

(* A spec as a daemon from before the codec format spooled it. *)
let json_spec =
  {|{"workload":"compress","scheme":"hotspot","scale":0.1,"seed":3,"fault_rate":null,"resilient":false,"sample":false,"deadline_s":null,"fail_after":null}|}

let test_spool_scan_refuses_undecodable () =
  let spec = Protocol.job_spec ~workload:"compress" Scheme.Hotspot in
  let flipped =
    (* One flipped payload byte: the last, past the 12-byte header. *)
    let b = Bytes.of_string (spec_file spec) in
    let last = Bytes.length b - 1 in
    Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 1));
    Bytes.to_string b
  in
  let scan = scan_spec_files [ (1, json_spec); (2, flipped); (3, spec_file spec) ] in
  Alcotest.(check (list int)) "only the intact spec is pending"
    [ 3 ] (List.map (fun e -> e.Spool.id) scan.Spool.pending);
  Alcotest.(check (list int)) "refused ids" [ 1; 2 ] (List.map fst scan.Spool.refused);
  let reason id = List.assoc id scan.Spool.refused in
  Alcotest.(check bool) ("JSON spec: " ^ reason 1) true (contains (reason 1) "JSON");
  Alcotest.(check bool) ("flipped byte: " ^ reason 2) true (contains (reason 2) "CRC");
  Alcotest.(check int) "refused ids still count" 4 scan.Spool.next_id

(* ------------------------------------------------------------------ *)
(* Daemon integration (spawns ../bin/ace_sim.exe)                      *)
(* ------------------------------------------------------------------ *)

let exe = "../bin/ace_sim.exe"

let start_daemon ?kill_after ?enospc_for ?(workers = 1) ?(queue_max = 8)
    ?(checkpoint_every = 500_000) ~socket ~spool () =
  let args =
    [ exe; "serve"; "--socket"; socket; "--spool"; spool; "--jobs";
      string_of_int workers; "--queue-max"; string_of_int queue_max;
      "--checkpoint-every"; string_of_int checkpoint_every ]
    @ (match kill_after with
      | Some n -> [ "--kill-after"; string_of_int n ]
      | None -> [])
    @ (match enospc_for with
      | Some s -> [ "--enospc-for"; string_of_float s ]
      | None -> [])
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close devnull)
    (fun () -> Unix.create_process exe (Array.of_list args) Unix.stdin devnull devnull)

let reap pid =
  match Unix.waitpid [] pid with
  | _, status -> Some status
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None

let kill_hard pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (reap pid)

let wait_until ?(timeout = 30.0) ~what pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

let daemon_ready ~socket () =
  match Client.status ~socket with
  | Protocol.Status_ok _ -> true
  | _ -> false
  | exception Client.Client_error _ -> false

let get_status ~socket =
  match Client.status ~socket with
  | Protocol.Status_ok r -> r
  | other ->
      Alcotest.failf "unexpected status response: %s" (response_name other)

let counter report name =
  match List.assoc_opt name report.Protocol.counters with Some n -> n | None -> 0

let submit_ok ~socket spec =
  match Client.submit ~socket spec with
  | Protocol.Accepted id -> id
  | other ->
      Alcotest.failf "submit not accepted: %s" (response_name other)

let wait_done ~socket id =
  match Client.wait ~socket ~poll_interval:0.03 ~timeout:60.0 id with
  | `Done out -> out
  | `Failed msg -> Alcotest.failf "job %d failed: %s" id msg
  | `Timeout -> Alcotest.failf "job %d timed out" id

let stop_and_reap ~socket pid =
  (match Client.stop ~socket with
  | Protocol.Stopping -> ()
  | other ->
      Alcotest.failf "unexpected stop response: %s" (response_name other)
  | exception Client.Client_error _ -> ());
  match reap pid with
  | Some (Unix.WEXITED 0) | None -> ()
  | Some (Unix.WEXITED n) -> Alcotest.failf "daemon exited %d after drain" n
  | Some (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
      Alcotest.failf "daemon killed by signal %d after drain" s

let with_serve_env f =
  Scratch.with_temp_dir ~prefix:"ace_serve" (fun dir ->
      let socket = Filename.concat dir "sock" in
      let spool = Filename.concat dir "spool" in
      f ~socket ~spool)

(* Submit → wait → result byte-identical to the batch run, plus explicit
   backpressure at the queue high-water mark. *)
let test_daemon_roundtrip_and_backpressure () =
  with_serve_env (fun ~socket ~spool ->
      let pid = start_daemon ~workers:1 ~queue_max:1 ~socket ~spool () in
      Fun.protect
        ~finally:(fun () -> kill_hard pid)
        (fun () ->
          wait_until ~what:"daemon socket" (daemon_ready ~socket);
          let a =
            submit_ok ~socket
              (Protocol.job_spec ~scale:0.2 ~seed:3 ~workload:"compress"
                 Scheme.Hotspot)
          in
          (* Wait until job A is dispatched so the queue-depth arithmetic
             below is deterministic: running 1, queue 0, high-water 1. *)
          wait_until ~what:"job dispatch" (fun () ->
              let r = get_status ~socket in
              r.Protocol.running = 1 && r.Protocol.queue_depth = 0);
          let b =
            submit_ok ~socket
              (Protocol.job_spec ~scale:0.1 ~seed:4 ~workload:"compress"
                 Scheme.Fixed_baseline)
          in
          (match
             Client.submit ~socket
               (Protocol.job_spec ~scale:0.1 ~seed:5 ~workload:"compress"
                  Scheme.Bbv)
           with
          | Protocol.Overloaded -> ()
          | other ->
              Alcotest.failf "expected Overloaded, got %s" (response_name other));
          let unknown =
            Client.submit ~socket
              (Protocol.job_spec ~workload:"no-such-benchmark" Scheme.Hotspot)
          in
          (match unknown with
          | Protocol.Error_resp _ -> ()
          | other ->
              Alcotest.failf "expected Error_resp for unknown workload, got %s"
                (response_name other));
          Alcotest.(check string) "job A byte-identical to batch run"
            (expected_output ~scale:0.2 ~seed:3 Scheme.Hotspot)
            (wait_done ~socket a);
          Alcotest.(check string) "job B byte-identical to batch run"
            (expected_output ~scale:0.1 ~seed:4 Scheme.Fixed_baseline)
            (wait_done ~socket b);
          let r = get_status ~socket in
          Alcotest.(check int) "submitted counter" 2 (counter r "submitted");
          Alcotest.(check int) "rejection counter" 1
            (counter r "rejected_overloaded");
          Alcotest.(check int) "completed counter" 2 (counter r "completed");
          stop_and_reap ~socket pid))

(* A poisoned job exhausts its retries and is quarantined as failed while a
   sibling job on the same daemon completes normally. *)
let test_daemon_poisoned_job_isolation () =
  with_serve_env (fun ~socket ~spool ->
      let pid = start_daemon ~workers:1 ~queue_max:8 ~socket ~spool () in
      Fun.protect
        ~finally:(fun () -> kill_hard pid)
        (fun () ->
          wait_until ~what:"daemon socket" (daemon_ready ~socket);
          let poisoned =
            submit_ok ~socket
              (Protocol.job_spec ~scale:0.1 ~seed:6 ~fail_after:1
                 ~workload:"compress" Scheme.Hotspot)
          in
          let healthy =
            submit_ok ~socket
              (Protocol.job_spec ~scale:0.1 ~seed:7 ~workload:"compress"
                 Scheme.Fixed_baseline)
          in
          (match Client.wait ~socket ~poll_interval:0.05 ~timeout:60.0 poisoned with
          | `Failed msg ->
              Alcotest.(check bool)
                (Printf.sprintf "failure message mentions attempts: %S" msg)
                true
                (contains msg "attempt")
          | `Done _ -> Alcotest.fail "poisoned job should not complete"
          | `Timeout -> Alcotest.fail "poisoned job never settled");
          Alcotest.(check string) "healthy sibling byte-identical to batch run"
            (expected_output ~scale:0.1 ~seed:7 Scheme.Fixed_baseline)
            (wait_done ~socket healthy);
          let r = get_status ~socket in
          Alcotest.(check int) "failed counter" 1 (counter r "failed");
          Alcotest.(check int) "two retries before quarantine" 2
            (counter r "retries");
          Alcotest.(check int) "completed counter" 1 (counter r "completed");
          stop_and_reap ~socket pid))

(* SIGKILL the daemon mid-run; a restarted daemon rescans the spool, resumes
   the in-flight job from its snapshot and finishes byte-identically. *)
let test_daemon_kill9_restart_resume () =
  with_serve_env (fun ~socket ~spool ->
      let pid = start_daemon ~workers:1 ~queue_max:8 ~socket ~spool () in
      let pid2 = ref None in
      Fun.protect
        ~finally:(fun () ->
          kill_hard pid;
          Option.iter kill_hard !pid2)
        (fun () ->
          wait_until ~what:"daemon socket" (daemon_ready ~socket);
          let a =
            submit_ok ~socket
              (Protocol.job_spec ~scale:0.2 ~seed:3 ~workload:"compress"
                 Scheme.Hotspot)
          in
          let b =
            submit_ok ~socket
              (Protocol.job_spec ~scale:0.2 ~seed:4 ~workload:"compress"
                 Scheme.Bbv)
          in
          (* Kill only once the first job has snapshotted, so the restart
             exercises the resume path rather than a fresh re-run. *)
          wait_until ~what:"first snapshot" (fun () ->
              Sys.file_exists (Spool.snap_path ~dir:spool a));
          Unix.kill pid Sys.sigkill;
          (match reap pid with
          | Some (Unix.WSIGNALED s) when s = Sys.sigkill -> ()
          | st ->
              Alcotest.failf "unexpected first-life status: %s"
                (match st with
                | Some (Unix.WEXITED n) -> Printf.sprintf "exit %d" n
                | Some (Unix.WSIGNALED s) -> Printf.sprintf "signal %d" s
                | Some (Unix.WSTOPPED s) -> Printf.sprintf "stopped %d" s
                | None -> "already reaped"));
          let restarted = start_daemon ~workers:1 ~queue_max:8 ~socket ~spool () in
          pid2 := Some restarted;
          wait_until ~what:"restarted daemon socket" (daemon_ready ~socket);
          Alcotest.(check string) "job A resumed byte-identically"
            (expected_output ~scale:0.2 ~seed:3 Scheme.Hotspot)
            (wait_done ~socket a);
          Alcotest.(check string) "job B completed byte-identically"
            (expected_output ~scale:0.2 ~seed:4 Scheme.Bbv)
            (wait_done ~socket b);
          let r = get_status ~socket in
          Alcotest.(check bool) "restart requeued the in-flight jobs" true
            (counter r "requeued" >= 1);
          Alcotest.(check bool) "at least one job resumed from a snapshot" true
            (counter r "resumes" >= 1);
          stop_and_reap ~socket restarted))

(* Full disk: submits are refused with explicit backpressure, status
   reports [degraded], and when space returns the storage probe lifts
   degraded mode automatically — no restart, no lost acknowledgements. *)
let test_daemon_degraded_enospc () =
  with_serve_env (fun ~socket ~spool ->
      (* Pre-create the spool so startup's [ensure_dir] finds it and the
         full-disk window hits the first spec write instead. *)
      Spool.ensure_dir spool;
      let pid = start_daemon ~enospc_for:5.0 ~workers:1 ~socket ~spool () in
      Fun.protect
        ~finally:(fun () -> kill_hard pid)
        (fun () ->
          wait_until ~what:"daemon socket" (daemon_ready ~socket);
          let spec =
            Protocol.job_spec ~scale:0.1 ~seed:9 ~workload:"compress"
              Scheme.Fixed_baseline
          in
          (* The disk is full: the durable-before-acknowledged contract
             cannot be kept, so the daemon must refuse rather than accept. *)
          (match Client.submit ~socket spec with
          | Protocol.Overloaded -> ()
          | other ->
              Alcotest.failf "expected Overloaded on a full disk, got %s"
                (response_name other));
          let r = get_status ~socket in
          Alcotest.(check bool) "status reports degraded" true r.Protocol.degraded;
          Alcotest.(check bool) "io_faults counter ticked" true
            (counter r "io_faults" >= 1);
          (* While degraded, further submits are refused without touching
             the (still-broken) spool. *)
          (match Client.submit ~socket spec with
          | Protocol.Overloaded -> ()
          | other ->
              Alcotest.failf "expected Overloaded while degraded, got %s"
                (response_name other));
          (* Space returns; the per-tick probe must clear degraded mode on
             its own — no restart, no operator intervention. *)
          wait_until ~timeout:30.0 ~what:"degraded mode to lift" (fun () ->
              not (get_status ~socket).Protocol.degraded);
          let id = submit_ok ~socket spec in
          Alcotest.(check string) "post-recovery job byte-identical"
            (expected_output ~scale:0.1 ~seed:9 Scheme.Fixed_baseline)
            (wait_done ~socket id);
          let r = get_status ~socket in
          Alcotest.(check bool) "rejections were counted" true
            (counter r "rejected_overloaded" >= 2);
          stop_and_reap ~socket pid))

(* A spool written before specs were codec bytes: the daemon refuses the
   spec and lists the job as failed with the reason, without settling it
   on disk. *)
let test_daemon_lists_refused_spec () =
  with_serve_env (fun ~socket ~spool ->
      Spool.ensure_dir spool;
      Out_channel.with_open_bin (Spool.spec_path ~dir:spool 1) (fun oc ->
          output_string oc json_spec);
      let pid = start_daemon ~socket ~spool () in
      Fun.protect
        ~finally:(fun () -> kill_hard pid)
        (fun () ->
          wait_until ~what:"daemon socket" (daemon_ready ~socket);
          (match Client.result ~socket 1 with
          | Protocol.Result_ok { state = "failed"; output = Some why; _ } ->
              Alcotest.(check bool) ("reason says why: " ^ why) true
                (contains why "spec refused" && contains why "JSON")
          | other -> Alcotest.failf "job 1: %s" (response_name other));
          (* The CLI ends the reason's line like every other line. *)
          let shown =
            let ic =
              Unix.open_process_args_in exe
                [| exe; "status"; "--socket"; socket; "--job"; "1" |]
            in
            Fun.protect
              ~finally:(fun () -> ignore (Unix.close_process_in ic))
              (fun () -> In_channel.input_all ic)
          in
          Alcotest.(check bool) ("status --job output ends a line: " ^ shown) true
            (contains shown "spec refused" && String.ends_with ~suffix:"\n" shown);
          Alcotest.(check (option string)) "nothing settled on disk" None
            (Spool.read_failed ~dir:spool 1);
          stop_and_reap ~socket pid))

(* Acceptance criterion: kill the daemon 10 seeded times mid-queue via
   --kill-after chaos; every accepted job still completes and every result
   is byte-identical to the batch run. *)
let test_daemon_chaos_soak () =
  with_serve_env (fun ~socket ~spool ->
      let jobs =
        [ (Scheme.Hotspot, 3); (Scheme.Fixed_baseline, 4); (Scheme.Bbv, 5) ]
      in
      let expected =
        List.map (fun (scheme, seed) -> expected_output ~scale:0.2 ~seed scheme) jobs
      in
      (* Seeded kill points (instructions executed per daemon life). *)
      let kill_points =
        let st = Random.State.make [| 0xACE; 42 |] in
        List.init 10 (fun _ -> 600_000 + Random.State.int st 2_000_000)
      in
      let live = ref None in
      Fun.protect
        ~finally:(fun () -> Option.iter kill_hard !live)
        (fun () ->
          (* Life 0: no chaos — get every job durably accepted first, so all
             ten kills strike mid-queue. *)
          let pid0 = start_daemon ~workers:2 ~queue_max:8 ~socket ~spool () in
          live := Some pid0;
          wait_until ~what:"daemon socket" (daemon_ready ~socket);
          let ids =
            List.map
              (fun (scheme, seed) ->
                submit_ok ~socket
                  (Protocol.job_spec ~scale:0.2 ~seed ~workload:"compress" scheme))
              jobs
          in
          Unix.kill pid0 Sys.sigkill;
          ignore (reap pid0);
          live := None;
          (* Lives 1..10: each runs with a chaos kill switch and dies with
             exit 3 at a checkpoint boundary — unless the queue drains
             first, in which case the daemon idles and we move on. *)
          List.iteri
            (fun i kill_after ->
              let pid =
                start_daemon ~kill_after ~workers:2 ~queue_max:8 ~socket ~spool ()
              in
              live := Some pid;
              (* A life whose kill point comes within its first few
                 milliseconds can die before it ever answers a status
                 request; its exit status is then already waiting. *)
              let exited = ref None in
              wait_until ~what:"chaos daemon socket" (fun () ->
                  daemon_ready ~socket ()
                  ||
                  match Unix.waitpid [ Unix.WNOHANG ] pid with
                  | 0, _ -> false
                  | _, st ->
                      exited := Some st;
                      true);
              let all_done () =
                match Client.status ~socket with
                | Protocol.Status_ok r ->
                    List.for_all
                      (fun id ->
                        List.exists
                          (fun j -> j.Protocol.id = id && j.Protocol.state = "done")
                          r.Protocol.jobs)
                      ids
                | _ -> false
                | exception Client.Client_error _ -> false
              in
              let finished = function
                | Unix.WEXITED 3 -> live := None
                | st ->
                    Alcotest.failf "chaos life %d: unexpected exit %s" i
                      (match st with
                      | Unix.WEXITED n -> Printf.sprintf "code %d" n
                      | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
                      | Unix.WSTOPPED s -> Printf.sprintf "stop %d" s)
              in
              let rec await () =
                match Unix.waitpid [ Unix.WNOHANG ] pid with
                | 0, _ ->
                    if all_done () then begin
                      (* Queue drained before the kill switch tripped. *)
                      stop_and_reap ~socket pid;
                      live := None
                    end
                    else begin
                      Unix.sleepf 0.02;
                      await ()
                    end
                | _, st -> finished st
              in
              match !exited with Some st -> finished st | None -> await ())
            kill_points;
          (* Final life: no chaos; everything must complete. *)
          let pid = start_daemon ~workers:2 ~queue_max:8 ~socket ~spool () in
          live := Some pid;
          wait_until ~what:"final daemon socket" (daemon_ready ~socket);
          List.iteri
            (fun i id ->
              Alcotest.(check string)
                (Printf.sprintf "job %d byte-identical after chaos" id)
                (List.nth expected i) (wait_done ~socket id))
            ids;
          let r = get_status ~socket in
          Alcotest.(check int) "no job was lost or failed" 0 (counter r "failed");
          stop_and_reap ~socket pid;
          live := None))

let suite =
  [
    Tu.qcheck prop_spec_roundtrip;
    Tu.case "spec codec carries awkward strings" test_spec_roundtrip_awkward_strings;
    Tu.case "request codec round-trips" test_request_roundtrip;
    Tu.case "response codec round-trips" test_response_roundtrip;
    Tu.case "decoders reject malformed input" test_decode_rejects_garbage;
    Tu.case "frames round-trip over a pipe" test_frame_roundtrip;
    Tu.case "oversized frame write refused" test_frame_oversized_write_refused;
    Tu.case "oversized declared length refused" test_frame_oversized_length_refused;
    Tu.case "negative declared length refused" test_frame_negative_length_refused;
    Tu.case "EOF mid-frame refused" test_frame_eof_mid_frame;
    Tu.case "spool scan classifies job files" test_spool_scan_classifies;
    Tu.case "spool scan flags truncated snapshot" test_spool_scan_notes_truncated_snapshot;
    Tu.slow_case "daemon round-trip + backpressure" test_daemon_roundtrip_and_backpressure;
    Tu.slow_case "poisoned job is quarantined, daemon survives"
      test_daemon_poisoned_job_isolation;
    Tu.slow_case "kill -9, restart, resume bit-identically"
      test_daemon_kill9_restart_resume;
    Tu.slow_case "full disk: degraded mode, backpressure, auto-recovery"
      test_daemon_degraded_enospc;
    Tu.slow_case "chaos soak: 10 seeded kills, results byte-identical"
      test_daemon_chaos_soak;
    Tu.case "spool scan refuses undecodable specs" test_spool_scan_refuses_undecodable;
    Tu.qcheck prop_hostile_bytes;
    Tu.slow_case "refused spec listed as failed with its reason"
      test_daemon_lists_refused_spec;
  ]
