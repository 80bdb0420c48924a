module Obs = Ace_obs.Obs
module Export = Ace_obs.Export
module Io = Ace_util.Io
module Pool = Ace_util.Pool
module Snapshot = Ace_ckpt.Snapshot
module Run = Ace_harness.Run
module Render = Ace_harness.Render

type config = {
  socket_path : string;
  spool_dir : string;
  workers : int;
  queue_max : int;
  checkpoint_every : int;
  kill_after : int option;
  obs_level : Obs.level;
  trace : string option;
  metrics : string option;
  verbose : bool;
  io : Io.t;
}

(* -- job control exceptions (raised from [on_boundary]) ------------- *)

exception Deadline_exceeded of float
exception Poisoned of int
exception Drain_requested

let max_attempts = 3

(* -- worker -> supervisor mailbox ----------------------------------- *)

type msg =
  | M_resumed of { id : int; instrs : int }
  | M_retry of { id : int; attempt : int; reason : string }
  | M_done of { id : int; output : string }
  | M_failed of { id : int; reason : string }
  | M_drained of int
  | M_io_fault of { id : int; op : string; path : string; enospc : bool }

type mailbox = { mb_mutex : Mutex.t; mb_q : msg Queue.t }

let post mb m =
  Mutex.lock mb.mb_mutex;
  Queue.add m mb.mb_q;
  Mutex.unlock mb.mb_mutex

let drain_mailbox mb =
  Mutex.lock mb.mb_mutex;
  let msgs = List.of_seq (Queue.to_seq mb.mb_q) in
  Queue.clear mb.mb_q;
  Mutex.unlock mb.mb_mutex;
  msgs

(* -- supervisor state ----------------------------------------------- *)

type jstate = Queued | Running | Done | Failed of string | Interrupted

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed _ -> "failed"
  | Interrupted -> "interrupted"

type job = {
  id : int;
  spec : Protocol.job_spec;
  mutable state : jstate;
  mutable enqueued_at : float;
}

type stats = {
  mutable submitted : int;
  mutable rejected : int;
  mutable completed : int;
  mutable failed : int;
  mutable retries : int;
  mutable resumes : int;
  mutable requeued : int;
  mutable io_faults : int;
}

type t = {
  cfg : config;
  obs : Obs.t;
  jobs : (int, job) Hashtbl.t;
  queue : int Queue.t;
  mutable running : int;
  mutable next_id : int;
  stats : stats;
  drain : bool Atomic.t;
  chaos : int Atomic.t;  (** Instructions executed this daemon life. *)
  mb : mailbox;
  pool : Pool.t;
  mutable degraded : bool;
      (* Spool writes are hitting ENOSPC: admission paused, settles
         deferred, a per-tick probe watches for space coming back. *)
  deferred : (int * [ `Result of string | `Failed of string ]) Queue.t;
  (* metric handles *)
  c_submitted : Obs.counter;
  c_rejected : Obs.counter;
  c_completed : Obs.counter;
  c_failed : Obs.counter;
  c_retries : Obs.counter;
  c_resumes : Obs.counter;
  c_requeued : Obs.counter;
  c_io_fault : Obs.counter;
  c_degraded : Obs.counter;
  g_queue_depth : Obs.gauge;
  g_running : Obs.gauge;
  h_latency : Obs.histogram;
}

let log t fmt =
  Printf.ksprintf
    (fun s -> if t.cfg.verbose then Printf.eprintf "[serve] %s\n%!" s)
    fmt

let job_event t id state =
  if Obs.tracing t.obs then Obs.record t.obs (Obs.Job_state { id; state })

(* -- job execution (worker domain) ----------------------------------

   Everything here must stay off the supervisor's state: workers touch only
   their own job's spool files, the shared atomics, and the mailbox.  The
   daemon's obs sink is NOT thread-safe and is updated exclusively by the
   supervisor loop, from mailbox messages. *)

let exec_job ~cfg ~chaos ~drain ~mb id (spec : Protocol.job_spec) =
  let io = cfg.io in
  let path = Spool.snap_path ~dir:cfg.spool_dir id in
  let started = Unix.gettimeofday () in
  let one_attempt () =
    (* [last] tracks this attempt's previous boundary so the chaos counter
       accumulates executed-instruction deltas, not absolute positions. *)
    let last = ref 0 in
    let on_boundary ~total_instrs =
      let delta = total_instrs - !last in
      last := total_instrs;
      (match cfg.kill_after with
      | Some n when Atomic.fetch_and_add chaos delta + delta >= n ->
          (* Crash, not exit: skip all cleanup so the spool looks exactly
             as it would after SIGKILL. *)
          Unix._exit 3
      | _ -> ());
      if Atomic.get drain then raise Drain_requested;
      (match spec.Protocol.fail_after with
      | Some n when total_instrs >= n -> raise (Poisoned total_instrs)
      | _ -> ());
      match spec.Protocol.deadline_s with
      | Some d when Unix.gettimeofday () -. started > d ->
          raise (Deadline_exceeded d)
      | _ -> ()
    in
    let r, how =
      Run.reopen ~io ~path
        (Protocol.run_meta ~checkpoint_every:cfg.checkpoint_every spec)
    in
    (* A resumed attempt's first chaos delta counts from its snapshot. *)
    if how <> `Fresh then begin
      last := Ace_vm.Engine.instrs (Run.engine r);
      post mb (M_resumed { id; instrs = !last })
    end;
    match Run.continue ~io ~on_boundary ~path r with
    | Run.Completed r -> post mb (M_done { id; output = Render.run_output r })
    | Run.Killed_at _ ->
        (* No [kill_after] is ever passed down to [Run]. *)
        assert false
  in
  let rec attempt_loop attempt =
    match one_attempt () with
    | () -> ()
    | exception Drain_requested -> post mb (M_drained id)
    | exception Deadline_exceeded d ->
        post mb (M_failed { id; reason = Printf.sprintf "deadline of %gs exceeded" d })
    | exception e ->
        (* Storage failures are retried like any other, but the
           supervisor hears about each one so it can count them, trace
           them, and enter degraded mode on persistent ENOSPC. *)
        (match e with
        | Io.Io_error { op; path; err } ->
            post mb (M_io_fault { id; op; path; enospc = err = Io.Enospc })
        | _ -> ());
        let reason =
          match Io.error_message e with
          | Some m -> m
          | None -> Printexc.to_string e
        in
        if attempt + 1 >= max_attempts then
          post mb
            (M_failed
               {
                 id;
                 reason =
                   Printf.sprintf "gave up after %d attempts: %s" max_attempts
                     reason;
               })
        else begin
          post mb (M_retry { id; attempt = attempt + 1; reason });
          Unix.sleepf (0.25 *. (2.0 ** float_of_int attempt));
          attempt_loop (attempt + 1)
        end
  in
  attempt_loop 0

(* -- supervisor ----------------------------------------------------- *)

let io_fault t ~op ~path =
  t.stats.io_faults <- t.stats.io_faults + 1;
  Obs.incr t.obs t.c_io_fault;
  if Obs.tracing t.obs then Obs.record t.obs (Obs.Io_fault { op; path });
  log t "storage fault: %s %s" op path

let enter_degraded t =
  if not t.degraded then begin
    t.degraded <- true;
    Obs.incr t.obs t.c_degraded;
    log t "persistent ENOSPC: entering degraded mode (admissions paused)"
  end

(* Persist a finished job's outcome.  On storage failure the outcome is
   deferred, not dropped: the snapshot family is kept so a crash before
   the deferred settle still resumes the job, and [probe_storage]
   replays the queue once writes succeed again. *)
let try_settle t id outcome =
  let io = t.cfg.io and dir = t.cfg.spool_dir in
  match Spool.settle ~io ~dir id outcome with
  | () -> (
      let job = Hashtbl.find t.jobs id in
      match outcome with
      | `Result _ ->
          t.stats.completed <- t.stats.completed + 1;
          Obs.incr t.obs t.c_completed;
          if Obs.enabled t.obs then
            Obs.observe t.obs t.h_latency
              (Unix.gettimeofday () -. job.enqueued_at);
          job_event t id "done";
          log t "job %d done" id
      | `Failed reason ->
          t.stats.failed <- t.stats.failed + 1;
          Obs.incr t.obs t.c_failed;
          job_event t id "failed";
          log t "job %d failed: %s" id reason)
  | exception Io.Io_error { op; path; err } ->
      io_fault t ~op ~path;
      if err = Io.Enospc then enter_degraded t;
      Queue.add (id, outcome) t.deferred;
      log t "job %d settle deferred (storage fault)" id

(* While degraded, poke the spool each tick; the moment a durable write
   goes through again, lift the pause and replay every deferred settle.
   Recovery is automatic — no operator action, matching how the queue's
   Overloaded backpressure already works. *)
let probe_storage t =
  if t.degraded then begin
    let io = t.cfg.io in
    let probe = Filename.concat t.cfg.spool_dir ".probe" in
    match
      Io.write_file io probe "ok";
      Io.fsync io probe;
      Io.remove io probe
    with
    | () ->
        t.degraded <- false;
        log t "storage recovered: admissions resumed"
    | exception Io.Io_error _ -> ()
  end;
  if (not t.degraded) && not (Queue.is_empty t.deferred) then begin
    let pending = List.of_seq (Queue.to_seq t.deferred) in
    Queue.clear t.deferred;
    List.iter (fun (id, outcome) -> try_settle t id outcome) pending
  end

let process_msg t = function
  | M_resumed { id; instrs } ->
      t.stats.resumes <- t.stats.resumes + 1;
      Obs.incr t.obs t.c_resumes;
      job_event t id "resumed";
      log t "job %d resumed from snapshot at %d instrs" id instrs
  | M_retry { id; attempt; reason } ->
      t.stats.retries <- t.stats.retries + 1;
      Obs.incr t.obs t.c_retries;
      job_event t id "retrying";
      log t "job %d attempt %d failed (%s), retrying" id attempt reason
  | M_done { id; output } ->
      let job = Hashtbl.find t.jobs id in
      job.state <- Done;
      t.running <- t.running - 1;
      try_settle t id (`Result output)
  | M_failed { id; reason } ->
      let job = Hashtbl.find t.jobs id in
      job.state <- Failed reason;
      t.running <- t.running - 1;
      try_settle t id (`Failed reason)
  | M_drained id ->
      let job = Hashtbl.find t.jobs id in
      job.state <- Interrupted;
      (* Snapshot and spec stay in the spool; the next daemon resumes it. *)
      t.running <- t.running - 1;
      t.stats.requeued <- t.stats.requeued + 1;
      Obs.incr t.obs t.c_requeued;
      job_event t id "interrupted";
      log t "job %d snapshotted for drain" id
  | M_io_fault { id; op; path; enospc } ->
      io_fault t ~op ~path;
      if enospc then enter_degraded t;
      log t "job %d hit a storage fault (%s %s)" id op path

let dispatch t =
  while
    (not (Atomic.get t.drain))
    && t.running < t.cfg.workers
    && Queue.length t.queue > 0
  do
    let id = Queue.pop t.queue in
    let job = Hashtbl.find t.jobs id in
    job.state <- Running;
    t.running <- t.running + 1;
    job_event t id "running";
    log t "job %d dispatched" id;
    let cfg = t.cfg and chaos = t.chaos and drain = t.drain and mb = t.mb in
    let spec = job.spec in
    Pool.async t.pool (fun () -> exec_job ~cfg ~chaos ~drain ~mb id spec)
  done

let update_gauges t =
  if Obs.enabled t.obs then begin
    Obs.set_gauge t.obs t.g_queue_depth (float_of_int (Queue.length t.queue));
    Obs.set_gauge t.obs t.g_running (float_of_int t.running)
  end

let status_report t =
  let jobs =
    Hashtbl.fold
      (fun _ (j : job) acc ->
        { Protocol.id = j.id; state = state_name j.state } :: acc)
      t.jobs []
    |> List.sort (fun (a : Protocol.job_info) b -> compare a.id b.id)
  in
  {
    Protocol.queue_depth = Queue.length t.queue;
    running = t.running;
    draining = Atomic.get t.drain;
    degraded = t.degraded;
    counters =
      [
        ("completed", t.stats.completed);
        ("failed", t.stats.failed);
        ("io_faults", t.stats.io_faults);
        ("rejected_overloaded", t.stats.rejected);
        ("requeued", t.stats.requeued);
        ("resumes", t.stats.resumes);
        ("retries", t.stats.retries);
        ("submitted", t.stats.submitted);
      ];
    jobs;
  }

let enqueue t ~id ~spec ~state =
  let job = { id; spec; state; enqueued_at = Unix.gettimeofday () } in
  Hashtbl.replace t.jobs id job;
  if state = Queued then Queue.add id t.queue;
  job

let handle_request t = function
  | Protocol.Status -> Protocol.Status_ok (status_report t)
  | Protocol.Stop ->
      Atomic.set t.drain true;
      log t "drain requested";
      Protocol.Stopping
  | Protocol.Result id -> (
      match Hashtbl.find_opt t.jobs id with
      | None -> Protocol.Error_resp (Printf.sprintf "unknown job %d" id)
      | Some job ->
          let output =
            match job.state with
            | Done -> Spool.read_result ~dir:t.cfg.spool_dir id
            | Failed reason -> Some reason
            | Queued | Running | Interrupted -> None
          in
          Protocol.Result_ok { id; state = state_name job.state; output })
  | Protocol.Submit spec ->
      if Atomic.get t.drain then Protocol.Error_resp "daemon is draining"
      else if Ace_workloads.Specjvm.find spec.Protocol.workload = None then
        Protocol.Error_resp
          (Printf.sprintf "unknown benchmark %S" spec.Protocol.workload)
      else if t.degraded || Queue.length t.queue >= t.cfg.queue_max then begin
        (* Degraded counts as overloaded: the durable-before-acknowledged
           contract cannot be kept when the spool will not take writes,
           so admission pauses with the same explicit backpressure. *)
        t.stats.rejected <- t.stats.rejected + 1;
        Obs.incr t.obs t.c_rejected;
        Protocol.Overloaded
      end
      else begin
        let id = t.next_id in
        (* Durable before acknowledged: once the client sees [Accepted],
           a crash cannot lose the job.  [next_id] advances only on a
           successful spec write, so a rejected submit burns no id. *)
        match Spool.write_spec ~io:t.cfg.io ~dir:t.cfg.spool_dir id spec with
        | exception Io.Io_error { op; path; err } ->
            io_fault t ~op ~path;
            if err = Io.Enospc then enter_degraded t;
            t.stats.rejected <- t.stats.rejected + 1;
            Obs.incr t.obs t.c_rejected;
            Protocol.Overloaded
        | () ->
            t.next_id <- id + 1;
            ignore (enqueue t ~id ~spec ~state:Queued);
            t.stats.submitted <- t.stats.submitted + 1;
            Obs.incr t.obs t.c_submitted;
            job_event t id "queued";
            log t "job %d accepted (%s/%s seed %d)" id spec.Protocol.workload
              (Ace_harness.Scheme.name spec.Protocol.scheme)
              spec.Protocol.seed;
            Protocol.Accepted id
      end

let handle_conn t conn =
  Fun.protect
    ~finally:(fun () -> try Unix.close conn with Unix.Unix_error _ -> ())
    (fun () ->
      let response =
        match Protocol.decode_request (Protocol.read_frame conn) with
        | req -> handle_request t req
        | exception Protocol.Protocol_error msg -> Protocol.Error_resp msg
      in
      match Protocol.write_frame conn (Protocol.encode_response response) with
      | () -> ()
      | exception Unix.Unix_error (_, _, _) ->
          (* Client went away mid-response; nothing to do. *)
          ())

let rec serve_loop t listen_fd =
  List.iter (process_msg t) (drain_mailbox t.mb);
  probe_storage t;
  dispatch t;
  update_gauges t;
  if Atomic.get t.drain && t.running = 0 then ()
  else begin
    (match Unix.select [ listen_fd ] [] [] 0.05 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept listen_fd with
        | conn, _ -> handle_conn t conn
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    serve_loop t listen_fd
  end

let run cfg =
  if cfg.workers <= 0 then invalid_arg "Daemon.run: workers must be positive";
  if cfg.queue_max <= 0 then invalid_arg "Daemon.run: queue_max must be positive";
  if cfg.checkpoint_every <= 0 then
    invalid_arg "Daemon.run: checkpoint_every must be positive";
  Spool.ensure_dir ~io:cfg.io cfg.spool_dir;
  let obs = Export.sink cfg.obs_level ~trace:cfg.trace ~metrics:cfg.metrics in
  let started_at = Unix.gettimeofday () in
  Obs.set_clock obs (fun () ->
      int_of_float ((Unix.gettimeofday () -. started_at) *. 1000.0));
  let t =
    {
      cfg;
      obs;
      jobs = Hashtbl.create 64;
      queue = Queue.create ();
      running = 0;
      next_id = 1;
      stats =
        {
          submitted = 0;
          rejected = 0;
          completed = 0;
          failed = 0;
          retries = 0;
          resumes = 0;
          requeued = 0;
          io_faults = 0;
        };
      drain = Atomic.make false;
      chaos = Atomic.make 0;
      mb = { mb_mutex = Mutex.create (); mb_q = Queue.create () };
      pool = Pool.create ~num_domains:cfg.workers ();
      degraded = false;
      deferred = Queue.create ();
      c_submitted = Obs.counter obs "serve.submitted";
      c_rejected = Obs.counter obs "serve.rejected_overloaded";
      c_completed = Obs.counter obs "serve.completed";
      c_failed = Obs.counter obs "serve.failed";
      c_retries = Obs.counter obs "serve.retries";
      c_resumes = Obs.counter obs "serve.resumes";
      c_requeued = Obs.counter obs "serve.requeued";
      c_io_fault = Obs.counter obs "serve.io_fault";
      c_degraded = Obs.counter obs "serve.degraded";
      g_queue_depth = Obs.gauge obs "serve.queue_depth";
      g_running = Obs.gauge obs "serve.running";
      h_latency =
        Obs.histogram obs "serve.job_latency_s"
          ~bounds:[| 0.1; 0.25; 0.5; 1.0; 2.0; 5.0; 10.0; 30.0; 60.0 |];
    }
  in
  (* Recover: every spec without a result/failed file is re-enqueued; a
     readable snapshot makes the worker resume instead of restart. *)
  let scanned = Spool.scan ~io:cfg.io ~dir:cfg.spool_dir () in
  t.next_id <- scanned.Spool.next_id;
  List.iter
    (fun (e : Spool.entry) ->
      (match e.Spool.snapshot_note with
      | Some note -> log t "job %d: %s" e.Spool.id note
      | None -> ());
      ignore (enqueue t ~id:e.Spool.id ~spec:e.Spool.spec ~state:Queued);
      t.stats.requeued <- t.stats.requeued + 1;
      Obs.incr t.obs t.c_requeued;
      job_event t e.Spool.id "queued";
      log t "job %d recovered from spool" e.Spool.id)
    scanned.Spool.pending;
  (* Settled jobs are listed for status queries only; they never run. *)
  let settled id state =
    ignore
      (enqueue t ~id
         ~spec:(Protocol.job_spec ~workload:"?" Ace_harness.Scheme.Hotspot)
         ~state)
  in
  List.iter
    (fun id ->
      if Spool.read_result ~io:cfg.io ~dir:cfg.spool_dir id <> None then
        settled id Done)
    scanned.Spool.done_ids;
  List.iter
    (fun id ->
      settled id
        (Failed
           (Option.value ~default:""
              (Spool.read_failed ~io:cfg.io ~dir:cfg.spool_dir id))))
    scanned.Spool.failed_ids;
  (* Refusals are not written to the spool: the spec stays unsettled, so
     a daemon that can decode it (the build that wrote it) still runs the
     job.  This one only says why it will not. *)
  List.iter
    (fun (id, why) ->
      log t "job %d: spec refused: %s" id why;
      settled id (Failed ("spec refused: " ^ why)))
    scanned.Spool.refused;
  (* Signals: SIGTERM/SIGINT request a drain; SIGPIPE must not kill the
     daemon when a client disconnects mid-response. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let request_drain _ = Atomic.set t.drain true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_drain);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_drain);
  if Sys.file_exists cfg.socket_path then Sys.remove cfg.socket_path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (try Sys.remove cfg.socket_path with Sys_error _ -> ());
      Pool.shutdown t.pool)
    (fun () ->
      Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
      Unix.listen listen_fd 16;
      Printf.printf "ace_serve: listening on %s (spool %s, %d workers)\n%!"
        cfg.socket_path cfg.spool_dir cfg.workers;
      serve_loop t listen_fd;
      Export.write ~trace:t.cfg.trace ~metrics:t.cfg.metrics t.obs;
      let interrupted =
        Hashtbl.fold
          (fun _ j acc -> if j.state = Interrupted then acc + 1 else acc)
          t.jobs 0
      in
      Printf.printf
        "ace_serve: drained (%d completed, %d failed, %d interrupted)\n%!"
        t.stats.completed t.stats.failed interrupted)
