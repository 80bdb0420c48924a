module Io = Ace_util.Io
module Mem = Ace_util.Io.Mem
module Table = Ace_util.Table
module Run = Ace_harness.Run
module Render = Ace_harness.Render
module Scheme = Ace_harness.Scheme

(* Crash-point enumeration: record every mutating filesystem operation a
   durable workflow performs, then re-run it once per (operation, crash
   mode) pair with a backend that kills the "process" exactly there, run
   the real recovery path, and assert the durability invariants.  Unlike
   the chaos kill tests (which sample random kill points), this visits
   every write/fsync/rename boundary — nothing is left to luck. *)

type tally = {
  scenario : string;
  seed : int;
  mutable points : int;
  mutable torn : int;
  mutable primary : int;  (** Recoveries that resumed the newest snapshot. *)
  mutable fallback : int;  (** Recoveries that fell back to the rotation. *)
  mutable scratch : int;  (** Recoveries that restarted from nothing. *)
  mutable absent : int;
      (** Spool crash points before the job was acknowledged: the job is
          legitimately gone (the client never saw [Accepted]). *)
  mutable violations : string list;
}

let default_workload = "jess"
let default_scale = 0.05
let default_checkpoint_every = 2_000_000

let new_tally scenario seed =
  {
    scenario;
    seed;
    points = 0;
    torn = 0;
    primary = 0;
    fallback = 0;
    scratch = 0;
    absent = 0;
    violations = [];
  }

let violation t fmt =
  Printf.ksprintf
    (fun msg ->
      t.violations <-
        Printf.sprintf "%s seed %d: %s" t.scenario t.seed msg :: t.violations)
    fmt

(* Every op index under both crash modes; a crash landing on a write also
   gets the torn variant (half the data reaches the disk first).  Torn
   only composes with [`Keep]: under [`Drop] the un-synced torn prefix
   vanishes anyway, collapsing into the plain case. *)
let crash_plans ops =
  List.concat
    (List.mapi
       (fun k (op : Io.op) ->
         (k, `Drop, false) :: (k, `Keep, false)
         ::
         (if op.Io.op_kind = Io.Op_write then [ (k, `Keep, true) ] else []))
       (Array.to_list ops))

let describe_point ops k mode torn =
  let op = ops.(k) in
  Printf.sprintf "crash at op %d (%s %s, %s%s)" k
    (Io.op_kind_name op.Io.op_kind)
    op.Io.op_path
    (match mode with `Drop -> "drop" | `Keep -> "keep")
    (if torn then ", torn" else "")

let count t = function
  | `Primary -> t.primary <- t.primary + 1
  | `Fallback -> t.fallback <- t.fallback + 1
  | `Fresh -> t.scratch <- t.scratch + 1

(* What a daemon worker does with a job: [Run.reopen] (the newest snapshot
   that restores, else [.1], else a fresh run), then run it to completion.
   Both scenarios run their job through it (a reopen on an empty
   filesystem reads, and reads are no crash points), and recover through
   it, telling [on_reopen] which way it went. *)
let execute ?(on_reopen = ignore) ~io ~path meta =
  let r, how = Run.reopen ~io ~path meta in
  on_reopen how;
  match Run.continue ~io ~path r with
  | Run.Completed r -> Render.run_output r
  | Run.Killed_at _ -> assert false

(* -- scenario A: the snapshot chain --------------------------------- *)

let snapshot_scenario ~scale ~checkpoint_every ~seed ~gold w =
  let t = new_tally "snapshot" seed in
  let path = "/snaps/job.snap" in
  let meta =
    Run.meta ~scale ~seed ~checkpoint_every w.Ace_workloads.Workload.name
      Scheme.Hotspot
  in
  let run io = execute ~io ~path meta in
  let rio, ops = Io.recording (Mem.io (Mem.create ())) in
  ignore (run rio);
  let ops = ops () in
  List.iter
    (fun (k, mode, torn) ->
      t.points <- t.points + 1;
      if torn then t.torn <- t.torn + 1;
      let where = describe_point ops k mode torn in
      let fs = Mem.create () in
      (match run (Io.crash_at ~at:k ~torn (Mem.io fs)) with
      | exception Io.Crashed -> ()
      | _ -> violation t "%s: run finished without crashing" where);
      Mem.crash mode fs;
      (* A fresh run is legal only near the very first capture, before a
         full snapshot ever landed. *)
      match execute ~on_reopen:(count t) ~io:(Mem.io fs) ~path meta with
      | output ->
          if output <> gold then
            violation t "%s: recovered output differs from uninterrupted run"
              where
      | exception e ->
          violation t "%s: recovery raised %s" where (Printexc.to_string e))
    (crash_plans ops);
  (* The whole reason the rotation exists: a scratch restart must be the
     rare case, not the common one. *)
  if t.primary + t.fallback = 0 then
    violation t "no crash point ever resumed from a snapshot";
  t

(* -- scenario B: the spool job lifecycle ---------------------------- *)

(* Admit the spec, run the job as a daemon worker does, settle it. *)
let lifecycle ~io ~dir ~spec ~meta =
  Spool.ensure_dir ~io dir;
  Spool.write_spec ~io ~dir 1 spec;
  let output = execute ~io ~path:(Spool.snap_path ~dir 1) meta in
  Spool.settle ~io ~dir 1 (`Result output)

let spool_scenario ~scale ~checkpoint_every ~seed ~workload ~gold =
  let t = new_tally "spool" seed in
  let dir = "/spool" in
  let spec = Protocol.job_spec ~scale ~seed ~workload Scheme.Hotspot in
  let meta = Protocol.run_meta ~checkpoint_every spec in
  let run io = lifecycle ~io ~dir ~spec ~meta in
  let rio, ops = Io.recording (Mem.io (Mem.create ())) in
  run rio;
  let ops = ops () in
  (* The job exists, durably, the moment its spec file is renamed into
     place — that rename is what Submit's [Accepted] reply stands on. *)
  let ack =
    let found = ref (-1) in
    Array.iteri
      (fun i (op : Io.op) ->
        if
          !found < 0
          && op.Io.op_kind = Io.Op_rename
          && op.Io.op_path = Spool.spec_path ~dir 1
        then found := i)
      ops;
    assert (!found >= 0);
    !found
  in
  let finish_pending t io where =
    (* A restarted daemon's recovered pending job: recovered, then settled. *)
    let output =
      execute ~on_reopen:(count t) ~io ~path:(Spool.snap_path ~dir 1) meta
    in
    Spool.settle ~io ~dir 1 (`Result output);
    let rescan = Spool.scan ~io ~dir () in
    if rescan.Spool.done_ids <> [ 1 ] || rescan.Spool.pending <> [] then
      violation t "%s: job not settled after recovery" where;
    output
  in
  List.iter
    (fun (k, mode, torn) ->
      t.points <- t.points + 1;
      if torn then t.torn <- t.torn + 1;
      let where = describe_point ops k mode torn in
      let fs = Mem.create () in
      (match run (Io.crash_at ~at:k ~torn (Mem.io fs)) with
      | exception Io.Crashed -> ()
      | _ -> violation t "%s: lifecycle finished without crashing" where);
      Mem.crash mode fs;
      let io = Mem.io fs in
      match
        (* A restarted daemon's recovery: remake the directory, scan. *)
        Spool.ensure_dir ~io dir;
        Spool.scan ~io ~dir ()
      with
      | exception e ->
          violation t "%s: scan raised %s" where (Printexc.to_string e)
      | scan -> (
          let in_pending =
            List.exists (fun (e : Spool.entry) -> e.Spool.id = 1) scan.pending
          in
          let in_done = scan.Spool.done_ids = [ 1 ] in
          if scan.Spool.failed_ids <> [] then
            violation t "%s: job spuriously quarantined" where;
          List.iter
            (fun (_, why) -> violation t "%s: spec refused (%s)" where why)
            scan.Spool.refused;
          if in_pending && in_done then
            violation t "%s: job duplicated (pending and done)" where;
          match (in_done, in_pending) with
          | true, _ -> (
              (* Settled before the crash: the published result must be
                 the complete, uncorrupted output. *)
              match Spool.read_result ~io ~dir 1 with
              | Some output when output = gold -> ()
              | Some _ -> violation t "%s: settled result corrupted" where
              | None -> violation t "%s: result file unreadable" where)
          | false, true -> (
              match finish_pending t io where with
              | output ->
                  if output <> gold then
                    violation t
                      "%s: recovered output differs from uninterrupted run"
                      where
              | exception e ->
                  violation t "%s: recovery raised %s" where
                    (Printexc.to_string e))
          | false, false ->
              (* Lost — legal only before the acknowledgement point. *)
              if k > ack then violation t "%s: acknowledged job lost" where
              else t.absent <- t.absent + 1))
    (crash_plans ops);
  t

(* -- driver ---------------------------------------------------------- *)

let run_matrix ?(workload = default_workload) ?(scale = default_scale)
    ?(checkpoint_every = default_checkpoint_every) ~seeds () =
  let w =
    match Ace_workloads.Specjvm.find workload with
    | Some w -> w
    | None -> invalid_arg (Printf.sprintf "Torture.run_matrix: %S" workload)
  in
  List.concat_map
    (fun seed ->
      let gold = Render.run_output (Run.run ~scale ~seed w Scheme.Hotspot) in
      [
        snapshot_scenario ~scale ~checkpoint_every ~seed ~gold w;
        spool_scenario ~scale ~checkpoint_every ~seed ~workload ~gold;
      ])
    seeds

let total_points ts = List.fold_left (fun a t -> a + t.points) 0 ts
let total_violations ts =
  List.fold_left (fun a t -> a + List.length t.violations) 0 ts

let render ts =
  let tbl =
    Table.create
      ~columns:
        [
          ("scenario", Table.Left);
          ("seed", Table.Right);
          ("points", Table.Right);
          ("torn", Table.Right);
          ("primary", Table.Right);
          ("fallback", Table.Right);
          ("scratch", Table.Right);
          ("absent", Table.Right);
          ("violations", Table.Right);
        ]
  in
  List.iter
    (fun t ->
      Table.add_row tbl
        [
          t.scenario;
          string_of_int t.seed;
          string_of_int t.points;
          string_of_int t.torn;
          string_of_int t.primary;
          string_of_int t.fallback;
          string_of_int t.scratch;
          string_of_int t.absent;
          string_of_int (List.length t.violations);
        ])
    ts;
  Table.add_separator tbl;
  Table.add_row tbl
    [
      "total";
      "";
      string_of_int (total_points ts);
      string_of_int (List.fold_left (fun a t -> a + t.torn) 0 ts);
      string_of_int (List.fold_left (fun a t -> a + t.primary) 0 ts);
      string_of_int (List.fold_left (fun a t -> a + t.fallback) 0 ts);
      string_of_int (List.fold_left (fun a t -> a + t.scratch) 0 ts);
      string_of_int (List.fold_left (fun a t -> a + t.absent) 0 ts);
      string_of_int (total_violations ts);
    ];
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Table.render tbl);
  List.iter
    (fun t ->
      List.iter
        (fun v -> Buffer.add_string buf (Printf.sprintf "VIOLATION: %s\n" v))
        (List.rev t.violations))
    ts;
  Buffer.add_string buf
    (Printf.sprintf "torture: %d crash points, %d violations\n"
       (total_points ts) (total_violations ts));
  Buffer.contents buf
