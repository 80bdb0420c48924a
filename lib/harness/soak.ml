module Rng = Ace_util.Rng
module Faults = Ace_faults.Faults
module Snapshot = Ace_ckpt.Snapshot

(* Storage-channel bookkeeping sits outside the deterministic envelope: an
   interrupted run writes a different number of snapshots than the
   uninterrupted one, so its corruption counter legitimately differs.
   Everything else in the result must be bit-identical. *)
let normalize (r : Run.result) =
  {
    r with
    Run.fault_stats =
      Option.map
        (fun s -> { s with Faults.snapshots_corrupted = 0 })
        r.Run.fault_stats;
  }

(* Polymorphic [compare] rather than [(=)]: it treats NaN as equal to
   itself, and a CoV over an empty population is NaN. *)
let results_match a b = Stdlib.compare (normalize a) (normalize b) = 0

type oracle_report = {
  checkpoints : int;
  replay_mismatches : int;
  baseline : Run.result;
}

let oracle_passed r = r.checkpoints > 0 && r.replay_mismatches = 0

let determinism_oracle ?(scale = 1.0) ?(seed = 1) ?fault_rate ~checkpoint_every
    ~path workload scheme =
  let snaps = ref [] in
  let baseline =
    match
      Run.run_checkpointed ~scale ~seed ?fault_rate
        ~on_snapshot:(fun s -> snaps := s :: !snaps)
        ~checkpoint_every ~path workload scheme
    with
    | Run.Completed r -> r
    | Run.Killed_at _ -> assert false
  in
  let mismatches =
    List.fold_left
      (fun acc snap ->
        match Run.resume_from_snapshot snap with
        | Run.Completed r -> if results_match baseline r then acc else acc + 1
        | Run.Killed_at _ -> acc + 1)
      0 !snaps
  in
  {
    checkpoints = List.length !snaps;
    replay_mismatches = mismatches;
    baseline;
  }

type soak_report = {
  kills : int;
  restarts : int;
  fallbacks : int;
  snapshots_corrupted : int;
  matched : bool;
  instrs : int;
}

let chaos_soak ?(scale = 1.0) ?(seed = 1) ?(fault_rate = 0.01) ?(cycles = 20)
    ~checkpoint_every ~path workload scheme =
  let uninterrupted =
    match
      Run.run_checkpointed ~scale ~seed ~fault_rate ~checkpoint_every
        ~path:(path ^ ".baseline") workload scheme
    with
    | Run.Completed r -> r
    | Run.Killed_at _ -> assert false
  in
  let meta =
    Run.meta ~scale ~seed ~fault_rate ~checkpoint_every
      workload.Ace_workloads.Workload.name scheme
  in
  (* Kill points are drawn from a supervisor stream independent of the run's
     own seeds, and increase monotonically so every cycle makes progress even
     when a kill lands before the next checkpoint boundary. *)
  let rng = Rng.create ~seed:(seed + 90210) in
  let span = max checkpoint_every (uninterrupted.Run.instrs / max 1 cycles) in
  let kills = ref 0 in
  let restarts = ref 0 in
  let fallbacks = ref 0 in
  let kill_at = ref 0 in
  let final = ref None in
  (* Every life, the first included, recovers as the daemon does.  The
     first finds no snapshot and is no restart; a later [`Fresh] means both
     snapshot generations were unusable (corrupted, or the run died before
     its first checkpoint). *)
  let life ?kill_after cycle =
    let r, how = Run.reopen ~path meta in
    (match how with
    | `Primary -> ()
    | `Fallback -> incr fallbacks
    | `Fresh -> if cycle > 1 then incr restarts);
    Run.continue ?kill_after ~path r
  in
  for cycle = 1 to cycles do
    if Option.is_none !final then begin
      kill_at := !kill_at + 1 + Rng.int rng span;
      match life ~kill_after:!kill_at cycle with
      | Run.Killed_at _ -> incr kills
      | Run.Completed r -> final := Some r
    end
  done;
  let result =
    match !final with
    | Some r -> r
    | None -> (
        match life (cycles + 1) with
        | Run.Completed r -> r
        | Run.Killed_at _ -> assert false)
  in
  let corrupted =
    match result.Run.fault_stats with
    | Some s -> s.Faults.snapshots_corrupted
    | None -> 0
  in
  {
    kills = !kills;
    restarts = !restarts;
    fallbacks = !fallbacks;
    snapshots_corrupted = corrupted;
    matched = results_match uninterrupted result;
    instrs = uninterrupted.Run.instrs;
  }
