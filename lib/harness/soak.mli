(** Checkpoint/restore torture tests: the determinism oracle and the
    chaos-soak supervisor.

    Both rest on the same invariant (DESIGN.md §Checkpointing): resuming
    from any snapshot and running to completion yields a final stats table
    bit-identical to the uninterrupted run's.  The one excluded counter is
    [Faults.stats.snapshots_corrupted] — storage-channel bookkeeping depends
    on how many snapshots were actually written, which an interrupted run
    legitimately changes. *)

val results_match : Run.result -> Run.result -> bool
(** Bit-identical up to the storage-channel counter (NaN-tolerant). *)

type oracle_report = {
  checkpoints : int;  (** Snapshots taken by the uninterrupted run. *)
  replay_mismatches : int;
      (** Replays whose final table differed from the baseline. *)
  baseline : Run.result;
}

val oracle_passed : oracle_report -> bool
(** At least one checkpoint, zero mismatches. *)

val determinism_oracle :
  ?scale:float ->
  ?seed:int ->
  ?fault_rate:float ->
  checkpoint_every:int ->
  path:string ->
  Ace_workloads.Workload.t ->
  Scheme.t ->
  oracle_report
(** Run once to completion collecting every snapshot, then replay from each
    one and compare final stats tables against the uninterrupted result. *)

type soak_report = {
  kills : int;  (** Kill/resume cycles actually exercised. *)
  restarts : int;
      (** Times both snapshot generations were unusable and the supervisor
          restarted from scratch. *)
  fallbacks : int;  (** Resumes served by the rotated [path.1] snapshot. *)
  snapshots_corrupted : int;  (** Injected storage faults in the final run. *)
  matched : bool;  (** Final table equals the uninterrupted baseline's. *)
  instrs : int;  (** Run length (from the baseline). *)
}

val chaos_soak :
  ?scale:float ->
  ?seed:int ->
  ?fault_rate:float ->
  ?cycles:int ->
  checkpoint_every:int ->
  path:string ->
  Ace_workloads.Workload.t ->
  Scheme.t ->
  soak_report
(** Repeatedly kill a checkpointed run at seeded, monotonically increasing
    points and resume it from disk, under [fault_rate] (default 1%) register
    and storage faults, for up to [cycles] (default 20) kill/resume cycles;
    then run the survivor to completion and compare against an uninterrupted
    baseline.  Every life recovers through {!Run.reopen}, as the serve
    daemon's jobs do, so [path] must hold no snapshot at the start (an
    empty temp file will do).  Corrupted snapshots exercise the CRC check
    and [path.1] fallback; if both generations are bad the run restarts
    from scratch, which must converge to the same table. *)
