(** Crash-point enumeration for the durability stack.

    Two scenarios, both on the in-memory crash-simulating filesystem
    ({!Ace_util.Io.Mem}):

    - {e snapshot}: a checkpointed run's snapshot chain.  A recording
      pass lists every mutating filesystem operation; each (operation,
      crash-mode) pair then gets a fresh run crashed exactly there,
      followed by the serve daemon's own recovery ([Run.reopen]: the
      newest snapshot that restores, else the [.1] rotation, else a
      from-scratch restart).  The recovered output must be byte-identical
      to an uninterrupted run.
    - {e spool}: the full serve-job lifecycle (admit spec, checkpointed
      run, {!Spool.settle}).  Recovery is a daemon restart
      ([Spool.ensure_dir] + [Spool.scan]), then the daemon's [Run.reopen]
      and [Spool.settle].  Invariants: a job acknowledged (spec renamed
      into place) is never lost, never duplicated, never spuriously
      quarantined, its spec is never refused, and its result is
      byte-identical to an uninterrupted run.

    Crash modes per point: [`Drop] (un-fsynced data lost), [`Keep]
    (everything flushed), plus a torn-write variant for crash points
    landing on a write.  Deterministic: seeds and operation order fully
    determine the matrix. *)

type tally = {
  scenario : string;  (** "snapshot" or "spool". *)
  seed : int;
  mutable points : int;  (** Crash points enumerated. *)
  mutable torn : int;  (** ...of which torn-write variants. *)
  mutable primary : int;  (** Recoveries resuming the newest snapshot. *)
  mutable fallback : int;  (** Recoveries falling back to the rotation. *)
  mutable scratch : int;  (** Recoveries restarting from nothing. *)
  mutable absent : int;
      (** Spool points where the crash predates acknowledgement and the
          job is legitimately gone. *)
  mutable violations : string list;  (** Empty on a clean matrix. *)
}

val run_matrix :
  ?workload:string ->
  ?scale:float ->
  ?checkpoint_every:int ->
  seeds:int list ->
  unit ->
  tally list
(** Run both scenarios for every seed (defaults: jess at scale 0.05,
    checkpointing every 2 M instructions — small enough that each crash
    point's rerun takes milliseconds, large enough that every run rotates
    snapshots).  Purely in-memory; touches no real files.
    @raise Invalid_argument on an unknown [workload]. *)

val total_points : tally list -> int
val total_violations : tally list -> int

val render : tally list -> string
(** Per-scenario table, one line per violation, and a final
    ["torture: N crash points, V violations"] summary line. *)
