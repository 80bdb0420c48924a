(** The [ace_serve] daemon: crash-safe tuning-as-a-service.

    One process owns a Unix-domain socket and a spool directory.  Requests
    ({!Protocol.request}) arrive one per connection; accepted jobs are
    persisted to the spool, queued up to [queue_max] (beyond which submits
    get an explicit [Overloaded] — backpressure, never blocking), and
    sharded across [workers] pool domains.  Every job runs checkpointed, so
    the supervisor can be SIGKILLed at any moment and a restarted daemon
    {!Spool.scan}s the spool and resumes in-flight jobs bit-identically —
    a daemon job's result is byte-for-byte the output of the equivalent
    batch [ace_sim run].

    Failure containment per job: transient exceptions are retried with
    exponential backoff (0.25 s doubling, up to 3 attempts, resuming from
    the latest snapshot); a job that exceeds its wall-clock deadline fails
    immediately without retry; a poisoned job (every attempt raises) is
    quarantined as "failed" while the daemon and its other jobs carry on.

    On SIGTERM/SIGINT or a [Stop] request the daemon drains: it stops
    accepting submissions, lets running jobs either finish or snapshot at
    their next checkpoint boundary (state "interrupted", resumed by the
    next daemon), exports any requested trace/metrics files, and exits. *)

type config = {
  socket_path : string;
  spool_dir : string;
  workers : int;  (** Pool domains running jobs (>= 1). *)
  queue_max : int;  (** Queue high-water mark (>= 1). *)
  checkpoint_every : int;  (** Snapshot cadence in instructions. *)
  kill_after : int option;
      (** Chaos hook: [Unix._exit 3] (no cleanup, like SIGKILL) at the
          first checkpoint boundary once this many instructions have been
          executed across all jobs in this daemon life.  The boundary's
          snapshot is written before the check, so every life makes
          resumable progress and a kill/restart loop always terminates. *)
  obs_level : Ace_obs.Obs.level;
      (** Raised to what [trace] and [metrics] need ({!Ace_obs.Export.sink}). *)
  trace : string option;  (** Timeline export path, written at drain. *)
  metrics : string option;  (** Metrics CSV path, written at drain. *)
  verbose : bool;  (** Log job transitions to stderr. *)
  io : Ace_util.Io.t;
      (** Backend for all spool and snapshot filesystem traffic (default
          {!Ace_util.Io.real}); fault backends drive the daemon's
          degraded-mode and torture tests.  Storage failures during a job
          are retried like any other failure; a persistent [ENOSPC] flips
          the daemon into {e degraded} mode — admission paused with
          [Overloaded] backpressure, finished-job settles deferred (their
          snapshots kept), a per-tick probe lifting the pause the moment
          a durable write succeeds again.  Counted under [serve.io_fault]
          / [serve.degraded] and visible as [degraded] in the status
          report. *)
}

val run : config -> unit
(** Serve until drained.  Removes a stale socket file at startup and the
    live one at exit.
    @raise Invalid_argument on a non-positive [workers], [queue_max] or
    [checkpoint_every]. *)
