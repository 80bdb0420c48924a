(** On-disk job store of the serve daemon.

    Every accepted job lives in the spool directory as a small family of
    files keyed by id:

    - [job-NNNNNN.spec] — the job spec, written atomically at accept time
      (this is the durable record that the job exists): the 8-byte magic
      [ACESPEC1], the CRC-32 of the payload (4 bytes little-endian), then
      the payload, the spec's {!Protocol.encode_spec} bytes;
    - [job-NNNNNN.snap] — the run's checkpoint (plus the [.1]/[.tmp]
      companions [Ace_ckpt.Snapshot.write] manages);
    - [job-NNNNNN.result] — the rendered run output, written atomically on
      completion;
    - [job-NNNNNN.failed] — the failure message of a quarantined job.

    A restarted daemon recovers its whole state by {!scan}ning the
    directory: specs without a result/failed file are in-flight and are
    re-enqueued (resuming from the snapshot when one is readable), and ids
    continue from one past the highest ever used, so results never
    collide.  A spec that cannot be decoded is refused: reported with its
    reason and never run.  Every spec that an older daemon wrote as JSON
    is refused this way.

    All filesystem access goes through an injectable {!Ace_util.Io.t}
    (default {!Ace_util.Io.real}); the torture harness substitutes fault
    and crash-point backends.  Write errors surface as
    {!Ace_util.Io.Io_error} — callers (the daemon) decide whether that
    means retry, quarantine, or degraded mode. *)

type entry = {
  id : int;
  spec : Protocol.job_spec;
  snapshot_note : string option;
      (** [Some note] when a snapshot file exists but the primary is
          unusable (e.g. truncated by a crash mid-write) — the note says
          why, for the supervisor's log.  [None] when there is no snapshot
          or it is cleanly readable. *)
}

type scan_result = {
  next_id : int;
  pending : entry list;  (** In-flight jobs, sorted by id. *)
  done_ids : int list;
  failed_ids : int list;
  refused : (int * string) list;
      (** Unsettled specs that cannot be decoded, sorted by id, with the
          reason: no [ACESPEC1] magic (the message names the older JSON
          format), a truncated header, a CRC mismatch or the
          {!Protocol.decode_spec} error.  They are not pending. *)
}

val spec_path : dir:string -> int -> string
val snap_path : dir:string -> int -> string

val ensure_dir : ?io:Ace_util.Io.t -> string -> unit
(** Create the spool directory (and its parent) if missing. *)

val write_spec : ?io:Ace_util.Io.t -> dir:string -> int -> Protocol.job_spec -> unit
(** Atomic and durable (tmp + fsync + rename), so a crash can never leave
    a half-written spec that a restart would refuse to parse. *)

val settle :
  ?io:Ace_util.Io.t ->
  dir:string ->
  int ->
  [ `Result of string | `Failed of string ] ->
  unit
(** Settle a finished job: write its result (or failure reason) atomically
    and durably, then remove its snapshot family.  In that order, a crash
    in between leaves a settled job with stray snapshots, never an
    unsettled job without them.  Removal errors are ignored
    ({!Ace_util.Scratch.remove_existing}).
    @raise Ace_util.Io.Io_error if the write fails; the snapshots stay. *)

val read_result : ?io:Ace_util.Io.t -> dir:string -> int -> string option
val read_failed : ?io:Ace_util.Io.t -> dir:string -> int -> string option

val scan : ?io:Ace_util.Io.t -> dir:string -> unit -> scan_result
(** Directory entries are sorted before replay, so recovery order is
    deterministic no matter what order the filesystem returns them in.
    Specs that cannot be decoded go to [refused] (a crash between [open]
    and [rename] cannot produce one, so they come from tampering or an
    older daemon); their ids still count toward [next_id]. *)
