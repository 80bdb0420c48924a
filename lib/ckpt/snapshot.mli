(** Versioned, CRC-checked binary snapshots of the full simulator state.

    A snapshot holds everything a run needs to continue bit-identically:
    the engine (counters, frame stack, RNG, pattern cursors, DO database,
    memory hierarchy), the fault injector's RNG and latch table, the
    attached scheme's tuning state, the observability image and the
    sampler's cache.  Construction-time inputs — program, configs,
    thresholds, CU families — are deliberately {e not} serialized; they are
    recomputed deterministically from {!meta} when the run is rebuilt, which
    keeps the format small and makes version skew loud instead of silent.

    This module owns the {!meta} record, the container and file I/O.  The
    {e body} — the payload after the meta record — is written by each
    stateful module's [sync] from the live run and read back into a rebuilt
    one ([Ace_harness.Run]), so it is validated where it is restored.

    Container layout (see DESIGN.md §Checkpointing): magic ["ACESNAP1"],
    format {!version} (u16 LE), payload length (i64 LE), CRC-32 of the
    payload (i64 LE), payload.  {!decode} refuses bad magic, unknown
    versions, truncation, CRC mismatches and a malformed meta, so a torn or
    corrupted write is always detected; {!write} rotates the previous file
    to [path.1] so readers can fall back to the last good snapshot. *)

(** Why a snapshot was refused.  The cases matter to supervisors: a
    [Truncated] file is the signature of a writer killed mid-write (e.g. the
    serve daemon SIGKILLed between [open] and [rename]) and is safely
    skipped, whereas [Version_skew] means the operator mixed binaries and
    should not be papered over. *)
type error =
  | Truncated of { expected : int; got : int }
      (** Fewer bytes than the header (or the header's declared payload
          length) requires — a torn or in-flight write.  [got] may be 0 for
          an empty file. *)
  | Bad_magic  (** The first 8 bytes are not ["ACESNAP1"]. *)
  | Version_skew of { found : int; expected : int }
      (** A well-formed container from a different format {!version}. *)
  | Crc_mismatch of { stored : int; computed : int }
      (** Payload bytes damaged after the length was written. *)
  | Malformed of string
      (** Structurally impossible container, or a payload that does not
          decode or does not restore (bad tag, trailing bytes, declared
          length beyond file size, a shape the rebuilt run cannot hold
          ...). *)
  | Unreadable of string  (** The file could not be read at all. *)

exception Error of error
(** Raised by {!decode}/{!read} on any malformed snapshot. *)

val error_to_string : error -> string
(** Human-readable rendering, for logs and CLI messages. *)

(** Which adaptation scheme the checkpointed run was using; the harness's
    [Scheme.t] is this type. *)
type scheme = Fixed_baseline | Hotspot | Bbv

val scheme_codec : scheme Ace_util.Codec.t
(** One tag byte, the constructor's position: the snapshot meta, the
    body's scheme section and the serve daemon's job spec all use it. *)

(** Everything needed to rebuild the run's construction-time inputs:
    workload program, engine config, CU family, scheme wiring. *)
type meta = {
  workload : string;  (** Workload registry name. *)
  scheme : scheme;
  scale : float;
      (** Workload scale factor; {!decode} refuses one that is not
          positive and finite. *)
  seed : int;
  hot_threshold : int;
  with_issue_queue : bool;  (** Hotspot scheme: manage the issue queue CU. *)
  bbv_prediction : bool;  (** BBV scheme: enable next-phase prediction. *)
  resilient : bool;  (** Hotspot scheme: resilient tuner policy. *)
  fault_rate : float option;  (** [Faults.preset] rate, if faults are on. *)
  checkpoint_every : int;  (** Snapshot cadence in instructions. *)
  sample : Ace_sample.Sample.config option;
      (** Phase-memoized sampling, if the run had it enabled. *)
}

type t = private { meta : meta; body : string; body_crc : int }
(** The decoded {!meta}, the encoded body and the body's CRC-32.  A
    snapshot is built only by {!save}, {!of_body} and {!decode}, so a body
    never travels with a CRC that is not its own. *)

val save : meta -> (Ace_util.Codec.io -> unit) -> t
(** [save meta f]: the body is what [f] writes, and its CRC comes from
    {!Ace_util.Codec.save_crc}, so runs [f] copies with their own CRC (the
    event ring's) are not hashed again. *)

val of_body : meta -> string -> t
(** A snapshot of a body built by hand; its CRC is computed from its
    bytes. *)

val version : int
(** Current snapshot format version.  Bump whenever any module's [sync] or
    the meta record changes its fields or their order. *)

val read_body : t -> (Ace_util.Codec.io -> unit) -> unit
(** Run the function over the body.
    @raise Error [(Malformed _)] if it refuses the bytes or leaves some
    unread. *)

val instrs : t -> int
(** The body's first field: the engine's instruction count.
    @raise Error [(Malformed _)] if the body is too short to hold it. *)

val encode : t -> string
(** The full container: header plus CRC-protected payload.  The payload's
    CRC is the meta's combined with [body_crc]; only the meta is hashed. *)

val decode : string -> t
(** Hashes the whole payload and checks it against the stored CRC.
    @raise Error on truncation, bad magic, version skew, CRC mismatch or a
    malformed meta.  The body is checked when it is read back. *)

val write :
  ?io:Ace_util.Io.t ->
  ?faults:Ace_faults.Faults.t ->
  ?obs:Ace_obs.Obs.t ->
  path:string ->
  t ->
  unit
(** Atomically and durably write a snapshot: encode, optionally damage the
    bytes via [Faults.maybe_corrupt_snapshot] (storage-channel fault
    injection), write to [path.tmp], fsync it, rotate any existing [path]
    to [path.1], rename into place.  The rotation guarantees that at most
    one of the two most recent snapshots can be lost to corruption or a
    torn write; the fsync guarantees the file the rename publishes has its
    bytes on stable storage.  All filesystem access goes through [io]
    (default {!Ace_util.Io.real}), so the torture harness can crash the
    write at every boundary.  A [Full]-level [obs] records a ring-only
    [Ckpt_capture] event after the write (never a metric, so resumed
    metrics stay identical to an uninterrupted run's). *)

val read : ?io:Ace_util.Io.t -> path:string -> unit -> t
(** @raise Error if the file is unreadable or fails {!decode} — storage
    failures ({!Ace_util.Io.Io_error}) surface as [Error (Unreadable _)],
    never as a raw exception. *)

val with_fallback :
  ?io:Ace_util.Io.t ->
  path:string ->
  (t -> 'a) ->
  ('a * [ `Primary | `Fallback ]) option
(** [with_fallback ~path f] is [f] of the snapshot at [path]; if that file
    is missing, fails {!decode} or [f] raises {!Error} on it, [f] of the
    one at [path.1].  [None] when neither works. *)

val read_with_fallback :
  ?io:Ace_util.Io.t -> path:string -> unit -> (t * [ `Primary | `Fallback ]) option
(** [with_fallback ~path Fun.id]: the newest snapshot that decodes. *)
