(** Wire protocol of the [ace_serve] daemon.

    Transport: a Unix-domain stream socket carrying one request frame and
    one response frame per connection.  A frame is a 4-byte little-endian
    payload length followed by that many bytes of {!Ace_util.Codec}
    encoding: a tag byte per variant, fixed-width integers and floats,
    length-prefixed strings and lists.  Frames longer than {!max_frame}
    are refused on both sides, so a corrupt or hostile length prefix can
    never make the daemon allocate unboundedly.

    The encoding is binary, so the wire is not human-readable.  Each type
    is described once, as one codec that both encodes and decodes it.
    Decoding validates strictly: an unknown tag, a truncated value, a
    trailing byte or an out-of-range spec field is refused, and every
    failure is a {!Protocol_error}.  A peer built when the protocol was
    JSON gets a typed error, not a misparse: its frames start with [{],
    which is no request tag, and it cannot parse a binary reply. *)

type job_spec = {
  workload : string;  (** SPECjvm98 registry name. *)
  scheme : Ace_harness.Scheme.t;
  scale : float;
  seed : int;
  fault_rate : float option;  (** Attach a fault injector at this rate. *)
  resilient : bool;  (** Resilient tuner policy (hotspot scheme). *)
  sample : bool;
      (** Run under phase-memoized fast-forwarding
          ({!Ace_sample.Sample.default_config}).  Combined with
          [fault_rate] it requires [resilient] — {!decode_spec} refuses
          the combination otherwise. *)
  deadline_s : float option;
      (** Wall-clock budget per job; exceeded jobs fail without retry. *)
  fail_after : int option;
      (** Test hook: poison the job so every attempt raises at the first
          checkpoint boundary at or past this instruction count. *)
}

val job_spec :
  ?fault_rate:float ->
  ?resilient:bool ->
  ?sample:bool ->
  ?deadline_s:float ->
  ?fail_after:int ->
  ?scale:float ->
  ?seed:int ->
  workload:string ->
  Ace_harness.Scheme.t ->
  job_spec
(** Spec with the CLI's defaults: scale 1.0, seed 1, no faults, no
    sampling, no deadline. *)

val run_meta : checkpoint_every:int -> job_spec -> Ace_ckpt.Snapshot.meta
(** The checkpointed run a job executes: {!Ace_harness.Run.meta} of the
    spec's fields, with [sample] as {!Ace_sample.Sample.of_flag} maps it.
    @raise Invalid_argument if [checkpoint_every] is not positive. *)

type job_info = { id : int; state : string }
(** One row of the status report; [state] is one of "queued", "running",
    "done", "failed", "interrupted". *)

type status_report = {
  queue_depth : int;
  running : int;
  draining : bool;
  degraded : bool;
      (** Spool writes are failing with [ENOSPC]: job admission is paused
          (submits get {!Overloaded}) until a storage probe succeeds. *)
  counters : (string * int) list;  (** Sorted by name. *)
  jobs : job_info list;  (** Sorted by id. *)
}

type request =
  | Submit of job_spec
  | Status
  | Result of int  (** Fetch the state (and output, if done) of one job. *)
  | Stop  (** Graceful drain: finish/snapshot running jobs, then exit. *)

type response =
  | Accepted of int  (** Submit succeeded; payload is the job id. *)
  | Overloaded
      (** The queue is at its high-water mark, or the daemon is storage
          [degraded]; the client must back off.  Explicit backpressure —
          the daemon never blocks a submitter. *)
  | Status_ok of status_report
  | Result_ok of { id : int; state : string; output : string option }
      (** [output] is the run's rendered summary once "done", the failure
          message once "failed", [None] otherwise. *)
  | Stopping
  | Error_resp of string  (** Malformed or unserviceable request. *)

exception Protocol_error of string
(** Raised by the decoders and framing on any malformed input. *)

val encode_spec : job_spec -> string

val decode_spec : string -> job_spec
(** The spec's codec bytes, as a [Submit] request carries them and the
    spool stores them; [decode_spec (encode_spec s) = s].  The encoder
    writes any spec.  The decoder refuses one no run could be built from:
    a scale that is not finite and positive, a fault rate outside [0, 1],
    [sample] with a fault rate but without [resilient], or a deadline or
    [fail_after] that is not positive.
    @raise Protocol_error on malformed or out-of-range input. *)

val encode_request : request -> string
val decode_request : string -> request
val encode_response : response -> string
val decode_response : string -> response

(** {2 Framing} *)

val max_frame : int
(** 1 MiB. *)

val write_frame : Unix.file_descr -> string -> unit
(** @raise Protocol_error if the payload exceeds {!max_frame}. *)

val read_frame : Unix.file_descr -> string
(** Read one complete frame.
    @raise Protocol_error on EOF mid-frame or an oversized declared
    length. *)
