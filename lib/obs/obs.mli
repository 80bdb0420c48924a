(** Structured observability for the whole simulator.

    One sink ({!t}) is threaded through [Engine], [Framework], [Tuner],
    [Hierarchy], [Faults] and [Snapshot] and carries three things:

    - a typed, bounded ring of {!event}s timestamped with the
      engine's instruction counter, each kept as its encoding in one byte
      log (so all timestamps share one monotone
      clock and a timeline can be reconstructed after the fact);
    - a metrics registry of named counters, gauges and fixed-bucket
      histograms, cheap enough to leave always-on;
    - a checkpoint image ({!sync}) so that a checkpointed run resumed from a
      snapshot produces the same timeline and metrics as the uninterrupted
      run.

    {2 Cost discipline}

    The sink has three {!level}s.  At [Off] every emission is a branch on an
    immutable field and nothing else; {!null} is the distinguished always-off
    sink that every producer defaults to.  [Metrics] additionally updates
    registry cells (integer/float stores, no allocation per emission).
    [Full] also records ring events: each recording builds the event,
    encodes it into the ring's byte log and extends the log's running
    CRC-32 over those bytes, allocating only short-lived words.  The hash
    is paid once per event, so a checkpoint never hashes the ring's bytes
    again.

    Because the OCaml native compiler boxes float arguments at non-inlined
    call sites, producers must gate float-carrying emissions at the call
    site: [if Obs.enabled obs then Obs.observe obs h v] and
    [if Obs.tracing obs then Obs.record obs (Event {...})].  Plain
    {!val-incr} on a counter needs no gate — it is allocation-free at every
    level. *)

type level = Off | Metrics | Full

(** The event taxonomy (see DESIGN.md §Observability).  [id] is a method id
    where applicable; all payloads are plain data. *)
type kind =
  | Phase_enter of { id : int; name : string }
      (** A hotspot invocation began (only promoted methods are phases). *)
  | Phase_exit of { id : int; ipc : float }  (** ...and ended, at this IPC. *)
  | Hotspot_promoted of { id : int; name : string }
  | Recompile of { id : int }  (** JIT recompilation charged. *)
  | Trial_start of { id : int; cfg : string }
      (** The tuner began measuring configuration [cfg]. *)
  | Trial_result of { id : int; cfg : string; energy : float; ipc : float }
      (** ...and aggregated its measurement. *)
  | Burn_in of { id : int; left : int }
      (** A warm-up invocation passed; [left] remain. *)
  | Tuning_finished of { id : int; best : string; tested : int }
  | Drift_sample of { id : int; ipc : float; ref_ipc : float }
      (** A configured-phase sampling exit compared IPC with reference. *)
  | Retune of { id : int; drift : float }
  | Quarantine of { id : int }  (** Re-tune storm: selection pinned. *)
  | Cu_failed of { cu : string }
      (** Graceful degradation declared this CU failed. *)
  | Cu_recovered of { cu : string }
  | Reconfig of { cu : string; label : string; flushed : int }
      (** A CU actually changed setting (e.g. a cache resize), flushing
          [flushed] dirty lines. *)
  | Fault of { cu : string; what : string }  (** An injected fault fired. *)
  | Ckpt_capture of { bytes : int }
      (** A snapshot of this many bytes was written.  Ring-only: checkpoint
          events never touch the metrics registry, so a resumed run's
          metrics stay byte-identical to the uninterrupted run's. *)
  | Ckpt_restore of { instrs : int }
      (** The run resumed from a snapshot taken at [instrs]. *)
  | Job_state of { id : int; state : string }
      (** A serve-daemon job changed state ("queued", "running", "retrying",
          "resumed", "done", "failed", ...).  Emitted only by the daemon's
          own sink, whose clock is wall milliseconds since daemon start. *)
  | Io_fault of { op : string; path : string }
      (** A storage operation ([op] — "write", "fsync", "rename", ...)
          failed on [path].  Emitted by the serve daemon when spool I/O
          raises [Ace_util.Io.Io_error], so a trace shows exactly when the
          disk started misbehaving relative to job activity. *)
  | Phase_splice of { id : int; instrs : int }
      (** Fast-forward simulation replayed a known phase of method [id]
          spanning [instrs] instructions from its memoized record instead
          of simulating it, so a trace shows exactly which regions were
          sampled. *)

type event = { ts : int; kind : kind }
(** [ts] is the engine instruction counter at recording time. *)

val kind_name : kind -> string
(** Stable lower-snake-case name of the constructor ("phase_enter", ...). *)

type t

val null : t
(** The always-off sink: every emission is a single branch, nothing is ever
    registered, recorded or mutated.  Every producer defaults to it. *)

val create : ?capacity:int -> level -> t
(** A fresh sink.  [capacity] (default 65536, clamped to >= 1) bounds the
    event ring; once full, recording drops the oldest event and {!dropped}
    counts the loss.  Only [Full] sinks allocate the ring. *)

val level : t -> level

val enabled : t -> bool
(** [level t <> Off]: the metrics registry is live. *)

val tracing : t -> bool
(** [level t = Full]: the event ring is live. *)

val set_clock : t -> (unit -> int) -> unit
(** Install the timestamp source (the engine's instruction counter; the
    engine installs it at creation).  No-op on an [Off] sink, so {!null}
    is never mutated.  The clock starts as [fun () -> 0]. *)

val now : t -> int

(** {2 Metrics registry}

    Handles are obtained once (registration is idempotent: the same name
    returns the same cell) and updated through the sink so the level gate is
    applied uniformly.  Registering on {!null} returns an inert cell. *)

type counter
type gauge
type histogram

val counter : t -> string -> counter
val gauge : t -> string -> gauge

val histogram : t -> string -> bounds:float array -> histogram
(** [bounds] are inclusive upper bucket edges, strictly increasing and
    non-empty; an implicit overflow bucket catches the rest.  Re-registering
    an existing name returns the existing cell (its original bounds win).
    @raise Invalid_argument on empty or non-increasing bounds. *)

val incr : t -> counter -> unit
(** Allocation-free at every level; a single branch when disabled. *)

val add : t -> counter -> int -> unit
val set_gauge : t -> gauge -> float -> unit

val observe : t -> histogram -> float -> unit
(** Add one observation.  Gate the call ([if enabled t]) to keep the float
    argument from being boxed on the off path. *)

val counter_value : counter -> int
val gauge_value : gauge -> float

(** One registry entry, for exporters. *)
type metric =
  | M_counter of string * int
  | M_gauge of string * float
  | M_histogram of string * float array * int array * int * float
      (** name, bounds, per-bucket counts (length [bounds + 1], last =
          overflow), total count, sum of observations. *)

val metrics : t -> metric list
(** All registered metrics, sorted by name (deterministic export order). *)

(** {2 Event ring} *)

val record : t -> kind -> unit
(** Record an event at the current clock, if [tracing t]: its encoding is
    appended to the ring's byte log, the bytes a checkpoint copies, and
    hashed into the log's running CRC, the CRC a checkpoint takes.  Gate
    the call at the site so the [kind] payload is not allocated on colder
    levels. *)

val events : t -> event list
(** Retained events, oldest first, timestamps non-decreasing, decoded from
    the ring's bytes on every call. *)

val event_count : t -> int
val dropped : t -> int
(** Events lost to ring overflow (oldest-first). *)

(** {2 Checkpoints} *)

val sync : Ace_util.Codec.io -> t -> unit
(** The sink's image, so a resumed run continues its metrics and timeline
    seamlessly: registered cells sorted by name, then the ring oldest
    first, copied as the encoded bytes it holds and handed to
    {!Ace_util.Codec.write_encoded} with the CRC the ring keeps of them
    (an [Off] sink writes an empty option).
    Reading a present image makes the sink that image — cells it lacks
    drop to zero, missing cells are registered, and a [Full] sink takes
    the events back, each decoded and checked, truncated to its capacity
    with further drops counted;
    an absent image leaves the sink as it is.
    @raise Ace_util.Codec.Error on a histogram whose bounds do not
    increase. *)
