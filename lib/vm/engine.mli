(** The dynamic optimization system's execution engine.

    Plays the role of Jikes RVM running on Dynamic SimpleScalar: it executes
    an {!Ace_isa.Program.t} over a simulated memory hierarchy and timing
    model, while performing the DO system's own activities — invocation
    counting, timer-based sampling, hotspot promotion, JIT recompilation
    (modelled as a code-quality step plus a compilation-cost charge), and
    execution of instrumentation stubs at method boundaries.

    Resource-adaptation schemes attach through {!hooks}; the engine itself is
    scheme-agnostic and identical across the fixed-baseline, hotspot-ACE and
    BBV runs, as in the paper where all three run the same VM. *)

type config = {
  seed : int;
  hot_threshold : int;
      (** Invocations after which a method is promoted to hotspot. *)
  sample_period_cycles : float;
      (** Jikes' 10 ms timer tick, expressed in cycles. *)
  sample_opt_threshold : int;
      (** Sampler hits that trigger recompilation of a long-running,
          rarely-invoked method. *)
  quality_baseline : float;  (** IPC multiplier of baseline-compiled code. *)
  quality_optimized : float;  (** IPC multiplier after JIT optimization. *)
  compile_instrs_per_code_byte : int;
      (** JIT compilation cost charged when a method is recompiled. *)
  interval_instrs : int option;
      (** If set, [on_interval] fires every this many program instructions
          (the BBV sampling interval). *)
}

val default_config : config
(** seed 42, hot_threshold 32, 200 K-cycle sampler, thresholds and qualities
    as in DESIGN.md, no interval hook. *)

type hooks = {
  mutable on_hotspot_promoted : meth_id:int -> unit;
  mutable on_method_entry : meth_id:int -> unit;
      (** After the entry stub, before the invocation's first instruction. *)
  mutable on_method_exit : meth_id:int -> Profile.t -> unit;
      (** After the invocation's last instruction and the exit stub. *)
  mutable on_block : pc:int -> instrs:int -> count:int -> unit;
      (** After a batch of [count] executions of the block at [pc] (BBV
          accumulation point). *)
  mutable on_interval : total_instrs:int -> unit;
      (** Fired when the program instruction counter crosses a multiple of
          [interval_instrs]. *)
  mutable on_recompile : meth_id:int -> unit;
  mutable observes_call : meth_id:int -> bool;
      (** Whether [on_method_entry] and [on_method_exit] must see the
          invocations of [meth_id]; [true] for every method by default.  A
          scheme may answer [false] for a method only if, for any invocation
          of it during which no method is promoted, the entry hook and the
          matching exit hook together change nothing and record nothing:
          the engine may then skip both (it does so for calls inside a
          fast-forward region to methods that make no calls).  A scheme
          that installs entry or exit hooks sets this with them. *)
}

type t

val create :
  ?config:config ->
  ?faults:Ace_faults.Faults.t ->
  ?obs:Ace_obs.Obs.t ->
  Ace_isa.Program.t ->
  t
(** Build an engine for one run.  [faults] (default
    {!Ace_faults.Faults.none}) injects measurement noise/spikes into the
    per-invocation profiles handed to [on_method_exit] and jitter into the
    timer sampler; the engine's true clock and counters stay unperturbed.
    [obs] (default {!Ace_obs.Obs.null}) receives execution counters and, at
    [Full] level, phase enter/exit, promotion and recompilation events; the
    engine installs its instruction counter as the sink's clock.
    @raise Invalid_argument if the program fails validation. *)

val config : t -> config
val program : t -> Ace_isa.Program.t
val hooks : t -> hooks
val hierarchy : t -> Ace_mem.Hierarchy.t
val machine : t -> Ace_cpu.Machine.t
val db : t -> Do_database.t

val run : t -> unit
(** Execute the program's entry method once.  May be called once per
    engine. *)

(** {2 Checkpoints}

    The engine executes with an explicit frame stack, so its complete
    execution position — including the statement index and remaining call
    repetitions of every in-flight invocation — is plain data. *)

val sync : Ace_util.Codec.io -> t -> unit
(** Counters, sampler and interval cursors, the frame stack (outermost
    invocation first), RNG, pattern cursors, DO database, memory hierarchy
    and any in-flight fast-forward region.  Writing may happen at any point
    (typically from the [on_interval] hook).  Reading overwrites a fresh,
    not-yet-run engine built with [create] from the same program and
    config; call it after attaching the scheme, since schemes set
    ILP/exposure scales at attach time.
    @raise Ace_util.Codec.Error if the program shape differs.
    @raise Invalid_argument when reading into an engine that already ran. *)

val resume : t -> unit
(** Continue an engine read back by {!sync} to completion.
    @raise Invalid_argument unless called on a freshly restored engine. *)

(** {2 Global counters} *)

val instrs : t -> int
(** Program instructions retired (excludes instrumentation stubs). *)

val cycles : t -> float
(** Total cycles, including stubs, JIT compilation and reconfiguration
    stalls. *)

val overhead_instrs : t -> int
(** Instrumentation + JIT instructions executed so far. *)

val hot_instrs : t -> int
(** Instructions retired while at least one already-promoted hotspot frame
    was on the call stack (Table 4's "% of code in hotspots"). *)

val ipc : t -> float

(** {2 Services for schemes} *)

val add_stall_cycles : t -> float -> unit
(** Charge stall cycles (e.g. a reconfiguration flush) to the global clock. *)

val charge_software_instrs : t -> int -> unit
(** Charge scheme software work (tuning logic) as overhead instructions. *)

val set_ilp_scale : t -> float -> unit
(** Scale the effective ILP of all subsequent blocks.  Models non-cache
    configurable units (e.g. a downsized issue queue); 1.0 initially. *)

val set_exposure_scale : t -> float -> unit
(** Scale the exposed fraction of memory-miss latency.  Models a resized
    reorder buffer: a smaller out-of-order window hides less of each miss;
    1.0 initially. *)

val ilp_scale : t -> float
val exposure_scale : t -> float
(** Current scale values (part of the sampler's hardware signature). *)

(** {2 Fast-forward sampling}

    An external sampler ({!Ace_sample.Sample}) can intercept candidate
    method entries.  For each it either observes the invocation (to build a
    phase-statistics record) or requests a fast-forward: the engine then
    runs the invocation with a functional-only model — DO database, pattern
    cursors, RNG stream and instruction counters advance exactly as a full
    simulation would, but no hierarchy accesses are performed.  At region
    end the memoized hierarchy counter deltas are spliced in, the clock is
    set to exactly [start + memoized cycles], and a [Phase_splice] event is
    recorded.  Inside a region, a call to a method that makes no calls runs
    inline, without a frame, a profile or the entry and exit hooks, when
    [observes_call] says no hook needs it, the entry does not promote the
    callee, no interval boundary falls inside it and obs is not tracing;
    every other effect of the call is made as on the framed path.  See
    DESIGN.md §Sampled simulation. *)

(** Memoized cost of one phase invocation, supplied by the sampler. *)
type ff_request = {
  ff_instrs : int;  (** Instructions the region will retire. *)
  ff_cycles : float;  (** Memoized cycle cost of the region. *)
  ff_counts : Ace_mem.Hierarchy.counts;  (** Memoized counter deltas. *)
}

type decision =
  | No_sample  (** Simulate normally; no region-end callback. *)
  | Observe  (** Simulate fully; fire [sc_exit ~ff:false] at region end. *)
  | Fast_forward of ff_request  (** Replay the memoized record. *)

type sample_ctl = {
  sc_decide : meth_id:int -> decision;
      (** Consulted at method entry, after the entry hook (so per-hotspot
          reconfiguration has been applied) — but never inside an active
          fast-forward region: regions do not nest. *)
  sc_exit : meth_id:int -> ff:bool -> unit;
      (** Fired once per [Observe]/[Fast_forward] decision, in LIFO order,
          at the exact point where the decided span ends (before the exit
          stub and profile — mirroring where it began). *)
}

val set_sample_ctl : t -> sample_ctl -> unit
(** Install the sampler callbacks.  At most one sampler per engine.
    @raise Invalid_argument if a sampler is already attached. *)

val in_fast_forward : t -> bool
(** True while a fast-forward region is active (schemes use this to defer
    reconfiguration decisions that would otherwise be based on replayed
    rather than simulated intervals). *)
