(** The DO database: runtime profiling state the dynamic optimizer keeps per
    method (Figure 2's "DO database").

    One entry per static method records invocation counts, sampler hits,
    compilation state, hotspot status, the running estimate of the hotspot's
    dynamic size (instructions per invocation, inclusive of callees), and the
    per-invocation IPC profile used for Table 5's coefficient-of-variation
    analysis.  ACE-scheme-specific tuning state is *not* stored here; the
    framework (in [ace_core]) keys its own table by method id, mirroring how
    the paper extends Jikes' global data structures (§4.2). *)

type compile_state = Baseline | Optimized

type entry = {
  meth_id : int;
  mutable invocations : int;
  mutable samples : int;  (** Timer-sampler hits attributed to the method. *)
  mutable compile_state : compile_state;
  mutable is_hotspot : bool;
  mutable promoted_at_instr : int;  (** Global instr count at promotion; -1 before. *)
  mutable pre_promotion_instrs : int;
      (** Inclusive instructions executed in this method's invocations that
          completed before promotion — the hotspot identification latency. *)
  size_ema : Ace_util.Stats.Ema.t;  (** Hotspot size estimate. *)
  ipc_profile : Ace_util.Stats.Running.t;
      (** IPC of each completed invocation (post-promotion). *)
  mutable entry_overhead : int;  (** Instrumentation instrs at entry. *)
  mutable exit_overhead : int;  (** Instrumentation instrs at exit. *)
}

type t

val create : methods:int -> t
val entry : t -> int -> entry
val size : t -> int
val iter : t -> (entry -> unit) -> unit

val set_instrument : t -> int -> Instrument.kind -> unit
(** Install the given stub kind at a method's entry and exits (what the JIT
    compiler does when it rewrites a hotspot). *)

val estimated_size : entry -> int
(** Current hotspot-size estimate in instructions (0 until first exit). *)

val sync : Ace_util.Codec.io -> t -> unit
(** Every entry's profiling state, for checkpoints.
    @raise Ace_util.Codec.Error if the method counts differ. *)

(** Aggregates for Table 4 / Table 5. *)

val hotspot_count : t -> int

val hotspots : t -> entry list
(** Entries flagged as hotspots, in method-id order. *)

val mean_hotspot_size : t -> float
val mean_invocations_per_hotspot : t -> float

val identification_latency_instrs : t -> int
(** Sum of pre-promotion inclusive instructions over all hotspots (overlaps
    between nested hotspots included, as in the paper's estimate). *)

val inter_hotspot_ipc_cov : t -> float
(** CoV of the mean IPCs across hotspots. *)

val mean_per_hotspot_ipc_cov : t -> float
(** Mean over hotspots of each hotspot's own invocation-IPC CoV. *)
