(** Seeded, composable hardware fault injection.

    Real adaptive hardware is messier than the paper's model: control-register
    writes can be lost or bit-flipped in flight, a CU can latch up
    (transiently or permanently) at its current setting, performance-counter
    readouts carry measurement noise and outlier spikes, and the VM's timer
    interrupt jitters.  This module models all four fault classes behind one
    seeded generator so that any experiment can be re-run under identical
    fault schedules from a single integer seed.

    The injector is strictly opt-in: {!none} is the distinguished fault-free
    instance, costs no RNG draws, and leaves every consumer bit-for-bit
    identical to a build without fault hooks.  Consumers ({!Ace_core.Hw},
    [Ace_core.Framework], [Ace_vm.Engine]) accept a [Faults.t] and query it
    at their injection points; all decisions and statistics live here. *)

type config = {
  reg_write_drop_p : float;
      (** Probability that a guard-accepted control-register write is silently
          lost: the hardware reports success but the setting does not change. *)
  reg_write_corrupt_p : float;
      (** Probability that a guard-accepted write lands bit-flipped: a
          different (valid) setting is installed than the one requested. *)
  stuck_transient_p : float;
      (** Per-write probability that the CU latches at the setting just
          written and ignores writes for [stuck_transient_instrs]. *)
  stuck_transient_instrs : int;  (** Duration of a transient latch-up. *)
  stuck_permanent_p : float;
      (** Per-write probability that the CU latches permanently. *)
  profile_noise_cov : float;
      (** Coefficient of variation of multiplicative measurement noise
          applied to exit-profile cycle counts (and hence IPC and
          leakage-energy estimates). *)
  profile_spike_p : float;
      (** Probability that an exit profile is an outlier spike. *)
  profile_spike_mag : float;
      (** Relative magnitude of a spike: cycles are multiplied by
          [1 + profile_spike_mag]. *)
  sampler_jitter_frac : float;
      (** Relative jitter of the VM sampler period: each tick's period is
          scaled uniformly within [1 +- sampler_jitter_frac]. *)
  ckpt_corrupt_p : float;
      (** Probability that a checkpoint snapshot written to storage is
          corrupted (one byte flipped), exercising the reader's CRC check
          and fallback path. *)
}

val no_faults : config
(** All probabilities and magnitudes zero. *)

val preset : rate:float -> config
(** A one-knob fault model: [rate] is the register-write drop probability;
    the other fault classes are scaled from it (corruption at [rate],
    transient latch-up at [rate/2] for 5 M instructions, permanent latch-up
    at [rate/20], measurement spikes at [2*rate] of magnitude 1.5, noise CoV
    [2*rate], sampler jitter [5*rate], snapshot corruption at [2*rate]).
    [preset ~rate:0.0] equals {!no_faults}.
    @raise Invalid_argument if [rate] is outside [0, 1] (including NaN). *)

type t
(** A fault injector: a configuration plus a private RNG stream and the
    per-CU latch-up state. *)

val none : t
(** The fault-free injector: every query takes its zero-cost early-out path,
    draws no random numbers, and perturbs nothing. *)

val is_none : t -> bool

val create : ?seed:int -> ?obs:Ace_obs.Obs.t -> config -> t
(** A fresh injector with its own RNG stream (default seed 2005).  Equal
    seeds and configurations yield identical fault schedules.  [obs]
    receives per-channel fault counters and, at [Full] level, [Fault] ring
    events (sampler jitter stays counter-only to avoid flooding). *)

val config : t -> config
(** The injector's configuration ({!no_faults} for {!none}). *)

(** Outcome of a control-register write that passed the hardware guard. *)
type write_outcome =
  | Landed  (** The write took effect as requested. *)
  | Dropped
      (** The write was lost (or the CU is latched): hardware still reports
          success, the setting is unchanged. *)
  | Corrupted of int  (** The write landed at this other (valid) setting. *)

val on_reg_write :
  t -> cu:string -> now_instrs:int -> setting:int -> n_settings:int ->
  write_outcome
(** Decide the fate of a guard-accepted write of [setting] to the named CU.
    Also advances the CU's latch-up state: a write that lands may latch the
    CU transiently or permanently at the new setting.  With {!none} this is
    always [Landed]. *)

val cu_stuck : t -> cu:string -> now_instrs:int -> bool
(** Whether the named CU is currently latched (diagnostics). *)

val perturb_cycles : t -> cycles:float -> float
(** Apply multiplicative measurement noise (and possibly an outlier spike)
    to a profile's cycle count.  Identity under {!none} or when both noise
    knobs are zero — no RNG draws in either case. *)

val jitter_period : t -> period:float -> float
(** Jitter one sampler period.  Identity (and draw-free) under {!none} or a
    zero jitter fraction. *)

(** Cumulative injection counts (what the schedule actually did). *)
type stats = {
  writes_dropped : int;
  writes_corrupted : int;
  stuck_events : int;  (** Latch-ups entered (transient or permanent). *)
  spikes : int;
  jittered_ticks : int;
  snapshots_corrupted : int;  (** Snapshots damaged on the storage channel. *)
}

val stats : t -> stats
(** All-zero for {!none}. *)

val hw_fault_events : t -> int
(** Monotone count of hardware-channel fault events (dropped/corrupted
    register writes and latch-ups) — the faults that change the machine's
    effective configuration.  The sampled-simulation phase cache polls this
    and invalidates its entries whenever it moves; measurement-channel
    faults (profile noise/spikes, timer jitter) are excluded because they
    do not perturb the machine.  0 for {!none}. *)

val maybe_corrupt_snapshot : t -> bytes -> bool
(** With probability [ckpt_corrupt_p], flip one byte of [buf] in place
    (uniformly chosen position) and return [true].  Identity and draw-free
    under {!none} or a zero probability.  Draws from a dedicated
    storage-channel RNG stream, so writing (or not writing) checkpoints
    never changes the engine-visible fault schedule. *)

val storage_io : ?seed:int -> rate:float -> Ace_util.Io.t -> Ace_util.Io.t
(** Wrap a filesystem backend with seeded storage-fault injection
    ([Io.fault_preset ~rate]: short/torn writes, [ENOSPC], [EIO], lost
    fsyncs, rename failures).  Draws from a dedicated stream derived from
    [seed] (default 2005, matching {!create}) — distinct from both the
    engine stream and the checkpoint-corruption stream, so storage faults
    never perturb the simulated fault schedule.  Deliberately stateless
    with respect to {!t} and absent from its checkpoints: filesystem faults hit
    the host around the simulation, not the simulated machine, so they are
    not part of snapshot state. *)

(** {2 Checkpoints}

    The injector's own RNG streams and latch table are part of the simulator
    state: a resumed run must see the identical fault schedule. *)

val sync : Ace_util.Codec.io -> t -> unit
(** Both RNG streams, the latch table and the event counters; {!none}
    writes an empty option.
    @raise Ace_util.Codec.Error when reading an injector's state into
    {!none}, or nothing into an injector. *)
