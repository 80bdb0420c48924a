(** Configurable units (CUs).

    A CU is a hardware resource with a small set of discrete settings, a
    control register through which software selects a setting, a
    reconfiguration cost, and a *reconfiguration interval* — the minimum
    useful residency of a setting (§2.1 of the paper).  The framework never
    writes the control register directly; all requests go through {!Hw},
    which implements the paper's per-CU last-reconfiguration guard counter
    (§3.4). *)

type t = {
  name : string;
  family : Ace_power.Energy_model.family option;
      (** [Some _] for cache CUs (drives energy accounting); [None] for
          non-cache extension CUs that carry their own energy proxy. *)
  setting_labels : string array;  (** Human-readable, index 0 = largest. *)
  setting_sizes : int array;
      (** Size of each setting (bytes for caches, entries for queues),
          descending; used by tuners to order configurations. *)
  reconfig_interval : int;  (** Minimum instructions between reconfigurations. *)
  apply : int -> int;
      (** Write the control register: switch hardware to the given setting
          index, returning the number of dirty lines flushed (0 for units
          with no flush cost). *)
  accesses_now : unit -> int;
      (** Cumulative access count of the underlying unit (energy epochs). *)
  energy_proxy : Ace_vm.Profile.t -> setting:int -> float;
      (** Estimated energy (nJ) one invocation with the given profile would
          cost this unit at the given setting — the tuner's ranking metric. *)
  mutable current : int;  (** Current setting index. *)
  mutable last_reconfig_instr : int;
  mutable applied_count : int;  (** Accepted requests that changed the setting. *)
  mutable denied_count : int;  (** Requests dropped by the guard counter. *)
  mutable invalid_count : int;
      (** Out-of-range register writes rejected at the {!Hw} boundary (a
          corrupted tuner state must not crash the simulation). *)
}

val n_settings : t -> int

val current_size : t -> int

val l1d : Ace_vm.Engine.t -> t
(** The paper's L1 data cache CU: 64/32/16/8 KB, 100 K-instruction
    reconfiguration interval. *)

val l2 : Ace_vm.Engine.t -> t
(** The paper's unified L2 CU: 1 MB/512 KB/256 KB/128 KB, 1 M-instruction
    interval. *)

val issue_queue : Ace_vm.Engine.t -> t
(** Extension CU (§4.1 "we are implementing several more CUs"): a 64/48/32/16
    entry issue queue with a 10 K-instruction interval.  Downsizing scales
    the engine's effective ILP and saves wakeup/select energy. *)

val reorder_buffer : Ace_vm.Engine.t -> t
(** Extension CU: a 64/48/32/16 entry reorder buffer with a 5 K-instruction
    interval.  A smaller window hides less memory-miss latency (the engine's
    exposure scale) and saves CAM/payload energy. *)

val sync : Ace_util.Codec.io -> t -> unit
(** Register/guard state and request counters, for checkpoints.  The
    hardware effect of the current setting is checkpointed by
    [Engine.sync], not here.
    @raise Ace_util.Codec.Error if the setting index is out of range. *)
