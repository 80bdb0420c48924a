(** Per-invocation performance profile.

    Gathered by the engine between a method's entry and exit — the data the
    paper's *profiling code* collects at hotspot exits.  All fields are
    inclusive of callees (a hotspot's behaviour includes its nested
    hotspots). *)

type t = {
  instrs : int;  (** Program instructions retired during the invocation. *)
  cycles : float;  (** Cycles consumed, including instrumentation stubs. *)
  l1d_accesses : int;
  l1d_misses : int;
  l2_accesses : int;
  l2_misses : int;
}

val ipc : t -> float
(** Instructions per cycle; 0 when no cycles elapsed. *)

val ipc_of : instrs:int -> cycles:float -> float
(** [ipc] of a profile with these two fields. *)

val l1d_energy_nj : t -> size_bytes:int -> leak_cycles:float -> float
(** Energy this invocation would cost the L1D at the given size: dynamic
    access energy plus leakage over [leak_cycles].  Used by tuners to rank
    configurations. *)

val l2_energy_nj : t -> size_bytes:int -> leak_cycles:float -> float
