(** Per-unit energy accounting by configuration epochs.

    A configurable cache spends its life in *epochs*, each at one size.  The
    engine (or scheme) closes an epoch whenever the unit is reconfigured and
    once at the end of the run; this module turns the per-epoch access and
    cycle deltas into energy using {!Energy_model}, and adds the
    reconfiguration energy of the flushed dirty lines — the overhead term the
    paper's augmented power model accounts for (§4.1). *)

type t

val create : Energy_model.family -> initial_size:int -> t
(** Start accounting with the unit at [initial_size] bytes, zero accesses and
    zero cycles. *)

val on_reconfig :
  t -> new_size:int -> accesses_now:int -> cycles_now:float -> flushed_lines:int -> unit
(** Close the current epoch at the cumulative counter values [accesses_now]
    (the cache's access counter) and [cycles_now] (the global cycle count),
    charge the flush, and open an epoch at [new_size]. *)

val finish : t -> accesses_now:int -> cycles_now:float -> unit
(** Close the final epoch.  Idempotent only if counters do not advance. *)

val dynamic_nj : t -> float
val leakage_nj : t -> float
val reconfig_nj : t -> float

val total_nj : t -> float
(** Sum of the three components over all closed epochs. *)

val reconfig_count : t -> int
(** Number of [on_reconfig] calls (actual size changes as seen by the
    accountant). *)

val time_weighted_avg_bytes : t -> float
(** Average configured size weighted by cycles, over closed epochs.
    Diagnostic for the energy results. *)

val sync : Ace_util.Codec.io -> t -> unit
(** The full accounting state (the unit's family is fixed at creation and
    not part of it), for checkpoints. *)
