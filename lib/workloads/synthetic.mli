(** Parameterized synthetic workload generator.

    Where the SPECjvm98 analogues are hand-shaped, this generator produces a
    family of structurally similar programs from a compact parameter record —
    used by property-based tests (random but valid programs), by the examples
    (build-your-own workload) and by sensitivity benches (sweeps over hotspot
    size or locality). *)

type params = {
  n_phases : int;  (** L2-class phase methods. *)
  phase_repeats : int;  (** Invocations of each phase method. *)
  l1_methods_per_phase : int;
  l1_target_size : int;  (** Inclusive instructions per L1D-class method. *)
  leaves_per_phase : int;
  leaf_instrs : int;  (** Instructions per leaf invocation. *)
  working_set_kb : int;  (** Per-phase data region. *)
  shared_kb : int;  (** Region shared by all phases (0 = none). *)
  mem_frac : float;
  streaming_share : float;
      (** Fraction of leaves that stream rather than access randomly. *)
  ilp : float;
  setup_calls : int;
      (** When positive, each phase is preceded by a work-shaped setup
          method invoked exactly this many times — enough to cross the
          hotspot threshold, never enough to finish a tuning campaign.
          Models real init code whose stranded mid-campaign tuner pins any
          {e global} quiescence predicate false for the rest of the run;
          the sampler's scoped guard ({!Ace_core.Framework.measuring_open}
          and {!Ace_core.Framework.unsettled_active}) lets the stranded
          tuner age out and stop blocking.  0 (the default) emits no setup
          methods. *)
}

val default : params
(** A medium workload: 3 phases x 40 repeats, ~120 K L1D methods, 24 KB
    working sets — roughly 40 M instructions. *)

val build : params -> seed:int -> Ace_isa.Program.t
(** @raise Invalid_argument on nonsensical parameters (asserted). *)

val workload : ?name:string -> params -> Workload.t
(** Wrap as a {!Workload.t}; [scale] multiplies [phase_repeats]. *)
