(** Reproduction drivers: one entry point per table and figure in the paper,
    each rendering an ASCII table with measured values (and the paper's
    reported values where it reports them).

    A context memoizes one run per (workload, variant), so printing all
    experiments costs at most 3-5 runs per workload.

    With [jobs > 1] each experiment fans its independent runs out over a
    {!Ace_util.Pool} of [jobs - 1] worker domains (the calling domain works
    the queue too).  Results land in a mutex-guarded cache keyed by
    (workload, variant) and every table is rendered from that cache in a
    fixed canonical order, so output is byte-identical to [jobs = 1] —
    asserted by test across seeds. *)

type t

val create :
  ?scale:float ->
  ?seed:int ->
  ?jobs:int ->
  ?sample:Ace_sample.Sample.config ->
  ?workloads:Ace_workloads.Workload.t list ->
  unit ->
  t
(** Defaults: scale 1.0, seed 1, jobs 1, sampling off, the full SPECjvm98
    suite.  With [sample] set, every (non-faulty, or resilient-faulty) run
    in the context executes under phase-memoized fast-forwarding.
    @raise Invalid_argument if [jobs < 1]. *)

val scale : t -> float

val jobs : t -> int
(** Degree of parallelism this context was created with. *)

val shutdown : t -> unit
(** Join the context's worker domains (no-op when [jobs = 1]).  Call once
    when done with a [jobs > 1] context; further parallel use of the
    context is an error. *)

val result : t -> Ace_workloads.Workload.t -> Scheme.t -> Run.result
(** Memoized standard run. *)

(** {2 Configuration tables (static)} *)

val table2 : unit -> Ace_util.Table.t
(** Simulated system configuration. *)

val table3 : unit -> Ace_util.Table.t
(** Benchmark descriptions. *)

(** {2 Measured experiments} *)

val table1 : t -> Ace_util.Table.t
(** Phase identification and tuning latencies, temporal (BBV) vs DO-based —
    the paper's qualitative Table 1 backed by measured quantities. *)

val fig1 : t -> Ace_util.Table.t
(** Distribution of stable vs transitional BBV phase intervals. *)

val table4 : t -> Ace_util.Table.t
(** Runtime hotspot characteristics. *)

val table5 : t -> Ace_util.Table.t
(** Hotspot vs BBV runtime characteristics (counts, tuned fractions, IPC
    coefficients of variation). *)

val table6 : t -> Ace_util.Table.t
(** Tunings, reconfigurations and coverage per cache per scheme. *)

val fig3 : t -> Ace_util.Table.t
(** L1D and L2 cache energy reduction vs the fixed-maximum baseline. *)

val fig4 : t -> Ace_util.Table.t
(** Execution slowdown vs the fixed-maximum baseline. *)

(** {2 Beyond the paper} *)

val ablation_decoupling : t -> Ace_util.Table.t
(** Hotspot scheme with CU decoupling disabled: every managed hotspot
    explores the combinatorial configuration space (§2.3's strawman). *)

val ablation_thresholds : t -> Ace_util.Table.t
(** Sweep of the tuner's performance threshold on one benchmark. *)

val extension_issue_queue : t -> Ace_util.Table.t
(** Three-CU run (L1D + L2 + issue queue), the §4.1 extension. *)

val extension_prediction : t -> Ace_util.Table.t
(** Static configuration prediction by the JIT (§6 future work): tuned vs
    predicted savings, slowdowns and tuning-trial counts. *)

val extension_bbv_predictor : t -> Ace_util.Table.t
(** The BBV baseline with the next-phase predictor the paper deliberately
    omitted ([20]/[24]): coverage and savings with vs without it. *)

val resilience : t -> Ace_util.Table.t
(** Hotspot and BBV schemes under injected hardware faults
    ({!Ace_faults.Faults.preset}) at increasing rates, with and without the
    framework's resilience machinery.  Savings are measured against the
    fault-free fixed-maximum baseline; the "L1D retention" column is each
    row's saving as a fraction of the fault-free hotspot saving. *)

val stability : t -> Ace_util.Table.t
(** Suite-average savings and slowdowns across three construction seeds —
    evidence the reproduction's conclusions are not seed artifacts. *)

val sample_accuracy : t -> Ace_util.Table.t
(** Sampled vs full simulation for every benchmark and scheme: fraction of
    instructions replayed from memoized phase statistics, headline deltas
    (L1D/L2 energy, cycles) and an exactness check on the architectural
    quantities the fast-forward path must reproduce bit-identically
    (instruction counts, hotspot census).  Deterministic — wall-clock
    speedup is measured by [bench/main.exe --sample-json] instead.  Not
    included in {!all}. *)

val soak : ?cycles:int -> t -> Ace_util.Table.t
(** {!Soak.chaos_soak} on one benchmark under every scheme: [cycles]
    (default 20) seeded kill/resume rounds at 1% injected faults, including
    storage-channel snapshot corruption.  The "Tables match" column must
    read "yes" on every row.  Not included in {!all}. *)

(** {2 Aggregates (used by benches and tests)} *)

val energy_reduction :
  t -> Ace_workloads.Workload.t -> Scheme.t -> float * float
(** (L1D, L2) energy reduction vs baseline, as fractions. *)

val slowdown : t -> Ace_workloads.Workload.t -> Scheme.t -> float
(** Cycles overhead vs baseline, as a fraction. *)

val average_energy_reduction : t -> Scheme.t -> float * float
val average_slowdown : t -> Scheme.t -> float

val experiments : (string * (t -> Ace_util.Table.t)) list
(** Every experiment with its identifier, in paper order: the tables {!all}
    renders, then [sample-accuracy] and [soak]. *)

val all : t -> (string * Ace_util.Table.t) list
(** Every experiment except [sample-accuracy] and [soak], rendered after
    one up-front run of every variant they share. *)
