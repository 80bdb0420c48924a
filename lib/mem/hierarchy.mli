(** Three-level memory hierarchy (Table 2 of the paper).

    - L1 I-cache: fixed 64 KB, 2-way, 64 B lines, 1-cycle hits.
    - L1 D-cache: resizable 64/32/16/8 KB, 2-way, 64 B lines, 1-cycle hits.
    - Unified L2: resizable 1 MB/512 KB/256 KB/128 KB, 4-way, 128 B lines,
      10-cycle hits.
    - Memory: 100-cycle latency.
    - DTLB: 128-entry fully associative, consulted on L1D misses.

    All access functions return the latency in cycles seen by the load/store
    (writebacks are buffered and charged no latency, only traffic). *)

type latencies = {
  l1_hit : int;
  l2_hit : int;  (** Added on top of the L1 lookup. *)
  memory : int;  (** Added on top of L1 + L2 lookups. *)
  tlb_miss : int;
  writeback_cycles_per_line : int;
      (** Stall cycles per dirty line flushed by a resize. *)
}

val default_latencies : latencies

type t

val create : ?latencies:latencies -> ?obs:Ace_obs.Obs.t -> unit -> t
(** Caches start at their maximum (paper baseline) sizes.  [obs] receives
    resize counters/gauges and, at [Full] level, [Reconfig] events. *)

val latencies : t -> latencies
val l1i : t -> Cache.t
val l1d : t -> Cache.t
val l2 : t -> Cache.t
val dtlb : t -> Tlb.t

val data_access : t -> addr:int -> write:bool -> int
(** Perform a load ([write:false]) or store and return its latency.  Misses
    propagate to L2 and memory; dirty victims generate writeback traffic into
    the next level. *)

val data_access_batch : t -> addrs:int array -> n:int -> loads:int -> stores:int -> int
(** [data_access_batch t ~addrs ~n ~loads ~stores] performs [n] data
    accesses for [addrs.(0 .. n-1)], where each period of [loads + stores]
    addresses is [loads] loads followed by [stores] stores (the basic-block
    shape; [n] must be a whole number of periods).  All structure state and
    counters end exactly as [n] {!data_access} calls would leave them, but
    the L1D runs as one dense pass and the TLB/L2/memory fallthrough as a
    second pass over the compacted misses only.  Returns the summed latency
    in excess of one [l1_hit] per access — i.e. exactly
    [Σ (data_access addr - l1_hit)].  Allocation-free at steady state
    (internal scratch grows geometrically, never per call). *)

val ifetch : t -> pc:int -> int
(** Instruction fetch probe for a basic block (one representative access per
    block execution; see DESIGN.md). *)

val resize_l1d : t -> size_bytes:int -> int
(** Change the L1D capacity.  Flushed dirty lines are written into the L2.
    Returns the number of dirty lines flushed (the caller charges
    [writeback_cycles_per_line] each and the energy model charges the L2
    write energy). *)

val resize_l2 : t -> size_bytes:int -> int
(** Change the L2 capacity; flushed dirty lines go to memory.  Returns the
    flushed line count.  Like {!resize_l1d}, resizing to the current size
    is a pure no-op: no flush, no traffic accounting, no observability
    events. *)

val memory_reads : t -> int
(** Lines fetched from memory (L2 fill traffic). *)

val memory_writebacks : t -> int
(** Lines written to memory (L2 dirty evictions and L2 flushes). *)

val pp_config : Format.formatter -> t -> unit

(** Cumulative hit/miss/traffic counters across all four structures, used
    both as a snapshot (to measure a phase's deltas) and as a delta (to
    splice a memoized phase back in).  Purely counters: no array contents. *)
type counts = {
  c_l1i_accesses : int;
  c_l1i_hits : int;
  c_l1i_writebacks : int;
  c_l1d_accesses : int;
  c_l1d_hits : int;
  c_l1d_writebacks : int;
  c_l2_accesses : int;
  c_l2_hits : int;
  c_l2_writebacks : int;
  c_tlb_accesses : int;
  c_tlb_misses : int;
  c_mem_reads : int;
  c_mem_writebacks : int;
}

val counts : t -> counts
(** Current cumulative counter values. *)

val diff_counts : before:counts -> after:counts -> counts
(** Per-field subtraction, [after - before]. *)

val splice : t -> counts -> unit
(** Fold a delta into the live counters without performing any accesses;
    cache/TLB contents are untouched.  Fast-forward simulation charges a
    skipped phase this way so energy accounting (which reads these
    counters) stays consistent. *)

val counts_codec : counts Ace_util.Codec.t

val sync : Ace_util.Codec.io -> t -> unit
(** All four structures plus the memory-traffic counters, for checkpoints;
    reading restores the caches' current (possibly downsized) capacities.
    @raise Ace_util.Codec.Error on a state the hierarchy cannot hold. *)
