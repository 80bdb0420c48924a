type latencies = {
  l1_hit : int;
  l2_hit : int;
  memory : int;
  tlb_miss : int;
  writeback_cycles_per_line : int;
}

let default_latencies =
  { l1_hit = 1; l2_hit = 10; memory = 100; tlb_miss = 30; writeback_cycles_per_line = 4 }

module Obs = Ace_obs.Obs

type t = {
  lat : latencies;
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  dtlb : Tlb.t;
  mutable mem_reads : int;
  mutable mem_writebacks : int;
  (* Scratch for [data_access_batch]: miss compaction arrays handed to
     [Cache.access_batch].  Grown geometrically on demand, never shrunk,
     and deliberately left out of checkpoints ([sync]) — their contents
     are dead outside one batch call. *)
  mutable miss_addrs : int array;
  mutable miss_victims : int array;
  obs : Obs.t;
  m_l1d_resizes : Obs.counter;
  m_l2_resizes : Obs.counter;
  g_l1d_size : Obs.gauge;
  g_l2_size : Obs.gauge;
}

let l1i_config = { Cache.size_bytes = 64 * 1024; assoc = 2; line_bytes = 64 }
let l1d_config = { Cache.size_bytes = 64 * 1024; assoc = 2; line_bytes = 64 }
let l2_config = { Cache.size_bytes = 1024 * 1024; assoc = 4; line_bytes = 128 }

let create ?(latencies = default_latencies) ?(obs = Obs.null) () =
  let t =
    {
      lat = latencies;
      l1i = Cache.create l1i_config;
      l1d = Cache.create l1d_config;
      l2 = Cache.create l2_config;
      dtlb = Tlb.create ();
      mem_reads = 0;
      mem_writebacks = 0;
      miss_addrs = [||];
      miss_victims = [||];
      obs;
      m_l1d_resizes = Obs.counter obs "mem.l1d.resizes";
      m_l2_resizes = Obs.counter obs "mem.l2.resizes";
      g_l1d_size = Obs.gauge obs "mem.l1d.size_bytes";
      g_l2_size = Obs.gauge obs "mem.l2.size_bytes";
    }
  in
  if Obs.enabled obs then begin
    Obs.set_gauge obs t.g_l1d_size (float_of_int l1d_config.Cache.size_bytes);
    Obs.set_gauge obs t.g_l2_size (float_of_int l2_config.Cache.size_bytes)
  end;
  t

let latencies t = t.lat
let l1i t = t.l1i
let l1d t = t.l1d
let l2 t = t.l2
let dtlb t = t.dtlb

(* An L2 lookup on behalf of a lower-level miss or writeback.  Returns the
   latency contribution; accounts memory traffic.

   [l2_access], [data_access] and [ifetch] are the per-instruction hot
   path: they carry no observability branches at all (the obs fields above
   are consulted only on the rare resize path), and the L1 hit case returns
   before any L2 or TLB work. *)
let[@inline] l2_access t addr ~write =
  match Cache.access t.l2 addr ~write with
  | Cache.Hit -> t.lat.l2_hit
  | Cache.Miss ->
      t.mem_reads <- t.mem_reads + 1;
      t.lat.l2_hit + t.lat.memory
  | Cache.Miss_dirty_victim ->
      t.mem_reads <- t.mem_reads + 1;
      t.mem_writebacks <- t.mem_writebacks + 1;
      t.lat.l2_hit + t.lat.memory

let data_access t ~addr ~write =
  match Cache.access t.l1d addr ~write with
  | Cache.Hit -> t.lat.l1_hit
  | (Cache.Miss | Cache.Miss_dirty_victim) as r ->
      let tlb_penalty = if Tlb.access t.dtlb addr then 0 else t.lat.tlb_miss in
      (* Dirty victim drains to L2 off the critical path (no latency). *)
      (if r = Cache.Miss_dirty_victim then
         ignore (l2_access t (Cache.last_victim_addr t.l1d) ~write:true));
      t.lat.l1_hit + l2_access t addr ~write:false + tlb_penalty

(* Batched [data_access]: the L1D lookups run as one dense pass inside
   [Cache.access_batch], then the TLB probe and L2/memory fallthrough run
   as a second dense pass over the compacted misses only — hits never reach
   this loop at all.  Byte-identical to per-access calls because the
   reordering preserves every component's own access sequence: the L1D sees
   the same addresses in the same order; the TLB and L2 are touched only on
   L1D misses, and the miss pass replays them in miss order with the same
   per-miss structure (TLB probe, dirty victim writeback, then read); the
   penalty is a commutative integer sum.  Returns the summed latency
   *excess* over [loads + stores per period × l1_hit] — i.e. what the
   engine's per-access [data_access addr - l1_hit] accumulation would have
   produced.  Allocates nothing after the scratch arrays reach steady
   size. *)
let data_access_batch t ~addrs ~n ~loads ~stores =
  if Array.length t.miss_addrs < n then begin
    let cap = Int.max n (2 * Array.length t.miss_addrs) in
    t.miss_addrs <- Array.make cap 0;
    t.miss_victims <- Array.make cap 0
  end;
  let misses =
    Cache.access_batch t.l1d addrs ~n ~loads ~stores
      ~miss_addrs:t.miss_addrs ~miss_victims:t.miss_victims
  in
  let miss_addrs = t.miss_addrs and miss_victims = t.miss_victims in
  let tlb_miss_lat = t.lat.tlb_miss in
  let penalty = ref 0 in
  for j = 0 to misses - 1 do
    let addr = Array.unsafe_get miss_addrs j in
    let tlb_penalty = if Tlb.access t.dtlb addr then 0 else tlb_miss_lat in
    let victim = Array.unsafe_get miss_victims j in
    if victim >= 0 then ignore (l2_access t victim ~write:true);
    penalty := !penalty + l2_access t addr ~write:false + tlb_penalty
  done;
  !penalty

let ifetch t ~pc =
  match Cache.access t.l1i pc ~write:false with
  | Cache.Hit -> t.lat.l1_hit
  | Cache.Miss | Cache.Miss_dirty_victim ->
      (* I-lines are never dirty; a victim writeback cannot happen. *)
      t.lat.l1_hit + l2_access t pc ~write:false

let size_label size_bytes = string_of_int (size_bytes / 1024) ^ "KB"

let resize_l1d t ~size_bytes =
  if size_bytes = (Cache.config t.l1d).Cache.size_bytes then 0
  else begin
    (* Drain dirty lines straight into the L2 before the resize invalidates
       the array — no intermediate list of flushed addresses. *)
    Cache.iter_dirty t.l1d (fun addr -> ignore (l2_access t addr ~write:true));
    let n = Cache.resize t.l1d ~size_bytes in
    Obs.incr t.obs t.m_l1d_resizes;
    if Obs.enabled t.obs then
      Obs.set_gauge t.obs t.g_l1d_size (float_of_int size_bytes);
    if Obs.tracing t.obs then
      Obs.record t.obs
        (Obs.Reconfig { cu = "L1D"; label = size_label size_bytes; flushed = n });
    n
  end

let resize_l2 t ~size_bytes =
  if size_bytes = (Cache.config t.l2).Cache.size_bytes then 0
  else begin
    (* L2 dirty lines have no lower level to drain into; their writebacks
       go straight to memory. *)
    let n = Cache.resize t.l2 ~size_bytes in
    t.mem_writebacks <- t.mem_writebacks + n;
    Obs.incr t.obs t.m_l2_resizes;
    if Obs.enabled t.obs then
      Obs.set_gauge t.obs t.g_l2_size (float_of_int size_bytes);
    if Obs.tracing t.obs then
      Obs.record t.obs
        (Obs.Reconfig { cu = "L2"; label = size_label size_bytes; flushed = n });
    n
  end

let memory_reads t = t.mem_reads
let memory_writebacks t = t.mem_writebacks

(* -- counter snapshots / splicing ----------------------------------- *)

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

let counts t =
  {
    c_l1i_accesses = Cache.Stats.accesses t.l1i;
    c_l1i_hits = Cache.Stats.hits t.l1i;
    c_l1i_writebacks = Cache.Stats.writebacks t.l1i;
    c_l1d_accesses = Cache.Stats.accesses t.l1d;
    c_l1d_hits = Cache.Stats.hits t.l1d;
    c_l1d_writebacks = Cache.Stats.writebacks t.l1d;
    c_l2_accesses = Cache.Stats.accesses t.l2;
    c_l2_hits = Cache.Stats.hits t.l2;
    c_l2_writebacks = Cache.Stats.writebacks t.l2;
    c_tlb_accesses = Tlb.accesses t.dtlb;
    c_tlb_misses = Tlb.misses t.dtlb;
    c_mem_reads = t.mem_reads;
    c_mem_writebacks = t.mem_writebacks;
  }

let diff_counts ~before ~after =
  {
    c_l1i_accesses = after.c_l1i_accesses - before.c_l1i_accesses;
    c_l1i_hits = after.c_l1i_hits - before.c_l1i_hits;
    c_l1i_writebacks = after.c_l1i_writebacks - before.c_l1i_writebacks;
    c_l1d_accesses = after.c_l1d_accesses - before.c_l1d_accesses;
    c_l1d_hits = after.c_l1d_hits - before.c_l1d_hits;
    c_l1d_writebacks = after.c_l1d_writebacks - before.c_l1d_writebacks;
    c_l2_accesses = after.c_l2_accesses - before.c_l2_accesses;
    c_l2_hits = after.c_l2_hits - before.c_l2_hits;
    c_l2_writebacks = after.c_l2_writebacks - before.c_l2_writebacks;
    c_tlb_accesses = after.c_tlb_accesses - before.c_tlb_accesses;
    c_tlb_misses = after.c_tlb_misses - before.c_tlb_misses;
    c_mem_reads = after.c_mem_reads - before.c_mem_reads;
    c_mem_writebacks = after.c_mem_writebacks - before.c_mem_writebacks;
  }

let splice t (d : counts) =
  Cache.splice t.l1i ~accesses:d.c_l1i_accesses ~hits:d.c_l1i_hits
    ~writebacks:d.c_l1i_writebacks;
  Cache.splice t.l1d ~accesses:d.c_l1d_accesses ~hits:d.c_l1d_hits
    ~writebacks:d.c_l1d_writebacks;
  Cache.splice t.l2 ~accesses:d.c_l2_accesses ~hits:d.c_l2_hits
    ~writebacks:d.c_l2_writebacks;
  Tlb.splice t.dtlb ~accesses:d.c_tlb_accesses ~misses:d.c_tlb_misses;
  t.mem_reads <- t.mem_reads + d.c_mem_reads;
  t.mem_writebacks <- t.mem_writebacks + d.c_mem_writebacks

let counts_codec =
  let open Ace_util.Codec in
  let+ c_l1i_accesses = field int (fun c -> c.c_l1i_accesses)
  and+ c_l1i_hits = field int (fun c -> c.c_l1i_hits)
  and+ c_l1i_writebacks = field int (fun c -> c.c_l1i_writebacks)
  and+ c_l1d_accesses = field int (fun c -> c.c_l1d_accesses)
  and+ c_l1d_hits = field int (fun c -> c.c_l1d_hits)
  and+ c_l1d_writebacks = field int (fun c -> c.c_l1d_writebacks)
  and+ c_l2_accesses = field int (fun c -> c.c_l2_accesses)
  and+ c_l2_hits = field int (fun c -> c.c_l2_hits)
  and+ c_l2_writebacks = field int (fun c -> c.c_l2_writebacks)
  and+ c_tlb_accesses = field int (fun c -> c.c_tlb_accesses)
  and+ c_tlb_misses = field int (fun c -> c.c_tlb_misses)
  and+ c_mem_reads = field int (fun c -> c.c_mem_reads)
  and+ c_mem_writebacks = field int (fun c -> c.c_mem_writebacks) in
  { c_l1i_accesses; c_l1i_hits; c_l1i_writebacks; c_l1d_accesses; c_l1d_hits;
    c_l1d_writebacks; c_l2_accesses; c_l2_hits; c_l2_writebacks; c_tlb_accesses;
    c_tlb_misses; c_mem_reads; c_mem_writebacks }

let sync io t =
  Cache.sync io t.l1i;
  Cache.sync io t.l1d;
  Cache.sync io t.l2;
  Tlb.sync io t.dtlb;
  t.mem_reads <- Ace_util.Codec.(sync io int t.mem_reads);
  t.mem_writebacks <- Ace_util.Codec.(sync io int t.mem_writebacks)

let pp_config fmt t =
  Format.fprintf fmt "@[<v>L1I: %a@ L1D: %a@ L2:  %a@]" Cache.pp_config
    (Cache.config t.l1i) Cache.pp_config (Cache.config t.l1d) Cache.pp_config
    (Cache.config t.l2)
