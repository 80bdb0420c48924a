(* TLB and hierarchy tests. *)
module Tlb = Ace_mem.Tlb
module Hierarchy = Ace_mem.Hierarchy
module Cache = Ace_mem.Cache
module Rng = Ace_util.Rng

let test_tlb_hit_miss () =
  let t = Tlb.create () in
  Alcotest.(check bool) "cold miss" false (Tlb.access t 0);
  Alcotest.(check bool) "then hit" true (Tlb.access t 0);
  Alcotest.(check bool) "same page hits" true (Tlb.access t 4095);
  Alcotest.(check bool) "next page misses" false (Tlb.access t 4096)

let test_tlb_capacity () =
  let t = Tlb.create ~entries:4 () in
  for p = 0 to 3 do
    ignore (Tlb.access t (p * 4096))
  done;
  (* All four resident. *)
  for p = 0 to 3 do
    Alcotest.(check bool) "resident" true (Tlb.access t (p * 4096))
  done;
  (* Fifth page evicts the oldest (page 0, FIFO). *)
  ignore (Tlb.access t (4 * 4096));
  Alcotest.(check bool) "page 0 evicted" false (Tlb.access t 0)

let test_tlb_counters () =
  let t = Tlb.create ~entries:2 () in
  ignore (Tlb.access t 0);
  ignore (Tlb.access t 0);
  ignore (Tlb.access t 8192);
  Alcotest.(check int) "accesses" 3 (Tlb.accesses t);
  Alcotest.(check int) "misses" 2 (Tlb.misses t)

let test_tlb_flush () =
  let t = Tlb.create () in
  ignore (Tlb.access t 0);
  Tlb.flush t;
  Alcotest.(check bool) "flushed" false (Tlb.access t 0)

let test_hierarchy_latencies () =
  let h = Hierarchy.create () in
  let lat = Hierarchy.latencies h in
  (* Cold access: L1 miss + L2 miss + memory + TLB miss. *)
  let cold = Hierarchy.data_access h ~addr:0 ~write:false in
  Alcotest.(check int) "cold latency"
    (lat.Hierarchy.l1_hit + lat.Hierarchy.l2_hit + lat.Hierarchy.memory
   + lat.Hierarchy.tlb_miss)
    cold;
  (* Warm: L1 hit. *)
  Alcotest.(check int) "warm latency" lat.Hierarchy.l1_hit
    (Hierarchy.data_access h ~addr:0 ~write:false)

let test_hierarchy_l2_hit_latency () =
  let h = Hierarchy.create () in
  let lat = Hierarchy.latencies h in
  ignore (Hierarchy.data_access h ~addr:0 ~write:false);
  (* Evict from L1 (64 KB, 2-way, 64 B lines -> 512 sets): two conflicting
     lines at 32 KB strides. *)
  ignore (Hierarchy.data_access h ~addr:(1 lsl 15) ~write:false);
  ignore (Hierarchy.data_access h ~addr:(2 lsl 15) ~write:false);
  (* Address 0 now misses L1 but hits L2 (1 MB holds all three). *)
  let l2_hit = Hierarchy.data_access h ~addr:0 ~write:false in
  Alcotest.(check int) "L1 miss, L2 hit"
    (lat.Hierarchy.l1_hit + lat.Hierarchy.l2_hit)
    l2_hit

let test_hierarchy_ifetch () =
  let h = Hierarchy.create () in
  let lat = Hierarchy.latencies h in
  let cold = Hierarchy.ifetch h ~pc:0x4000 in
  Alcotest.(check int) "cold ifetch misses to memory"
    (lat.Hierarchy.l1_hit + lat.Hierarchy.l2_hit + lat.Hierarchy.memory)
    cold;
  Alcotest.(check int) "warm ifetch" lat.Hierarchy.l1_hit
    (Hierarchy.ifetch h ~pc:0x4000)

let test_resize_l1d_writes_into_l2 () =
  let h = Hierarchy.create () in
  (* Dirty a line in L1D only (L2 also gets the fill, but the dirty data is
     in L1). *)
  ignore (Hierarchy.data_access h ~addr:0 ~write:true);
  let l2_accesses_before = Cache.Stats.accesses (Hierarchy.l2 h) in
  let flushed = Hierarchy.resize_l1d h ~size_bytes:(32 * 1024) in
  Alcotest.(check int) "one dirty line flushed" 1 flushed;
  Alcotest.(check bool) "flush wrote into L2" true
    (Cache.Stats.accesses (Hierarchy.l2 h) > l2_accesses_before);
  Alcotest.(check int) "L1D resized" (32 * 1024)
    (Cache.config (Hierarchy.l1d h)).Cache.size_bytes

let test_resize_l2_writes_to_memory () =
  let h = Hierarchy.create () in
  ignore (Hierarchy.data_access h ~addr:0 ~write:true);
  (* Push the dirty line down into L2 by flushing L1D first. *)
  ignore (Hierarchy.resize_l1d h ~size_bytes:(32 * 1024));
  let wb_before = Hierarchy.memory_writebacks h in
  let flushed = Hierarchy.resize_l2 h ~size_bytes:(512 * 1024) in
  Alcotest.(check bool) "L2 flush produced memory writebacks" true (flushed >= 1);
  Alcotest.(check bool) "memory writeback counter advanced" true
    (Hierarchy.memory_writebacks h >= wb_before + flushed)

let test_resize_l1d_noop () =
  let h = Hierarchy.create () in
  ignore (Hierarchy.data_access h ~addr:0 ~write:true);
  Alcotest.(check int) "same size: no flush" 0
    (Hierarchy.resize_l1d h ~size_bytes:(64 * 1024));
  Alcotest.(check bool) "contents preserved" true
    (Hierarchy.data_access h ~addr:0 ~write:false
    = (Hierarchy.latencies h).Hierarchy.l1_hit)

let test_resize_l2_noop () =
  let h = Hierarchy.create () in
  ignore (Hierarchy.data_access h ~addr:0 ~write:true);
  ignore (Hierarchy.resize_l1d h ~size_bytes:(32 * 1024));
  let wb_before = Hierarchy.memory_writebacks h in
  Alcotest.(check int) "same size: no flush" 0
    (Hierarchy.resize_l2 h ~size_bytes:(1024 * 1024));
  Alcotest.(check int) "no memory writeback traffic" wb_before
    (Hierarchy.memory_writebacks h);
  (* The dirty line pushed into L2 above must still be resident. *)
  let lat = Hierarchy.latencies h in
  Alcotest.(check int) "contents preserved"
    (lat.Hierarchy.l1_hit + lat.Hierarchy.l2_hit)
    (Hierarchy.data_access h ~addr:0 ~write:false)

(* [data_access_batch] must leave every structure and counter exactly as
   the equivalent scalar sequence would, and return the summed latency in
   excess of one L1 hit per access. *)
let batch_shapes = [ (3, 1, 64); (1, 0, 100); (0, 2, 33); (2, 3, 400) ]

(* A hierarchy's complete checkpointed state, as the bytes it writes. *)
let state h = Ace_util.Codec.save (fun io -> Hierarchy.sync io h)

let test_data_access_batch_equiv () =
  let rng = Rng.create ~seed:11 in
  List.iter
    (fun (loads, stores, reps) ->
      let ha = Hierarchy.create () and hb = Hierarchy.create () in
      let lat = Hierarchy.latencies ha in
      let period = loads + stores in
      let n = period * reps in
      let addrs = Array.init n (fun _ -> Rng.int rng (1 lsl 20)) in
      let scalar = ref 0 in
      Array.iteri
        (fun i addr ->
          let write = i mod period >= loads in
          scalar := !scalar + Hierarchy.data_access ha ~addr ~write)
        addrs;
      let batch = Hierarchy.data_access_batch hb ~addrs ~n ~loads ~stores in
      Alcotest.(check int) "penalty = scalar latency - n x l1_hit"
        (!scalar - (n * lat.Hierarchy.l1_hit))
        batch;
      Alcotest.(check bool) "hierarchy state identical" true
        (state ha = state hb);
      Alcotest.(check bool) "counters identical" true
        (Hierarchy.counts ha = Hierarchy.counts hb))
    batch_shapes

(* Addresses are uniform over 4 MB, where a line almost never repeats, or
   local: runs inside one line mixed with draws from a footprint twice the
   L1D's, so runs end on deferred LRU stamps and dirty victims drain into
   the L2. *)
let prop_data_access_batch_equiv =
  QCheck.Test.make ~name:"data_access_batch = scalar sequence" ~count:50
    QCheck.(
      pair
        (quad (int_range 0 4) (int_range 0 4) (int_range 1 200)
           (int_range 1 10_000))
        bool)
    (fun ((loads, stores, reps, seed), local) ->
      QCheck.assume (loads + stores > 0);
      let rng = Rng.create ~seed in
      let ha = Hierarchy.create () and hb = Hierarchy.create () in
      let lat = Hierarchy.latencies ha in
      let period = loads + stores in
      let n = period * reps in
      let prev = ref 0 in
      let addrs =
        Array.init n (fun _ ->
            let a =
              if not local then Rng.int rng (1 lsl 22)
              else if Rng.bool rng then !prev + Rng.int rng 16
              else Rng.int rng (1 lsl 17)
            in
            prev := a;
            a)
      in
      let scalar = ref 0 in
      Array.iteri
        (fun i addr ->
          let write = i mod period >= loads in
          scalar := !scalar + Hierarchy.data_access ha ~addr ~write)
        addrs;
      let batch = Hierarchy.data_access_batch hb ~addrs ~n ~loads ~stores in
      batch = !scalar - (n * lat.Hierarchy.l1_hit)
      && state ha = state hb)

let test_data_access_batch_no_alloc () =
  let h = Hierarchy.create () in
  let n = 4096 in
  let addrs = Array.init n (fun i -> i * 64 mod (1 lsl 22)) in
  (* First call sizes the internal scratch; steady state allocates nothing
     beyond the boxing of the [Gc.minor_words] readings themselves. *)
  ignore (Hierarchy.data_access_batch h ~addrs ~n ~loads:3 ~stores:1);
  let w0 = Gc.minor_words () in
  for _ = 1 to 10 do
    ignore (Hierarchy.data_access_batch h ~addrs ~n ~loads:3 ~stores:1)
  done;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "steady-state minor words %.0f < 256" dw)
    true (dw < 256.0)

(* Splicing the counter delta captured over a simulated segment must land
   the counters exactly where full simulation of that segment would. *)
let prop_splice_reproduces_counters =
  QCheck.Test.make
    ~name:"splice of a captured delta reproduces full-sim counters" ~count:30
    QCheck.(triple (int_range 1 500) (int_range 1 500) (int_range 1 10_000))
    (fun (n1, n2, seed) ->
      let rng = Rng.create ~seed in
      let seq n = Array.init n (fun _ -> Rng.int rng (1 lsl 18)) in
      let s1 = seq n1 and s2 = seq n2 in
      let replay h a =
        Array.iteri
          (fun i addr ->
            ignore (Hierarchy.data_access h ~addr ~write:(i mod 3 = 0)))
          a
      in
      let ha = Hierarchy.create () in
      replay ha s1;
      let c1 = Hierarchy.counts ha in
      replay ha s2;
      let c2 = Hierarchy.counts ha in
      let hb = Hierarchy.create () in
      replay hb s1;
      Hierarchy.splice hb (Hierarchy.diff_counts ~before:c1 ~after:c2);
      Hierarchy.counts hb = c2)

let test_memory_reads_counted () =
  let h = Hierarchy.create () in
  ignore (Hierarchy.data_access h ~addr:0 ~write:false);
  ignore (Hierarchy.data_access h ~addr:1_000_000 ~write:false);
  Alcotest.(check int) "two lines from memory" 2 (Hierarchy.memory_reads h)

let test_default_geometry () =
  let h = Hierarchy.create () in
  Alcotest.(check int) "L1D 64KB" (64 * 1024)
    (Cache.config (Hierarchy.l1d h)).Cache.size_bytes;
  Alcotest.(check int) "L2 1MB" (1024 * 1024)
    (Cache.config (Hierarchy.l2 h)).Cache.size_bytes;
  Alcotest.(check int) "L1I 64KB" (64 * 1024)
    (Cache.config (Hierarchy.l1i h)).Cache.size_bytes;
  Alcotest.(check int) "L2 line 128B" 128
    (Cache.config (Hierarchy.l2 h)).Cache.line_bytes

let suite =
  [
    Tu.case "tlb hit/miss" test_tlb_hit_miss;
    Tu.case "tlb capacity (FIFO)" test_tlb_capacity;
    Tu.case "tlb counters" test_tlb_counters;
    Tu.case "tlb flush" test_tlb_flush;
    Tu.case "hierarchy latencies" test_hierarchy_latencies;
    Tu.case "hierarchy L2 hit latency" test_hierarchy_l2_hit_latency;
    Tu.case "hierarchy ifetch" test_hierarchy_ifetch;
    Tu.case "resize L1D writes into L2" test_resize_l1d_writes_into_l2;
    Tu.case "resize L2 writes to memory" test_resize_l2_writes_to_memory;
    Tu.case "resize L1D noop" test_resize_l1d_noop;
    Tu.case "resize L2 noop" test_resize_l2_noop;
    Tu.case "data_access_batch = scalar" test_data_access_batch_equiv;
    Tu.qcheck prop_data_access_batch_equiv;
    Tu.case "data_access_batch allocation-free" test_data_access_batch_no_alloc;
    Tu.qcheck prop_splice_reproduces_counters;
    Tu.case "memory reads counted" test_memory_reads_counted;
    Tu.case "default geometry (Table 2)" test_default_geometry;
  ]
