module Cache = Ace_mem.Cache

let cfg ?(size = 1024) ?(assoc = 2) ?(line = 64) () =
  { Cache.size_bytes = size; assoc; line_bytes = line }

let mk ?size ?assoc ?line () = Cache.create (cfg ?size ?assoc ?line ())

let test_config_validation () =
  Alcotest.(check bool) "valid" true (Cache.config_valid (cfg ()));
  Alcotest.(check bool) "non-pow2 line" false
    (Cache.config_valid (cfg ~line:48 ()));
  Alcotest.(check bool) "size not multiple" false
    (Cache.config_valid (cfg ~size:1000 ()));
  Alcotest.(check bool) "non-pow2 sets" false
    (Cache.config_valid { Cache.size_bytes = 3 * 128; assoc = 1; line_bytes = 64 });
  Alcotest.check_raises "create rejects bad geometry"
    (Invalid_argument "Cache.create: invalid geometry") (fun () ->
      ignore (Cache.create (cfg ~line:48 ())))

let test_cold_miss_then_hit () =
  let c = mk () in
  Alcotest.(check bool) "cold miss" true (Cache.access c 0 ~write:false = Cache.Miss);
  Alcotest.(check bool) "then hit" true (Cache.access c 0 ~write:false = Cache.Hit);
  Alcotest.(check bool) "same line hits" true
    (Cache.access c 63 ~write:false = Cache.Hit);
  Alcotest.(check bool) "next line misses" true
    (Cache.access c 64 ~write:false = Cache.Miss)

let test_lru_within_set () =
  (* 1 KB, 2-way, 64 B lines -> 8 sets.  Addresses 0, 512, 1024 map to set 0. *)
  let c = mk () in
  ignore (Cache.access c 0 ~write:false);
  ignore (Cache.access c 512 ~write:false);
  (* touch 0 to make 512 the LRU *)
  ignore (Cache.access c 0 ~write:false);
  ignore (Cache.access c 1024 ~write:false);
  (* 512 should have been evicted, 0 should survive *)
  Alcotest.(check bool) "0 survives" true (Cache.access c 0 ~write:false = Cache.Hit);
  Alcotest.(check bool) "512 evicted" true
    (Cache.access c 512 ~write:false <> Cache.Hit)

let test_dirty_writeback () =
  let c = mk ~assoc:1 () in
  (* direct-mapped: 16 sets.  Write line 0, then evict with a conflicting
     line: should report a dirty victim at address 0. *)
  ignore (Cache.access c 0 ~write:true);
  (match Cache.access c 1024 ~write:false with
  | Cache.Miss_dirty_victim ->
      Alcotest.(check int) "victim address" 0 (Cache.last_victim_addr c)
  | Cache.Hit | Cache.Miss -> Alcotest.fail "expected dirty victim");
  Alcotest.(check int) "one writeback" 1 (Cache.Stats.writebacks c)

let test_clean_eviction_no_writeback () =
  let c = mk ~assoc:1 () in
  ignore (Cache.access c 0 ~write:false);
  Alcotest.(check bool) "clean victim" true
    (Cache.access c 1024 ~write:false = Cache.Miss);
  Alcotest.(check int) "no writebacks" 0 (Cache.Stats.writebacks c)

let test_write_hit_marks_dirty () =
  let c = mk ~assoc:1 () in
  ignore (Cache.access c 0 ~write:false);
  ignore (Cache.access c 0 ~write:true);
  Alcotest.(check int) "one dirty line" 1 (Cache.dirty_lines c);
  ignore (Cache.access c 1024 ~write:false);
  Alcotest.(check int) "writeback on eviction" 1 (Cache.Stats.writebacks c)

let test_capacity_fits () =
  (* Touch exactly [size] bytes; second pass must be all hits. *)
  let c = mk ~size:2048 () in
  for i = 0 to 31 do
    ignore (Cache.access c (i * 64) ~write:false)
  done;
  let hits_before = Cache.Stats.hits c in
  for i = 0 to 31 do
    ignore (Cache.access c (i * 64) ~write:false)
  done;
  Alcotest.(check int) "working set = capacity: all hits" 32
    (Cache.Stats.hits c - hits_before)

let test_capacity_exceeded () =
  (* Sequential sweep over 2x capacity keeps missing on every revisit. *)
  let c = mk ~size:1024 () in
  for _pass = 1 to 3 do
    for i = 0 to 31 do
      ignore (Cache.access c (i * 64) ~write:false)
    done
  done;
  Alcotest.(check int) "sequential over-capacity always misses" 96
    (Cache.Stats.misses c)

let test_resize_flushes_dirty () =
  let c = mk ~size:2048 () in
  for i = 0 to 15 do
    ignore (Cache.access c (i * 64) ~write:true)
  done;
  Alcotest.(check int) "16 dirty lines" 16 (Cache.dirty_lines c);
  let flushed = Cache.resize c ~size_bytes:1024 in
  Alcotest.(check int) "all flushed" 16 flushed;
  Alcotest.(check int) "flush counter" 16 (Cache.Stats.flush_writebacks c);
  Alcotest.(check int) "new size" 1024 (Cache.config c).Cache.size_bytes;
  Alcotest.(check bool) "cache empty after resize" true
    (Cache.access c 0 ~write:false <> Cache.Hit);
  Alcotest.(check int) "one resize recorded" 1 (Cache.Stats.resizes c)

let test_resize_noop () =
  let c = mk ~size:2048 () in
  ignore (Cache.access c 0 ~write:true);
  Alcotest.(check int) "same-size resize is free" 0 (Cache.resize c ~size_bytes:2048);
  Alcotest.(check bool) "contents preserved" true (Cache.access c 0 ~write:false = Cache.Hit)

let test_resize_up () =
  let c = mk ~size:1024 () in
  ignore (Cache.access c 0 ~write:true);
  let flushed = Cache.resize c ~size_bytes:4096 in
  Alcotest.(check int) "grow also flushes dirty" 1 flushed;
  Alcotest.(check int) "bigger now" 4096 (Cache.config c).Cache.size_bytes

let test_iter_dirty () =
  let c = mk ~size:1024 () in
  ignore (Cache.access c 0 ~write:true);
  ignore (Cache.access c 128 ~write:false);
  ignore (Cache.access c 256 ~write:true);
  let dirty = ref [] in
  Cache.iter_dirty c (fun a -> dirty := a :: !dirty);
  Alcotest.(check (list int)) "dirty addresses" [ 0; 256 ] (List.sort compare !dirty)

let test_invalidate_all () =
  let c = mk ~size:1024 () in
  ignore (Cache.access c 0 ~write:true);
  ignore (Cache.access c 64 ~write:false);
  Alcotest.(check int) "one dirty flushed" 1 (Cache.invalidate_all c);
  Alcotest.(check int) "empty" 0 (Cache.dirty_lines c);
  Alcotest.(check bool) "all lines gone" true (Cache.access c 64 ~write:false <> Cache.Hit)

let test_stats_consistency () =
  let c = mk () in
  let rng = Ace_util.Rng.create ~seed:2 in
  for _ = 1 to 5000 do
    ignore (Cache.access c (Ace_util.Rng.int rng 16384) ~write:(Ace_util.Rng.bool rng))
  done;
  Alcotest.(check int) "hits + misses = accesses" (Cache.Stats.accesses c)
    (Cache.Stats.hits c + Cache.Stats.misses c);
  Alcotest.(check bool) "miss rate in [0,1]" true
    (Cache.Stats.miss_rate c >= 0.0 && Cache.Stats.miss_rate c <= 1.0)

let test_paper_geometries () =
  (* Every configuration from Table 2 must be constructible. *)
  List.iter
    (fun size ->
      ignore (Cache.create { Cache.size_bytes = size * 1024; assoc = 2; line_bytes = 64 }))
    [ 64; 32; 16; 8 ];
  List.iter
    (fun size ->
      ignore (Cache.create { Cache.size_bytes = size * 1024; assoc = 4; line_bytes = 128 }))
    [ 1024; 512; 256; 128 ]

let prop_miss_rate_monotone_capacity =
  (* Larger caches never have more misses on the same random trace (holds
     for LRU by inclusion). *)
  QCheck.Test.make ~name:"LRU inclusion: bigger cache, fewer misses" ~count:30
    QCheck.(pair small_int (int_range 1 4))
    (fun (seed, assoc_pow) ->
      let assoc = 1 lsl (assoc_pow - 1) in
      let small = Cache.create { Cache.size_bytes = 2048; assoc; line_bytes = 64 } in
      let big = Cache.create { Cache.size_bytes = 8192; assoc = assoc * 4; line_bytes = 64 } in
      let rng = Ace_util.Rng.create ~seed in
      for _ = 1 to 3000 do
        let a = Ace_util.Rng.int rng 32768 in
        ignore (Cache.access small a ~write:false);
        ignore (Cache.access big a ~write:false)
      done;
      Cache.Stats.misses big <= Cache.Stats.misses small)

(* Executable reference model for the rewritten access path: each set is an
   MRU-ordered association list.  Deliberately naive — lists, options,
   no early-exit tricks — so a bug in the allocation-free scan in cache.ml
   cannot be mirrored here. *)
module Model = struct
  type t = {
    assoc : int;
    line_bytes : int;
    mutable sets : (int * bool) list array;  (* MRU first: (line, dirty) *)
  }

  let create ~size_bytes ~assoc ~line_bytes =
    { assoc; line_bytes; sets = Array.make (size_bytes / (assoc * line_bytes)) [] }

  let access t addr ~write =
    let line = addr / t.line_bytes in
    let set = line mod Array.length t.sets in
    let ways = t.sets.(set) in
    match List.assoc_opt line ways with
    | Some dirty ->
        t.sets.(set) <-
          (line, dirty || write) :: List.remove_assoc line ways;
        Cache.Hit
    | None ->
        let kept, evicted =
          if List.length ways >= t.assoc then
            let rec split acc = function
              | [ last ] -> (List.rev acc, Some last)
              | x :: rest -> split (x :: acc) rest
              | [] -> (List.rev acc, None)
            in
            split [] ways
          else (ways, None)
        in
        t.sets.(set) <- (line, write) :: kept;
        (match evicted with
        | Some (_, true) -> Cache.Miss_dirty_victim
        | Some (_, false) | None -> Cache.Miss)

  let dirty_lines t =
    Array.fold_left
      (fun acc ways ->
        acc + List.length (List.filter (fun (_, d) -> d) ways))
      0 t.sets

  let resize t ~size_bytes =
    let flushed = dirty_lines t in
    t.sets <- Array.make (size_bytes / (t.assoc * t.line_bytes)) [];
    flushed
end

let prop_access_matches_reference_model =
  (* Random access/resize sequences: every access result and every resize
     flush count must agree with the model.  [last_victim_addr] is the one
     observable the model can't express positionally, so it is checked on
     each dirty eviction instead. *)
  QCheck.Test.make ~name:"access/resize agree with MRU-list reference model"
    ~count:60
    QCheck.(pair small_int (int_range 0 2))
    (fun (seed, assoc_pow) ->
      let assoc = 1 lsl assoc_pow in
      let sizes = [| 1024; 2048; 4096 |] in
      let c = Cache.create { Cache.size_bytes = sizes.(0); assoc; line_bytes = 64 } in
      let m = Model.create ~size_bytes:sizes.(0) ~assoc ~line_bytes:64 in
      let rng = Ace_util.Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 2000 do
        if Ace_util.Rng.int rng 100 = 0 then begin
          let size = sizes.(Ace_util.Rng.int rng (Array.length sizes)) in
          let same = size = (Cache.config c).Cache.size_bytes in
          let fc = Cache.resize c ~size_bytes:size in
          (* A same-size resize is a no-op in the cache; mirror that. *)
          let fm = if same then 0 else Model.resize m ~size_bytes:size in
          if fc <> fm then ok := false
        end
        else begin
          let addr = Ace_util.Rng.int rng 16384 in
          let write = Ace_util.Rng.bool rng in
          let rc = Cache.access c addr ~write in
          let rm = Model.access m addr ~write in
          if rc <> rm then ok := false;
          if rc = Cache.Miss_dirty_victim then
            if Cache.last_victim_addr c mod 64 <> 0 then ok := false
        end
      done;
      !ok && Cache.dirty_lines c = Model.dirty_lines m)

(* [access_batch] against the scalar path: after every batch the whole
   synced state (tags, dirty bits, LRU stamps and clock, last victim,
   counters) must equal that of a cache fed the same addresses one
   [access] at a time, and the compacted misses must be the scalar misses
   in order.  Batches have every loads/stores shape up to 4 + 4, a last
   repetition that may be cut short, random addresses mixed with runs
   inside one line (whose LRU stamp the kernel writes once, on leaving
   it), and alternate with resizes.  The caches are 2-way, the only
   associativity the kernel serves; the 16-set 2 KB geometry makes a miss
   into the set the stream has just left common. *)
let prop_batch_matches_scalar =
  QCheck.Test.make ~name:"access_batch = scalar access sequence" ~count:200
    QCheck.(triple small_int (int_range 0 4) (int_range 0 4))
    (fun (seed, loads, stores) ->
      let loads = if loads + stores = 0 then 1 else loads in
      let period = loads + stores in
      let sizes = [| 2048; 4096; 8192 |] in
      let cfg = { Cache.size_bytes = sizes.(0); assoc = 2; line_bytes = 64 } in
      let batch = Cache.create cfg and scalar = Cache.create cfg in
      let state c = Ace_util.Codec.save (fun io -> Cache.sync io c) in
      let rng = Ace_util.Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 25 do
        if Ace_util.Rng.int rng 4 = 0 then begin
          let size = sizes.(Ace_util.Rng.int rng (Array.length sizes)) in
          if Cache.resize batch ~size_bytes:size <> Cache.resize scalar ~size_bytes:size
          then ok := false
        end;
        let n = (period * (1 + Ace_util.Rng.int rng 50)) - Ace_util.Rng.int rng period in
        let footprint = [| 1024; 16384; 262144 |].(Ace_util.Rng.int rng 3) in
        let prev = ref 0 in
        let addrs =
          Array.init n (fun _ ->
              let a =
                if Ace_util.Rng.bool rng then !prev + Ace_util.Rng.int rng 16
                else Ace_util.Rng.int rng footprint
              in
              prev := a;
              a)
        in
        let miss_addrs = Array.make n 0 and miss_victims = Array.make n 0 in
        let m =
          Cache.access_batch batch addrs ~n ~loads ~stores ~miss_addrs ~miss_victims
        in
        let misses = ref [] in
        Array.iteri
          (fun i addr ->
            match Cache.access scalar addr ~write:(i mod period >= loads) with
            | Cache.Hit -> ()
            | Cache.Miss -> misses := (addr, -1) :: !misses
            | Cache.Miss_dirty_victim ->
                misses := (addr, Cache.last_victim_addr scalar) :: !misses)
          addrs;
        let batch_misses = List.init m (fun j -> (miss_addrs.(j), miss_victims.(j))) in
        if batch_misses <> List.rev !misses || state batch <> state scalar then
          ok := false
      done;
      !ok)

(* The kernel serves 2-way caches only, a period of no accesses would
   never advance it, and [n] must fit the arrays it reads and writes
   without bounds checks; each is refused before any access.  An empty
   batch is a no-op whatever its shape. *)
let test_batch_contract () =
  let scratch = Array.make 8 0 in
  let run c ~n ~loads ~stores =
    Cache.access_batch c (Array.make 8 0) ~n ~loads ~stores ~miss_addrs:scratch
      ~miss_victims:scratch
  in
  let four_way = mk ~assoc:4 () and two_way = mk ~assoc:2 () in
  Alcotest.check_raises "4-way"
    (Invalid_argument "Cache.access_batch: not a 2-way cache") (fun () ->
      ignore (run four_way ~n:4 ~loads:3 ~stores:1));
  Alcotest.check_raises "zero period"
    (Invalid_argument "Cache.access_batch: empty or negative period") (fun () ->
      ignore (run two_way ~n:4 ~loads:0 ~stores:0));
  Alcotest.check_raises "n past the addresses"
    (Invalid_argument "Cache.access_batch: n outside the arrays") (fun () ->
      ignore (run two_way ~n:9 ~loads:1 ~stores:0));
  Alcotest.(check int) "empty batch" 0 (run two_way ~n:0 ~loads:0 ~stores:0);
  Alcotest.(check int) "no access counted" 0 (Cache.Stats.accesses two_way)

let test_access_allocates_nothing () =
  (* The rewritten hot path (no Exit, no refs, top-level int-arg scans) is
     held to zero minor words per access; the tolerance only absorbs the
     boxed floats of the Gc.minor_words calls themselves. *)
  let c = mk ~size:65536 () in
  let addrs = Array.init 4096 (fun _ -> 0) in
  let rng = Ace_util.Rng.create ~seed:11 in
  Array.iteri (fun i _ -> addrs.(i) <- Ace_util.Rng.int rng 1_000_000) addrs;
  let mask = Array.length addrs - 1 in
  for i = 0 to 4095 do
    ignore (Cache.access c (Array.unsafe_get addrs (i land mask)) ~write:(i land 7 = 0))
  done;
  let iters = 100_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to iters do
    ignore (Cache.access c (Array.unsafe_get addrs (i land mask)) ~write:(i land 7 = 0))
  done;
  let w1 = Gc.minor_words () in
  let delta = w1 -. w0 in
  if delta > 64.0 then
    Alcotest.failf "access allocated %.0f minor words over %d calls" delta iters

let prop_writebacks_bounded_by_writes =
  QCheck.Test.make ~name:"writebacks never exceed write count" ~count:50
    QCheck.small_int
    (fun seed ->
      let c = mk () in
      let rng = Ace_util.Rng.create ~seed in
      let writes = ref 0 in
      for _ = 1 to 2000 do
        let w = Ace_util.Rng.bool rng in
        if w then incr writes;
        ignore (Cache.access c (Ace_util.Rng.int rng 65536) ~write:w)
      done;
      Cache.Stats.writebacks c + Cache.dirty_lines c <= !writes)

let suite =
  [
    Tu.case "config validation" test_config_validation;
    Tu.case "cold miss then hit" test_cold_miss_then_hit;
    Tu.case "LRU within set" test_lru_within_set;
    Tu.case "dirty writeback" test_dirty_writeback;
    Tu.case "clean eviction" test_clean_eviction_no_writeback;
    Tu.case "write hit marks dirty" test_write_hit_marks_dirty;
    Tu.case "capacity fits" test_capacity_fits;
    Tu.case "capacity exceeded" test_capacity_exceeded;
    Tu.case "resize flushes dirty" test_resize_flushes_dirty;
    Tu.case "resize noop" test_resize_noop;
    Tu.case "resize up" test_resize_up;
    Tu.case "iter_dirty" test_iter_dirty;
    Tu.case "invalidate all" test_invalidate_all;
    Tu.case "stats consistency" test_stats_consistency;
    Tu.case "paper geometries" test_paper_geometries;
    Tu.case "access allocates nothing" test_access_allocates_nothing;
    Tu.qcheck prop_miss_rate_monotone_capacity;
    Tu.qcheck prop_access_matches_reference_model;
    Tu.qcheck prop_batch_matches_scalar;
    Tu.case "access_batch contract" test_batch_contract;
    Tu.qcheck prop_writebacks_bounded_by_writes;
  ]
