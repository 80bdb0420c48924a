type config = { size_bytes : int; assoc : int; line_bytes : int }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let config_valid c =
  is_pow2 c.line_bytes && c.assoc > 0
  && c.size_bytes >= c.assoc * c.line_bytes
  && c.size_bytes mod (c.assoc * c.line_bytes) = 0
  && is_pow2 (c.size_bytes / (c.assoc * c.line_bytes))

let pp_config fmt c =
  let size =
    if c.size_bytes >= 1 lsl 20 && c.size_bytes mod (1 lsl 20) = 0 then
      Printf.sprintf "%dMB" (c.size_bytes lsr 20)
    else Printf.sprintf "%dKB" (c.size_bytes lsr 10)
  in
  Format.fprintf fmt "%s %d-way %dB" size c.assoc c.line_bytes

type t = {
  mutable cfg : config;
  mutable sets : int;
  mutable line_shift : int;
  mutable tags : int array;  (* sets * assoc; -1 = invalid; value = line id *)
  mutable dirty : bool array;
  mutable stamp : int array;  (* LRU timestamps *)
  mutable clock : int;
  mutable last_victim : int;
  (* counters *)
  mutable n_accesses : int;
  mutable n_hits : int;
  mutable n_writebacks : int;
  mutable n_flush_writebacks : int;
  mutable n_resizes : int;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let allocate t =
  let c = t.cfg in
  t.sets <- c.size_bytes / (c.assoc * c.line_bytes);
  t.line_shift <- log2 c.line_bytes;
  let slots = t.sets * c.assoc in
  t.tags <- Array.make slots (-1);
  t.dirty <- Array.make slots false;
  t.stamp <- Array.make slots 0

let create cfg =
  if not (config_valid cfg) then invalid_arg "Cache.create: invalid geometry";
  let t =
    {
      cfg;
      sets = 0;
      line_shift = 0;
      tags = [||];
      dirty = [||];
      stamp = [||];
      clock = 0;
      last_victim = 0;
      n_accesses = 0;
      n_hits = 0;
      n_writebacks = 0;
      n_flush_writebacks = 0;
      n_resizes = 0;
    }
  in
  allocate t;
  t

let config t = t.cfg

type result = Hit | Miss | Miss_dirty_victim

(* Hit scan: the 1-based way of the set at [base] that holds [line], or 0.
   Every way is visited and none ends the scan early: each adds its index
   times a 0/1 flag, and a comparison used as a value compiles to a compare
   and a flag set, not a jump, so which way hits (a coin flip on a 2-way
   cache) costs the host no misprediction.  Unrolled for the hierarchy's 2-
   and 4-way caches; not recursive, so it is inlined into both access
   paths.  The sum is exact because a line sits in at most one way of its
   set: fills happen only on a miss, and [sync] refuses a restored set that
   breaks this.  The [int] annotations keep the comparison and the array
   reads monomorphic. *)
let[@inline] holds (tags : int array) (line : int) slot =
  Bool.to_int (Array.unsafe_get tags slot = line)

let[@inline] find_way2 tags line base =
  holds tags line base + (2 * holds tags line (base + 1))

let[@inline] find_way tags line base assoc =
  match assoc with
  | 2 -> find_way2 tags line base
  | 4 ->
      holds tags line base
      + (2 * holds tags line (base + 1))
      + (3 * holds tags line (base + 2))
      + (4 * holds tags line (base + 3))
  | _ ->
      let way = ref 0 in
      for w = 1 to assoc do
        way := !way + (w * holds tags line (base + w - 1))
      done;
      !way

(* Victim scan: the first invalid way if any, else the least recently used
   (first minimum).  No recursion, so it is inlined and leaves the batch
   loop free of calls; on a 2-way cache the choice is computed from flags,
   since which way is older is as unpredictable as which way hits. *)
let[@inline] find_victim2 (tags : int array) (stamp : int array) base =
  let invalid0 = Bool.to_int (Array.unsafe_get tags base = -1)
  and invalid1 = Bool.to_int (Array.unsafe_get tags (base + 1) = -1)
  and older1 =
    Bool.to_int ((Array.unsafe_get stamp (base + 1) : int) < Array.unsafe_get stamp base)
  in
  base + ((1 - invalid0) land (invalid1 lor older1))

let[@inline] find_victim (tags : int array) (stamp : int array) base assoc =
  if assoc = 2 then find_victim2 tags stamp base
  else begin
    let best = ref base and best_stamp = ref max_int and w = ref 0 in
    while !w < assoc do
      let slot = base + !w in
      if Array.unsafe_get tags slot = -1 then begin
        best := slot;
        w := assoc
      end
      else begin
        let s = Array.unsafe_get stamp slot in
        if s < !best_stamp then begin
          best := slot;
          best_stamp := s
        end;
        w := !w + 1
      end
    done;
    !best
  end

let access t addr ~write =
  t.n_accesses <- t.n_accesses + 1;
  t.clock <- t.clock + 1;
  let line = addr lsr t.line_shift in
  let assoc = t.cfg.assoc in
  let base = (line land (t.sets - 1)) * assoc in
  let way = find_way t.tags line base assoc in
  if way > 0 then begin
    let slot = base + way - 1 in
    t.n_hits <- t.n_hits + 1;
    t.stamp.(slot) <- t.clock;
    if write then t.dirty.(slot) <- true;
    Hit
  end
  else begin
    let slot = find_victim t.tags t.stamp base assoc in
    let was_dirty = t.tags.(slot) <> -1 && t.dirty.(slot) in
    if was_dirty then begin
      t.n_writebacks <- t.n_writebacks + 1;
      t.last_victim <- t.tags.(slot) lsl t.line_shift
    end;
    t.tags.(slot) <- line;
    t.dirty.(slot) <- write;
    t.stamp.(slot) <- t.clock;
    if was_dirty then Miss_dirty_victim else Miss
  end

(* A miss of [access_batch]: the victim of the 2-way set at [base] becomes
   the [j]-th compacted miss (its address, and its dirty victim's address
   or -1) and takes [line], clean; the result is its slot.  Inlined, so the
   kernel's loops make no call. *)
let[@inline] fill2 tags (dirty : bool array) stamp ~line_shift ~miss_addrs
    ~miss_victims j base line (addr : int) =
  let victim = find_victim2 tags stamp base in
  let vtag = Array.unsafe_get tags victim in
  Array.unsafe_set miss_victims j
    (if vtag <> -1 && Array.unsafe_get dirty victim then vtag lsl line_shift else -1);
  Array.unsafe_set miss_addrs j addr;
  Array.unsafe_set tags victim line;
  Array.unsafe_set dirty victim false;
  victim

(* The L1D's batch kernel: [n] lookups for [addrs.(0 .. n-1)], leaving
   exactly the array state and counters of [n] calls to [access] on a
   2-way cache.  The address stream is [loads] reads then [stores] writes,
   repeated (one basic-block repetition per period; the last may be cut
   short), and each repetition runs as a loads sub-loop and a stores
   sub-loop, so the write flag belongs to the loop and no access counts
   its position in the period.  Misses are compacted into the caller's
   scratch arrays for the next level's pass.

   An access to the line of the access before it is a hit in the slot
   that access left it in (nothing runs in between), so only a change of
   line looks the set up.  The slot's LRU stamp is written once per run
   of accesses to its line, on leaving it: the stamp of the run's last
   access, which is what per-access stamps would leave there.  That is
   exact because nothing reads the running line's stamp before the stream
   leaves it: the flush comes before the next lookup, so the victim scan
   (the only reader of stamps) sees every earlier stamp, including a miss
   into the set just left; the last run is flushed after the loop.

   The loop nest makes no call: a call would make OCaml keep every value
   live across it on the stack, and the loop carries more values than
   there are registers.  So the way scans and the fill are inlined, and
   the sub-loop bounds are clamped with [if]s, not [min].  The counters
   are folded in after the loop, from the compacted misses, since no
   observer can run between the accesses of a batch.  The local refs do
   not escape (a closure over them would move them to the heap), so the
   call allocates nothing. *)
let access_batch t addrs ~n ~loads ~stores ~miss_addrs ~miss_victims =
  if t.cfg.assoc <> 2 then invalid_arg "Cache.access_batch: not a 2-way cache";
  if loads < 0 || stores < 0 || (loads + stores = 0 && n > 0) then
    invalid_arg "Cache.access_batch: empty or negative period";
  if
    n < 0
    || n > Array.length addrs
    || n > Array.length miss_addrs
    || n > Array.length miss_victims
  then invalid_arg "Cache.access_batch: n outside the arrays";
  let tags = t.tags and dirty = t.dirty and stamp = t.stamp in
  let line_shift = t.line_shift and set_mask = t.sets - 1 in
  (* The LRU clock ticks once per access: access [i] stamps [clock0 + i + 1]. *)
  let clock0 = t.clock in
  let i = ref 0 and m = ref 0 in
  (* Addresses are non-negative, so no line is -1: the first access looks
     its set up, with no run before it to flush. *)
  let prev_line = ref (-1) and slot = ref 0 in
  while !i < n do
    let e = !i + loads in
    let loads_end = if e < n then e else n in
    while !i < loads_end do
      let line = Array.unsafe_get addrs !i lsr line_shift in
      if line <> !prev_line then begin
        if !prev_line >= 0 then Array.unsafe_set stamp !slot (clock0 + !i);
        prev_line := line;
        let base = (line land set_mask) * 2 in
        let way = find_way2 tags line base in
        if way > 0 then slot := base + way - 1
        else begin
          slot :=
            fill2 tags dirty stamp ~line_shift ~miss_addrs ~miss_victims !m base line
              (Array.unsafe_get addrs !i);
          m := !m + 1
        end
      end;
      i := !i + 1
    done;
    let e = !i + stores in
    let stores_end = if e < n then e else n in
    while !i < stores_end do
      let line = Array.unsafe_get addrs !i lsr line_shift in
      if line <> !prev_line then begin
        if !prev_line >= 0 then Array.unsafe_set stamp !slot (clock0 + !i);
        prev_line := line;
        let base = (line land set_mask) * 2 in
        let way = find_way2 tags line base in
        if way > 0 then slot := base + way - 1
        else begin
          slot :=
            fill2 tags dirty stamp ~line_shift ~miss_addrs ~miss_victims !m base line
              (Array.unsafe_get addrs !i);
          m := !m + 1
        end
      end;
      Array.unsafe_set dirty !slot true;
      i := !i + 1
    done
  done;
  if n > 0 then Array.unsafe_set stamp !slot (clock0 + n);
  (* Dirty evictions, and the last one's address, read back from the
     compacted misses. *)
  let wb = ref 0 in
  for j = 0 to !m - 1 do
    let victim = Array.unsafe_get miss_victims j in
    if victim >= 0 then begin
      wb := !wb + 1;
      t.last_victim <- victim
    end
  done;
  t.clock <- clock0 + n;
  t.n_accesses <- t.n_accesses + n;
  t.n_hits <- t.n_hits + n - !m;
  t.n_writebacks <- t.n_writebacks + !wb;
  !m

let last_victim_addr t = t.last_victim

let dirty_lines t =
  let n = ref 0 in
  for i = 0 to Array.length t.tags - 1 do
    if t.tags.(i) <> -1 && t.dirty.(i) then incr n
  done;
  !n

let iter_dirty t f =
  for i = 0 to Array.length t.tags - 1 do
    if t.tags.(i) <> -1 && t.dirty.(i) then f (t.tags.(i) lsl t.line_shift)
  done

let invalidate_all t =
  let flushed = dirty_lines t in
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  t.n_flush_writebacks <- t.n_flush_writebacks + flushed;
  flushed

let resize t ~size_bytes =
  if size_bytes = t.cfg.size_bytes then 0
  else begin
    let cfg = { t.cfg with size_bytes } in
    if not (config_valid cfg) then invalid_arg "Cache.resize: invalid geometry";
    let flushed = dirty_lines t in
    t.n_flush_writebacks <- t.n_flush_writebacks + flushed;
    t.n_resizes <- t.n_resizes + 1;
    t.cfg <- cfg;
    allocate t;
    flushed
  end

(* Fold memoized per-phase statistics into the counters without touching
   the array contents.  Fast-forward simulation replays a known phase's
   counter deltas this way; the resident lines simply stay as they were at
   the phase boundary. *)
let splice t ~accesses ~hits ~writebacks =
  t.n_accesses <- t.n_accesses + accesses;
  t.n_hits <- t.n_hits + hits;
  t.n_writebacks <- t.n_writebacks + writebacks

(* The way scans assume that a line sits only in its own set and in at most
   one of its ways; a restored array that breaks either would make
   [find_way] return a way index past the set.  Only hostile bytes can. *)
let check_tags t =
  let assoc = t.cfg.assoc and tags = t.tags in
  for set = 0 to t.sets - 1 do
    let base = set * assoc in
    for w = 0 to assoc - 1 do
      let line = tags.(base + w) in
      if line <> -1 then begin
        if line < 0 || line land (t.sets - 1) <> set then
          Ace_util.Codec.fail "cache line %d restored into set %d" line set;
        for v = 0 to w - 1 do
          if tags.(base + v) = line then
            Ace_util.Codec.fail "cache line %d restored twice into set %d" line set
        done
      end
    done
  done

let sync io t =
  let open Ace_util.Codec in
  let size_bytes = sync io int t.cfg.size_bytes in
  if size_bytes <> t.cfg.size_bytes then begin
    let cfg = { t.cfg with size_bytes } in
    (* Every slot costs at least one byte of input: a size beyond that is
       corruption, not a cache to allocate. *)
    if not (config_valid cfg) || size_bytes / cfg.line_bytes > room io then
      fail "cache size %d does not fit a %d-way cache of %dB lines" size_bytes
        cfg.assoc cfg.line_bytes;
    t.cfg <- cfg;
    allocate t
  end;
  sync_array io int t.tags;
  if reading io then check_tags t;
  sync_array io bool t.dirty;
  sync_array io int t.stamp;
  t.clock <- sync io int t.clock;
  t.last_victim <- sync io int t.last_victim;
  t.n_accesses <- sync io int t.n_accesses;
  t.n_hits <- sync io int t.n_hits;
  t.n_writebacks <- sync io int t.n_writebacks;
  t.n_flush_writebacks <- sync io int t.n_flush_writebacks;
  t.n_resizes <- sync io int t.n_resizes

module Stats = struct
  let accesses t = t.n_accesses
  let hits t = t.n_hits
  let misses t = t.n_accesses - t.n_hits
  let writebacks t = t.n_writebacks
  let flush_writebacks t = t.n_flush_writebacks
  let resizes t = t.n_resizes

  let miss_rate t =
    if t.n_accesses = 0 then 0.0
    else float_of_int (misses t) /. float_of_int t.n_accesses
end
