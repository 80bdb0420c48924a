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

(* Hit scan: the slot holding [line], or -1.  The [int] annotations here and
   on [find_victim] are what keep the scans cheap: left to inference both
   functions are polymorphic, so every inlined copy would compile [=] and
   [<] to calls into the C runtime ([caml_equal], [caml_lessthan]) and
   check each array read for a float array. *)
let[@inline] rec find_slot (tags : int array) (line : int) base limit =
  if base >= limit then -1
  else if Array.unsafe_get tags base = line then base
  else find_slot tags line (base + 1) limit

(* Victim scan: the first invalid way if any, else the least recently used
   (first minimum).  Exception-free and allocation-free (no refs, no handler
   frame). *)
let[@inline] rec find_victim (tags : int array) (stamp : int array) slot limit
    best (best_stamp : int) =
  if slot >= limit then best
  else if Array.unsafe_get tags slot = -1 then slot
  else
    let s = Array.unsafe_get stamp slot in
    if s < best_stamp then find_victim tags stamp (slot + 1) limit slot s
    else find_victim tags stamp (slot + 1) limit best best_stamp

let access t addr ~write =
  t.n_accesses <- t.n_accesses + 1;
  t.clock <- t.clock + 1;
  let line = addr lsr t.line_shift in
  let set = line land (t.sets - 1) in
  let base = set * t.cfg.assoc in
  let limit = base + t.cfg.assoc in
  let slot = find_slot t.tags line base limit in
  if slot >= 0 then begin
    t.n_hits <- t.n_hits + 1;
    t.stamp.(slot) <- t.clock;
    if write then t.dirty.(slot) <- true;
    Hit
  end
  else begin
    let slot = find_victim t.tags t.stamp base limit base max_int in
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

(* Batched access: perform [n] lookups for [addrs.(0 .. n-1)], producing
   exactly the same array state and counters as [n] calls to [access].  The
   write flag is positional: the address stream is [loads] reads followed by
   [stores] writes, repeated (one basic-block repetition per period), so the
   caller passes the shape instead of a per-access flag.  Misses are
   compacted into the caller's scratch arrays — [miss_addrs.(j)] is the
   j-th missing address and [miss_victims.(j)] its dirty victim's address
   (or -1 if the victim was clean) — so the next level's fallthrough runs
   as a separate dense loop over misses only.  Field loads, the set mask
   and the associativity are hoisted out of the loop; counters are folded
   in once at the end (no observer can run between the individual accesses
   of a batch, so the intermediate counter values are unobservable).  The
   local refs are non-escaping and compile to stack slots: the call
   allocates nothing. *)
let access_batch t addrs ~n ~loads ~stores ~miss_addrs ~miss_victims =
  let tags = t.tags and dirty = t.dirty and stamp = t.stamp in
  let line_shift = t.line_shift
  and set_mask = t.sets - 1
  and assoc = t.cfg.assoc in
  let period = loads + stores in
  let clock = ref t.clock in
  let hits = ref 0 and m = ref 0 and wb = ref 0 and k = ref 0 in
  for i = 0 to n - 1 do
    let addr = Array.unsafe_get addrs i in
    let write = !k >= loads in
    k := !k + 1;
    if !k = period then k := 0;
    clock := !clock + 1;
    let line = addr lsr line_shift in
    let set = line land set_mask in
    let base = set * assoc in
    let limit = base + assoc in
    let slot = find_slot tags line base limit in
    if slot >= 0 then begin
      hits := !hits + 1;
      Array.unsafe_set stamp slot !clock;
      if write then Array.unsafe_set dirty slot true
    end
    else begin
      let slot = find_victim tags stamp base limit base max_int in
      let vtag = Array.unsafe_get tags slot in
      let was_dirty = vtag <> -1 && Array.unsafe_get dirty slot in
      if was_dirty then begin
        let victim = vtag lsl line_shift in
        t.last_victim <- victim;
        wb := !wb + 1;
        Array.unsafe_set miss_victims !m victim
      end
      else Array.unsafe_set miss_victims !m (-1);
      Array.unsafe_set miss_addrs !m addr;
      m := !m + 1;
      Array.unsafe_set tags slot line;
      Array.unsafe_set dirty slot write;
      Array.unsafe_set stamp slot !clock
    end
  done;
  t.clock <- !clock;
  t.n_accesses <- t.n_accesses + n;
  t.n_hits <- t.n_hits + !hits;
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
