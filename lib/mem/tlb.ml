(* Residency is tracked in an open-addressed linear-probe table of page
   numbers rather than a Hashtbl: a miss installs the page without any
   bucket allocation, keeping the L1-miss path at zero minor words (the
   BENCH_core.json gate covers this via the batched data-access path).
   Empty slots hold -1, evicted slots -2 (tombstone); when tombstones
   crowd the table it is rebuilt in place from the FIFO ring, which holds
   exactly the resident set. *)

type t = {
  entries : int;
  page_shift : int;
  mask : int;  (* capacity - 1; capacity is a power of two >= 4*entries *)
  shift : int;  (* 63 - log2 capacity, for the multiplicative hash *)
  table : int array;
  fifo : int array;  (* ring buffer of resident pages *)
  mutable head : int;
  mutable filled : int;
  mutable tombs : int;
  mutable n_accesses : int;
  mutable n_misses : int;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let empty = -1
let tombstone = -2

let create ?(entries = 128) ?(page_bytes = 4096) () =
  let cap =
    let rec pow2 c = if c >= 4 * entries then c else pow2 (c * 2) in
    pow2 8
  in
  {
    entries;
    page_shift = log2 page_bytes;
    mask = cap - 1;
    shift = 63 - log2 cap;
    table = Array.make cap empty;
    fifo = Array.make entries 0;
    head = 0;
    filled = 0;
    tombs = 0;
    n_accesses = 0;
    n_misses = 0;
  }

(* Fibonacci hashing spreads consecutive page numbers across the table;
   with linear probing that keeps clusters short. *)
let[@inline] slot_of t page = (page * 0x2545F4914F6CDD1D) lsr t.shift land t.mask

let[@inline] mem t page =
  let i = ref (slot_of t page) in
  let r = ref tombstone in
  while !r = tombstone do
    let v = Array.unsafe_get t.table !i in
    if v = page then r := 1
    else if v = empty then r := 0
    else i := (!i + 1) land t.mask
  done;
  !r = 1

let insert t page =
  let i = ref (slot_of t page) in
  while Array.unsafe_get t.table !i >= 0 do
    i := (!i + 1) land t.mask
  done;
  if t.table.(!i) = tombstone then t.tombs <- t.tombs - 1;
  t.table.(!i) <- page

let remove t page =
  let i = ref (slot_of t page) in
  while Array.unsafe_get t.table !i <> page do
    i := (!i + 1) land t.mask
  done;
  t.table.(!i) <- tombstone;
  t.tombs <- t.tombs + 1

(* Rebuild from the ring once live + dead slots pass 3/4 of capacity, so
   probe chains stay bounded.  Amortized O(1) per miss and allocation-free:
   the ring's first [filled] logical slots are exactly the resident set. *)
let rebuild t =
  Array.fill t.table 0 (Array.length t.table) empty;
  t.tombs <- 0;
  for j = 0 to t.filled - 1 do
    insert t t.fifo.(j)
  done

let[@inline] access t addr =
  t.n_accesses <- t.n_accesses + 1;
  let page = addr lsr t.page_shift in
  if mem t page then true
  else begin
    t.n_misses <- t.n_misses + 1;
    if t.filled >= t.entries then remove t t.fifo.(t.head)
    else t.filled <- t.filled + 1;
    t.fifo.(t.head) <- page;
    t.head <- (t.head + 1) mod t.entries;
    insert t page;
    if (t.filled + t.tombs) * 4 > (t.mask + 1) * 3 then rebuild t;
    false
  end

let accesses t = t.n_accesses
let misses t = t.n_misses

let flush t =
  Array.fill t.table 0 (Array.length t.table) empty;
  t.head <- 0;
  t.filled <- 0;
  t.tombs <- 0

let splice t ~accesses ~misses =
  t.n_accesses <- t.n_accesses + accesses;
  t.n_misses <- t.n_misses + misses

(* The resident set is written sorted: probe-table slot order is an
   artifact, and equal simulator states must write equal bytes.  Reading
   rebuilds the probe table from it; the count bound keeps [insert] from
   probing a full table forever. *)
let sync io t =
  let open Ace_util.Codec in
  if reading io then begin
    let n = sync_length io 0 in
    if n > t.entries then fail "%d resident pages in a %d-entry TLB" n t.entries;
    Array.fill t.table 0 (Array.length t.table) empty;
    t.tombs <- 0;
    for _ = 1 to n do
      let page = sync io int 0 in
      if page < 0 then fail "negative resident page %d" page;
      insert t page
    done
  end
  else begin
    let resident = Array.make t.filled 0 and j = ref 0 in
    Array.iter
      (fun v ->
        if v >= 0 then begin
          resident.(!j) <- v;
          incr j
        end)
      t.table;
    Array.sort compare resident;
    sync_array io int resident
  end;
  sync_array io int t.fifo;
  t.head <- sync io int t.head;
  t.filled <- sync io int t.filled;
  if t.head < 0 || t.head >= t.entries || t.filled < 0 || t.filled > t.entries then
    fail "TLB ring position %d/%d outside %d entries" t.head t.filled t.entries;
  t.n_accesses <- sync io int t.n_accesses;
  t.n_misses <- sync io int t.n_misses
