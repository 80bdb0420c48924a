(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), slicing-by-8.

   [tables] holds eight 256-entry tables back to back.  Table 0 is the
   classic byte-at-a-time table: the CRC of one byte.  Table k maps a byte
   to its CRC contribution when k more zero bytes follow it, so
   [t_k(n) = (t_(k-1)(n) lsr 8) lxor t_0(t_(k-1)(n) land 0xFF)].  [update]
   folds the running CRC into the first four bytes of each 64-bit
   little-endian word, then looks up all eight bytes at once, each in the
   table for its distance from the word's end; a byte loop takes the tail.

   The tables are built eagerly at module initialization: a toplevel [lazy]
   would be shared mutable state, and concurrent [Lazy.force] from two
   domains (parallel soak runs both write CRC-checked snapshots) raises
   [Lazy.Undefined]. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

(* Every index below is a table number times 256 plus a value below 256,
   because the CRC is kept in [0, 2^32); hence the unchecked reads. *)
let look k n = Array.unsafe_get tables ((k lsl 8) lor n)

let update crc s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Crc32.update";
  let c = ref (crc lxor 0xFFFFFFFF land 0xFFFFFFFF) in
  let i = ref pos in
  let words_end = pos + (len land lnot 7) in
  while !i < words_end do
    let w = String.get_int64_le s !i in
    let lo = !c lxor (Int64.to_int w land 0xFFFFFFFF)
    and hi = Int64.to_int (Int64.shift_right_logical w 32) in
    c :=
      look 7 (lo land 0xFF)
      lxor look 6 ((lo lsr 8) land 0xFF)
      lxor look 5 ((lo lsr 16) land 0xFF)
      lxor look 4 (lo lsr 24)
      lxor look 3 (hi land 0xFF)
      lxor look 2 ((hi lsr 8) land 0xFF)
      lxor look 1 ((hi lsr 16) land 0xFF)
      lxor look 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = words_end to pos + len - 1 do
    c := look 0 ((!c lxor Char.code (String.unsafe_get s j)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let string s = update 0 s ~pos:0 ~len:(String.length s)

(* {2 Combination}

   A CRC is a polynomial remainder, so appending [len] bytes to a message
   multiplies its CRC by x^(8 len) modulo the polynomial and adds the CRC of
   the appended bytes: [crc (a ^ b) = crc a * x^(8 |b|) + crc b].  The
   pre- and post-conditioning cancel in that sum.  Bit 31 holds x^0, since
   the polynomial is reflected.  This is zlib's [crc32_combine]. *)

let poly = 0xEDB88320

(* [a * b] modulo the polynomial, high bit of [a] first. *)
let multmodp a b =
  let b = ref b and p = ref 0 in
  for i = 31 downto 0 do
    if a land (1 lsl i) <> 0 then p := !p lxor !b;
    b := if !b land 1 = 1 then (!b lsr 1) lxor poly else !b lsr 1
  done;
  !p

(* [x2n.(k)] is x^(2^k).  x^(2^32) = x modulo this polynomial, so the
   powers repeat with period 32. *)
let x2n =
  let t = Array.make 32 0 in
  t.(0) <- 1 lsl 30;
  for k = 1 to 31 do
    t.(k) <- multmodp t.(k - 1) t.(k - 1)
  done;
  t

(* x^(n * 2^k): one table factor per set bit of [n]. *)
let x2nmodp n k =
  let p = ref (1 lsl 31) and n = ref n and k = ref k in
  while !n <> 0 do
    if !n land 1 = 1 then p := multmodp x2n.(!k land 31) !p;
    n := !n lsr 1;
    incr k
  done;
  !p

let combine crc1 crc2 ~len =
  if len < 0 then invalid_arg "Crc32.combine";
  multmodp (x2nmodp len 3) (crc1 land 0xFFFFFFFF) lxor (crc2 land 0xFFFFFFFF)
