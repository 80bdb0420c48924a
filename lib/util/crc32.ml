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
