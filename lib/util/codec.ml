exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type reader = { s : string; mutable pos : int }

(* A codec is a field of itself: [enc] reads the whole value. *)
type ('r, 'a) field = { enc : Buffer.t -> 'r -> unit; dec : reader -> 'a }
type 'a t = ('a, 'a) field

let append c b v = c.enc b v

let to_string c v =
  let b = Buffer.create 4096 in
  c.enc b v;
  Buffer.contents b

let of_string c s =
  let r = { s; pos = 0 } in
  let v = c.dec r in
  let left = String.length s - r.pos in
  if left <> 0 then fail "%d trailing bytes" left;
  v

let remaining r = String.length r.s - r.pos

let prefix c s ~pos =
  if pos < 0 || pos > String.length s then invalid_arg "Codec.prefix";
  let r = { s; pos } in
  let v = c.dec r in
  (v, r.pos)

(* Claim the next [n] bytes, returning their offset. *)
let take r n =
  if remaining r < n then fail "truncated (%d bytes at %d)" n r.pos;
  let p = r.pos in
  r.pos <- p + n;
  p

(* The primitives write and read the buffer in place, so no int64 or float
   is boxed on the way. *)
let int64 =
  { enc = Buffer.add_int64_le; dec = (fun r -> String.get_int64_le r.s (take r 8)) }

let int =
  {
    enc = (fun b n -> Buffer.add_int64_le b (Int64.of_int n));
    dec = (fun r -> Int64.to_int (String.get_int64_le r.s (take r 8)));
  }

let float =
  {
    enc = (fun b x -> Buffer.add_int64_le b (Int64.bits_of_float x));
    dec = (fun r -> Int64.float_of_bits (String.get_int64_le r.s (take r 8)));
  }

let read_tag r = String.get_uint8 r.s (take r 1)

(* Constant constructors are immediate, so physical equality finds them. *)
let enum name values =
  let values = Array.of_list values in
  let rec index v i =
    if i = Array.length values then invalid_arg ("Codec.enum " ^ name)
    else if values.(i) == v then i
    else index v (i + 1)
  in
  {
    enc = (fun b v -> Buffer.add_uint8 b (index v 0));
    dec =
      (fun r ->
        let n = read_tag r in
        if n >= Array.length values then fail "bad %s tag %d" name n;
        values.(n));
  }

let bool = enum "bool" [ false; true ]
let unit = { enc = (fun _ () -> ()); dec = ignore }

(* Every element costs at least one byte, so a declared length beyond the
   remaining bytes is corruption, not data. *)
let length r =
  let n = int.dec r in
  if n < 0 || n > remaining r then fail "bad length %d at %d" n r.pos;
  n

let string =
  {
    enc =
      (fun b s ->
        int.enc b (String.length s);
        Buffer.add_string b s);
    dec =
      (fun r ->
        let n = length r in
        String.sub r.s (take r n) n);
  }

(* Decoders consume input, so the combinators below sequence them with [let]
   or an explicit loop: OCaml evaluates tuple and constructor arguments right
   to left. *)

let array c =
  {
    enc =
      (fun b xs ->
        int.enc b (Array.length xs);
        Array.iter (c.enc b) xs);
    dec =
      (fun r ->
        let n = length r in
        if n = 0 then [||]
        else begin
          let out = Array.make n (c.dec r) in
          for i = 1 to n - 1 do
            out.(i) <- c.dec r
          done;
          out
        end);
  }

let field c get = { enc = (fun b r -> c.enc b (get r)); dec = c.dec }
let ( let+ ) f build = { enc = f.enc; dec = (fun r -> build (f.dec r)) }

let ( and+ ) fa fb =
  {
    enc =
      (fun b r ->
        fa.enc b r;
        fb.enc b r);
    dec =
      (fun r ->
        let x = fa.dec r in
        let y = fb.dec r in
        (x, y));
  }

let pair ca cb =
  let+ x = field ca fst
  and+ y = field cb snd in
  (x, y)

let triple ca cb cc =
  let+ x = field ca (fun (x, _, _) -> x)
  and+ y = field cb (fun (_, y, _) -> y)
  and+ z = field cc (fun (_, _, z) -> z) in
  (x, y, z)

let conv proj inj c =
  { enc = (fun b x -> c.enc b (proj x)); dec = (fun r -> inj (c.dec r)) }

let list c = conv Array.of_list Array.to_list (array c)

type ('a, 'b) case = { tag : int; payload : 'b t; inj : 'b -> 'a }
type 'a any_case = Case : ('a, 'b) case -> 'a any_case
type 'a writer = Buffer.t

let case tag payload inj = { tag; payload; inj }

let write b c x =
  Buffer.add_uint8 b c.tag;
  c.payload.enc b x

let variant name cases select =
  let by_tag = Array.make 256 None in
  List.iter
    (fun (Case c as any) ->
      if c.tag < 0 || c.tag > 255 || Option.is_some by_tag.(c.tag) then
        invalid_arg (Printf.sprintf "Codec.variant %s: tag %d" name c.tag);
      by_tag.(c.tag) <- Some any)
    cases;
  {
    enc = select;
    dec =
      (fun r ->
        let n = read_tag r in
        match by_tag.(n) with
        | Some (Case c) -> c.inj (c.payload.dec r)
        | None -> fail "bad %s tag %d" name n);
  }

let option c =
  let none = case 0 unit (fun () -> None) and some = case 1 c Option.some in
  variant "option" [ Case none; Case some ] (fun w -> function
    | None -> write w none ()
    | Some x -> write w some x)

(* {2 Live objects}

   One function per stateful type walks its fields in format order; the
   same walk writes when [io] is a buffer and reads when it is a cursor. *)

(* A writer notes where each [write_encoded] run landed, with its CRC. *)
type output = { buf : Buffer.t; mutable copies : (int * int * int) list }
type io = Write of output | Read of reader

let saved f =
  let w = { buf = Buffer.create 4096; copies = [] } in
  f (Write w);
  (Buffer.contents w.buf, List.rev w.copies)

let save f = fst (saved f)

(* Hash the gaps between the copied runs and combine each run's CRC in, so
   no copied byte is read again. *)
let save_crc f =
  let s, copies = saved f in
  let crc, pos =
    List.fold_left
      (fun (crc, pos) (at, len, c) ->
        (Crc32.combine (Crc32.update crc s ~pos ~len:(at - pos)) c ~len, at + len))
      (0, 0) copies
  in
  (s, Crc32.update crc s ~pos ~len:(String.length s - pos))

let load s f =
  let r = { s; pos = 0 } in
  f (Read r);
  let left = remaining r in
  if left <> 0 then fail "%d trailing bytes" left

let reading = function Read _ -> true | Write _ -> false
let room = function Read r -> remaining r | Write _ -> max_int

let sync io c v =
  match io with
  | Write w ->
      c.enc w.buf v;
      v
  | Read r -> c.dec r

let sync_length io n =
  match io with
  | Write w ->
      int.enc w.buf n;
      n
  | Read r -> length r

let write_encoded io src ~pos ~len ~crc =
  match io with
  | Write w ->
      let at = Buffer.length w.buf in
      Buffer.add_subbytes w.buf src pos len;
      w.copies <- (at, len, crc) :: w.copies
  | Read _ -> invalid_arg "Codec.write_encoded"

let expect_length n a =
  if n <> Array.length a then fail "%d elements where %d live" n (Array.length a)

let sync_array io c a =
  match io with
  | Write w ->
      int.enc w.buf (Array.length a);
      Array.iter (c.enc w.buf) a
  | Read r ->
      expect_length (length r) a;
      for i = 0 to Array.length a - 1 do
        a.(i) <- c.dec r
      done

let sync_each io f a =
  expect_length (sync_length io (Array.length a)) a;
  for i = 0 to Array.length a - 1 do
    f io a.(i)
  done

let sync_option io f o =
  match (sync io bool (Option.is_some o), o) with
  | true, Some x -> f io x
  | false, None -> ()
  | true, None -> fail "a stored value where the live option is empty"
  | false, Some _ -> fail "no stored value where the live option is set"

(* Bindings in key order: table order is an artifact of insertion history
   and must not leak into the bytes. *)
let sync_hashtbl io c tbl =
  match io with
  | Write w ->
      let bindings = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
      int.enc w.buf (List.length bindings);
      List.iter (c.enc w.buf) (List.sort (fun (k1, _) (k2, _) -> compare k1 k2) bindings)
  | Read r ->
      let n = length r in
      Hashtbl.reset tbl;
      for _ = 1 to n do
        let k, v = c.dec r in
        Hashtbl.replace tbl k v
      done
