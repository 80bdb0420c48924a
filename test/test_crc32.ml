(* CRC-32: the standard check values, agreement with a bit-at-a-time
   reference over every length and alignment the word loop distinguishes,
   chaining, combination, and range checks on the arguments. *)

module Crc32 = Ace_util.Crc32

(* The definition, one bit at a time: no tables, no words. *)
let reference crc s ~pos ~len =
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let test_check_values () =
  Alcotest.(check int) "check value of \"123456789\"" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty string" 0 (Crc32.string "");
  Alcotest.(check int) "reference agrees on the check value" 0xCBF43926
    (reference 0 "123456789" ~pos:0 ~len:9)

(* Every length from 0 to 64 at a random offset into a random string, from
   a random starting CRC: all eight tail lengths, zero to eight words. *)
let prop_matches_reference =
  QCheck.Test.make ~count:200 ~name:"update matches the bit-at-a-time reference"
    QCheck.(
      triple (string_of_size (Gen.int_range 64 96)) (int_range 0 31)
        (int_range 0 0xFFFFFFFF))
    (fun (body, pos, crc) ->
      let s = String.make pos 'x' ^ body in
      List.for_all
        (fun len -> Crc32.update crc s ~pos ~len = reference crc s ~pos ~len)
        (List.init 65 Fun.id))

let prop_chaining =
  QCheck.Test.make ~count:200 ~name:"update chains over any split"
    QCheck.(string_of_size (Gen.int_range 0 80))
    (fun s ->
      let n = String.length s in
      List.for_all
        (fun k ->
          Crc32.update (Crc32.update 0 s ~pos:0 ~len:k) s ~pos:k ~len:(n - k)
          = Crc32.string s)
        (List.init (n + 1) Fun.id))

let update_all crc s = Crc32.update crc s ~pos:0 ~len:(String.length s)

(* Combining the CRC of [a] (from any start) with the CRC of [b] must give
   the CRC of [a ^ b], without reading either string. *)
let prop_combine =
  QCheck.Test.make ~count:300 ~name:"combine joins the CRCs of two strings"
    QCheck.(
      triple (string_of_size (Gen.int_range 0 300)) (string_of_size (Gen.int_range 0 300))
        (int_range 0 0xFFFFFFFF))
    (fun (a, b, c) ->
      Crc32.combine (update_all c a) (Crc32.string b) ~len:(String.length b)
      = update_all (update_all c a) b)

let test_combine_edges () =
  let big = String.init ((1 lsl 20) + 5) (fun i -> Char.chr ((i * 131) land 0xFF)) in
  Alcotest.(check int) "a 1 MiB + 5 B second operand"
    (Crc32.string ("prefix" ^ big))
    (Crc32.combine (Crc32.string "prefix") (Crc32.string big) ~len:(String.length big));
  Alcotest.(check int) "both operands empty" 0 (Crc32.combine 0 0 ~len:0);
  match Crc32.combine 0 0 ~len:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a negative length accepted"

let test_range_checked () =
  let s = String.make 16 'a' in
  List.iter
    (fun (what, pos, len) ->
      match Crc32.update 0 s ~pos ~len with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted" what)
    [
      ("negative pos", -1, 4);
      ("negative len", 0, -1);
      ("range past the end", 9, 8);
      ("pos past the end", 17, 0);
      ("len that overflows pos + len", 1, max_int);
    ];
  Alcotest.(check int) "empty range at the end" 0 (Crc32.update 0 s ~pos:16 ~len:0)

let suite =
  [
    Tu.case "standard check values" test_check_values;
    Tu.qcheck prop_matches_reference;
    Tu.qcheck prop_chaining;
    Tu.qcheck prop_combine;
    Tu.case "combine: a large operand, empty operands, a negative length"
      test_combine_edges;
    Tu.case "out-of-range arguments raise" test_range_checked;
  ]
