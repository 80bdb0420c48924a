module Rng = Ace_util.Rng

let test_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different seeds differ" false (Rng.bits64 a = Rng.bits64 b)

(* The published splitmix64 outputs for seed 0: the stream, not just its
   determinism, is what every recorded experiment depends on. *)
let test_known_answer () =
  let rng = Rng.create ~seed:0 in
  List.iter
    (fun expected -> Alcotest.(check int64) "splitmix64 seed 0" expected (Rng.bits64 rng))
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ]

(* Seed 42's first [int] draws, recorded when the state was a boxed
   [int64]: a change of representation must leave them as they are. *)
let test_int_sequence () =
  let rng = Rng.create ~seed:42 in
  let got = List.init 10 (fun _ -> Rng.int rng 1000) in
  Alcotest.(check (list int)) "seed 42 int 1000"
    [ 853; 72; 964; 941; 812; 265; 231; 977; 501; 243 ] got

(* Draw from [a] and [b] in the order [schedule] gives ([true] = [a]) and
   return each one's draws in order. *)
let interleave a b schedule =
  let xa = ref [] and xb = ref [] in
  List.iter
    (fun from_a ->
      if from_a then xa := Rng.bits64 a :: !xa else xb := Rng.bits64 b :: !xb)
    schedule;
  (List.rev !xa, List.rev !xb)

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs, y :: ys -> x = y && is_prefix xs ys
  | _ :: _, [] -> false

(* A copy replays the original's draws under every interleaving of 8 draws;
   two generators sharing one mutable state would each lose the other's
   draws from its stream. *)
let test_copy_independent () =
  for bits = 0 to 255 do
    let schedule = List.init 8 (fun i -> bits land (1 lsl i) <> 0) in
    let a = Rng.create ~seed:9 in
    ignore (Rng.bits64 a);
    let b = Rng.copy a in
    let xa, xb = interleave a b schedule in
    Alcotest.(check bool) "copy replays the original's draws" true
      (if List.length xa <= List.length xb then is_prefix xa xb else is_prefix xb xa)
  done

(* Generators built from another's state or split from it own their
   state: drawing from one never moves the other. *)
let test_no_aliasing () =
  let a = Rng.create ~seed:9 in
  let s = Rng.to_state a in
  let b = Rng.of_state s and c = Rng.of_state s in
  ignore (Rng.bits64 b);
  Alcotest.(check int64) "of_state leaves its source alone" s (Rng.to_state a);
  Alcotest.(check int64) "of_state twice gives two generators" s (Rng.to_state c);
  let child = Rng.split a in
  let parent_state = Rng.to_state a in
  ignore (Rng.bits64 child);
  Alcotest.(check int64) "the split child leaves the parent alone" parent_state
    (Rng.to_state a);
  let child_state = Rng.to_state child in
  ignore (Rng.bits64 a);
  Alcotest.(check int64) "the parent leaves the split child alone" child_state
    (Rng.to_state child)

let test_split_independent () =
  let parent = Rng.create ~seed:5 in
  let child = Rng.split parent in
  let c1 = Rng.bits64 child and p1 = Rng.bits64 parent in
  Alcotest.(check bool) "split streams differ" true (c1 <> p1)

let test_int_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (x >= 0 && x < 17)
  done

let test_int_in_bounds () =
  let rng = Rng.create ~seed:4 in
  for _ = 1 to 1000 do
    let x = Rng.int_in rng 5 9 in
    Alcotest.(check bool) "in [5,9]" true (x >= 5 && x <= 9)
  done

let test_int_in_degenerate () =
  let rng = Rng.create ~seed:4 in
  Alcotest.(check int) "singleton range" 7 (Rng.int_in rng 7 7)

let test_float_bounds () =
  let rng = Rng.create ~seed:6 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (x >= 0.0 && x < 2.5)
  done

let test_float_mean () =
  let rng = Rng.create ~seed:8 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng 1.0
  done;
  Tu.check_approx ~eps:0.02 "uniform mean ~0.5" 0.5 (!sum /. float_of_int n)

let test_bernoulli_rate () =
  let rng = Rng.create ~seed:10 in
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  Tu.check_approx ~eps:0.02 "bernoulli(0.3)" 0.3 (float_of_int !hits /. float_of_int n)

let test_bool_balance () =
  let rng = Rng.create ~seed:11 in
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bool rng then incr hits
  done;
  Tu.check_approx ~eps:0.02 "fair coin" 0.5 (float_of_int !hits /. float_of_int n)

let test_geometric_mean () =
  let rng = Rng.create ~seed:12 in
  let p = 0.25 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.geometric rng p
  done;
  (* mean = (1-p)/p = 3 *)
  Tu.check_approx ~eps:0.15 "geometric mean" 3.0 (float_of_int !sum /. float_of_int n)

let test_geometric_p1 () =
  let rng = Rng.create ~seed:13 in
  Alcotest.(check int) "p=1 always 0" 0 (Rng.geometric rng 1.0)

let test_exponential_mean () =
  let rng = Rng.create ~seed:14 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng 4.0
  done;
  Tu.check_approx ~eps:0.15 "exponential mean" 4.0 (!sum /. float_of_int n)

let test_pick_uniformity () =
  let rng = Rng.create ~seed:15 in
  let arr = [| 0; 1; 2; 3 |] in
  let counts = Array.make 4 0 in
  for _ = 1 to 8000 do
    let x = Rng.pick rng arr in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "roughly uniform" true (c > 1700 && c < 2300))
    counts

let test_shuffle_permutation () =
  let rng = Rng.create ~seed:16 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 50 Fun.id) sorted

let prop_state_roundtrip =
  QCheck.Test.make ~name:"rng state roundtrip continues bit-identically"
    ~count:200
    QCheck.(pair small_int (int_range 0 100))
    (fun (seed, warmup) ->
      let rng = Rng.create ~seed in
      for _ = 1 to warmup do
        ignore (Rng.bits64 rng)
      done;
      let restored = Rng.of_state (Rng.to_state rng) in
      let ok = ref true in
      for _ = 1 to 50 do
        if Rng.bits64 rng <> Rng.bits64 restored then ok := false
      done;
      !ok)

let test_set_state_matches_of_state () =
  let a = Rng.create ~seed:11 in
  ignore (Rng.bits64 a);
  let s = Rng.to_state a in
  let b = Rng.of_state s in
  let c = Rng.create ~seed:999 in
  Rng.set_state c s;
  for _ = 1 to 20 do
    let xa = Rng.bits64 a in
    Alcotest.(check int64) "of_state continues" xa (Rng.bits64 b);
    Alcotest.(check int64) "set_state continues" xa (Rng.bits64 c)
  done

let prop_int_in_range =
  QCheck.Test.make ~name:"rng int always in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

(* [fill_int] is [n] [int] draws offset by the base: same values, written
   only inside the range, and the generator left where the draws leave it.
   Bounds cover 1, powers of two, bounds above 2^40 and arbitrary ones;
   bases cover 0, small ones and ones above 2^40. *)
let prop_fill_int_matches_int =
  QCheck.Test.make ~name:"fill_int = n int draws" ~count:300
    QCheck.(
      pair
        (quad small_int (int_range 0 3) (int_range 0 300) (int_range 0 5))
        (int_range 0 2))
    (fun ((seed, kind, n, pos), base_kind) ->
      let bound =
        match kind with
        | 0 -> 1
        | 1 -> 1 lsl (1 + (seed mod 61))
        | 2 -> (1 lsl 40) + (seed * 7919) + 1
        | _ -> 1 + (seed * 104_729)
      in
      let base =
        match base_kind with
        | 0 -> 0
        | 1 -> 1 + (seed mod 4096)
        | _ -> (1 lsl 40) + (seed * 4099)
      in
      let a = Rng.create ~seed and b = Rng.create ~seed in
      let buf = Array.make (pos + n + 2) (-7) in
      Rng.fill_int a bound ~base buf ~pos ~n;
      let expected = Array.init n (fun _ -> base + Rng.int b bound) in
      Array.sub buf pos n = expected
      && Array.for_all (( = ) (-7)) (Array.sub buf 0 pos)
      && buf.(pos + n) = -7
      && buf.(pos + n + 1) = -7
      && Rng.to_state a = Rng.to_state b)

let test_fill_int_range_checked () =
  let rng = Rng.create ~seed:1 in
  let buf = Array.make 8 0 in
  List.iter
    (fun (pos, n) ->
      Alcotest.check_raises
        (Printf.sprintf "pos %d n %d" pos n)
        (Invalid_argument "Rng.fill_int: range outside the buffer")
        (fun () -> Rng.fill_int rng 10 ~base:0 buf ~pos ~n))
    [ (-1, 2); (0, 9); (7, 2); (3, -1) ];
  Rng.fill_int rng 10 ~base:0 buf ~pos:8 ~n:0

let suite =
  [
    Tu.case "determinism" test_determinism;
    Tu.case "seed sensitivity" test_seed_sensitivity;
    Tu.case "copy is independent" test_copy_independent;
    Tu.case "splitmix64 known answer" test_known_answer;
    Tu.case "seed 42 int sequence" test_int_sequence;
    Tu.case "of_state and split do not alias" test_no_aliasing;
    Tu.case "split is independent" test_split_independent;
    Tu.case "int bounds" test_int_bounds;
    Tu.case "int_in bounds" test_int_in_bounds;
    Tu.case "int_in degenerate" test_int_in_degenerate;
    Tu.case "float bounds" test_float_bounds;
    Tu.case "float mean" test_float_mean;
    Tu.case "bernoulli rate" test_bernoulli_rate;
    Tu.case "bool balance" test_bool_balance;
    Tu.case "geometric mean" test_geometric_mean;
    Tu.case "geometric p=1" test_geometric_p1;
    Tu.case "exponential mean" test_exponential_mean;
    Tu.case "pick uniformity" test_pick_uniformity;
    Tu.case "shuffle permutation" test_shuffle_permutation;
    Tu.case "set_state matches of_state" test_set_state_matches_of_state;
    Tu.qcheck prop_int_in_range;
    Tu.qcheck prop_state_roundtrip;
    Tu.qcheck prop_fill_int_matches_int;
    Tu.case "fill_int range checked" test_fill_int_range_checked;
  ]
