module Pattern = Ace_isa.Pattern
module Rng = Ace_util.Rng

let rng () = Rng.create ~seed:1

let addresses pattern n =
  let c = Pattern.cursor pattern in
  let rng = rng () in
  List.init n (fun _ -> Pattern.next c ~rng)

let test_sequential_walk () =
  let p = Pattern.Sequential { base = 1000; extent = 64; stride = 16 } in
  Alcotest.(check (list int)) "walk with wrap"
    [ 1000; 1016; 1032; 1048; 1000; 1016 ]
    (addresses p 6)

let test_sequential_stride_one () =
  let p = Pattern.Sequential { base = 0; extent = 3; stride = 1 } in
  Alcotest.(check (list int)) "unit stride" [ 0; 1; 2; 0 ] (addresses p 4)

let test_random_in_bounds () =
  let p = Pattern.Random_in { base = 5000; extent = 256 } in
  List.iter
    (fun a -> Alcotest.(check bool) "in region" true (a >= 5000 && a < 5256))
    (addresses p 500)

let test_chase_in_bounds () =
  let p = Pattern.Pointer_chase { base = 9000; extent = 1024 } in
  List.iter
    (fun a -> Alcotest.(check bool) "in region" true (a >= 9000 && a < 9000 + 1024))
    (addresses p 500)

let test_chase_deterministic () =
  let p = Pattern.Pointer_chase { base = 0; extent = 4096 } in
  Alcotest.(check (list int)) "chase needs no rng" (addresses p 20) (addresses p 20)

let test_chase_covers () =
  (* The chaotic walk should touch a reasonable number of distinct words. *)
  let p = Pattern.Pointer_chase { base = 0; extent = 1024 } in
  let seen = Hashtbl.create 64 in
  List.iter (fun a -> Hashtbl.replace seen a ()) (addresses p 1000);
  Alcotest.(check bool) "covers many distinct addresses" true (Hashtbl.length seen > 32)

let test_reset () =
  let p = Pattern.Sequential { base = 0; extent = 100; stride = 8 } in
  let c = Pattern.cursor p in
  let r = rng () in
  let first = Pattern.next c ~rng:r in
  ignore (Pattern.next c ~rng:r);
  Pattern.reset c;
  Alcotest.(check int) "reset returns to start" first (Pattern.next c ~rng:r)

let test_footprint () =
  Alcotest.(check int) "sequential footprint" 64
    (Pattern.footprint (Pattern.Sequential { base = 0; extent = 64; stride = 8 }));
  Alcotest.(check int) "random footprint" 128
    (Pattern.footprint (Pattern.Random_in { base = 0; extent = 128 }))

let test_base () =
  Alcotest.(check int) "base" 42
    (Pattern.base (Pattern.Random_in { base = 42; extent = 1 }))

let test_validate () =
  let ok p = Alcotest.(check bool) "valid" true (Pattern.validate p = Ok ()) in
  let bad p = Alcotest.(check bool) "invalid" true (Result.is_error (Pattern.validate p)) in
  ok (Pattern.Sequential { base = 0; extent = 1; stride = 1 });
  bad (Pattern.Sequential { base = 0; extent = 1; stride = 0 });
  bad (Pattern.Sequential { base = -1; extent = 1; stride = 1 });
  bad (Pattern.Random_in { base = 0; extent = 0 });
  ok (Pattern.Pointer_chase { base = 0; extent = 8 })

let prop_all_patterns_in_bounds =
  QCheck.Test.make ~name:"all patterns stay in their region" ~count:200
    QCheck.(
      triple (int_range 0 1_000_000) (int_range 8 65536) (int_range 0 2))
    (fun (base, extent, kind) ->
      let pattern =
        match kind with
        | 0 -> Pattern.Sequential { base; extent; stride = 8 }
        | 1 -> Pattern.Random_in { base; extent }
        | _ -> Pattern.Pointer_chase { base; extent }
      in
      let c = Pattern.cursor pattern in
      let rng = Rng.create ~seed:base in
      let ok = ref true in
      for _ = 1 to 200 do
        let a = Pattern.next c ~rng in
        if a < base || a >= base + extent then ok := false
      done;
      !ok)

(* The batched generator must be indistinguishable from repeated [next]:
   same addresses, same cursor state after, same RNG stream position. *)
let prop_next_batch_equiv =
  QCheck.Test.make ~name:"next_batch = n nexts (addresses, cursor, rng)"
    ~count:200
    QCheck.(
      quad (int_range 0 1_000_000) (int_range 8 65536) (int_range 0 2)
        (int_range 0 300))
    (fun (base, extent, kind, n) ->
      let pattern =
        match kind with
        | 0 -> Pattern.Sequential { base; extent; stride = 8 }
        | 1 -> Pattern.Random_in { base; extent }
        | _ -> Pattern.Pointer_chase { base; extent }
      in
      let ca = Pattern.cursor pattern and cb = Pattern.cursor pattern in
      let ra = Rng.create ~seed:base and rb = Rng.create ~seed:base in
      let scalar = Array.init n (fun _ -> Pattern.next ca ~rng:ra) in
      let buf = Array.make (n + 2) (-1) in
      Pattern.next_batch cb ~rng:rb buf ~pos:1 ~n;
      Array.for_all
        (fun i -> buf.(i + 1) = scalar.(i))
        (Array.init n (fun i -> i))
      && buf.(0) = -1
      && buf.(n + 1) = -1
      && Pattern.next ca ~rng:ra = Pattern.next cb ~rng:rb
      && Rng.bits64 ra = Rng.bits64 rb)

(* Address generation is half of the engine's per-chunk work, so it is
   held to zero minor words per address for every pattern, [Random_in]'s
   RNG draws included; the tolerance only absorbs the boxed floats of the
   [Gc.minor_words] readings themselves. *)
let test_next_batch_no_alloc () =
  let n = 4096 in
  let buf = Array.make n 0 in
  List.iter
    (fun pattern ->
      let c = Pattern.cursor pattern and rng = rng () in
      Pattern.next_batch c ~rng buf ~pos:0 ~n;
      let w0 = Gc.minor_words () in
      for _ = 1 to 10 do
        Pattern.next_batch c ~rng buf ~pos:0 ~n
      done;
      let dw = Gc.minor_words () -. w0 in
      Alcotest.(check bool)
        (Printf.sprintf "%d addresses cost %.0f minor words" (10 * n) dw)
        true (dw < 256.0))
    [
      Pattern.Sequential { base = 0; extent = 1 lsl 20; stride = 8 };
      Pattern.Random_in { base = 0; extent = 1 lsl 20 };
      Pattern.Pointer_chase { base = 0; extent = 1 lsl 20 };
    ]

let suite =
  [
    Tu.case "sequential walk" test_sequential_walk;
    Tu.case "sequential unit stride" test_sequential_stride_one;
    Tu.case "random in bounds" test_random_in_bounds;
    Tu.case "chase in bounds" test_chase_in_bounds;
    Tu.case "chase deterministic" test_chase_deterministic;
    Tu.case "chase coverage" test_chase_covers;
    Tu.case "cursor reset" test_reset;
    Tu.case "footprint" test_footprint;
    Tu.case "base" test_base;
    Tu.case "validate" test_validate;
    Tu.qcheck prop_all_patterns_in_bounds;
    Tu.qcheck prop_next_batch_equiv;
    Tu.case "next_batch allocates nothing" test_next_batch_no_alloc;
  ]
