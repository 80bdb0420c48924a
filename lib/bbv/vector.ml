type t = { counters : int array; mutable total : int }

let saturation = (1 lsl 24) - 1

let create ?(buckets = 32) () =
  assert (buckets > 0);
  { counters = Array.make buckets 0; total = 0 }

let buckets t = Array.length t.counters

(* Index from branch-PC bits [lg(buckets)+1 : 2] (the paper excludes the two
   least significant bits). *)
let bucket_of t pc = (pc lsr 2) mod Array.length t.counters

let add t ~pc ~instrs =
  let i = bucket_of t pc in
  t.counters.(i) <- min saturation (t.counters.(i) + instrs);
  t.total <- t.total + instrs

let snapshot t =
  let sum = Array.fold_left ( + ) 0 t.counters in
  if sum = 0 then Array.make (Array.length t.counters) 0.0
  else Array.map (fun c -> float_of_int c /. float_of_int sum) t.counters

let clear t =
  Array.fill t.counters 0 (Array.length t.counters) 0;
  t.total <- 0

let is_empty t = t.total = 0

let sync io t =
  let open Ace_util.Codec in
  sync_array io int t.counters;
  t.total <- sync io int t.total
