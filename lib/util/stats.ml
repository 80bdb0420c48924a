let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else
    let m = mean xs in
    let sum_sq = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (sum_sq /. float_of_int n)

let cov xs =
  let m = mean xs in
  if m = 0.0 then 0.0 else stddev xs /. m

let manhattan a b =
  if Array.length a <> Array.length b then
    invalid_arg "Stats.manhattan: length mismatch";
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. Float.abs (a.(i) -. b.(i))
  done;
  !acc

let normalize_l1 xs =
  let total = Array.fold_left ( +. ) 0.0 xs in
  if total = 0.0 then Array.copy xs else Array.map (fun x -> x /. total) xs

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

(* The floats of [Running] and [Ema] live in a [Float.Array]: a record that
   mixes mutable floats with other fields stores each float boxed, so every
   write would allocate (three per [Running.add]); a float array stores
   them flat. *)
module Running = struct
  type t = { mutable n : int; f : Float.Array.t (* mean, m2, last *) }

  let mean_ = 0
  let m2_ = 1
  let last_ = 2
  let create () = { n = 0; f = Float.Array.make 3 0.0 }

  let add t x =
    let f = t.f in
    t.n <- t.n + 1;
    Float.Array.unsafe_set f last_ x;
    let mean = Float.Array.unsafe_get f mean_ in
    let delta = x -. mean in
    let mean = mean +. (delta /. float_of_int t.n) in
    Float.Array.unsafe_set f mean_ mean;
    Float.Array.unsafe_set f m2_
      (Float.Array.unsafe_get f m2_ +. (delta *. (x -. mean)))

  let count t = t.n
  let mean t = Float.Array.get t.f mean_

  let stddev t =
    if t.n < 2 then 0.0 else sqrt (Float.Array.get t.f m2_ /. float_of_int t.n)

  let cov t = if mean t = 0.0 then 0.0 else stddev t /. mean t
  let last t = Float.Array.get t.f last_

  let sync io t =
    let cell i = Float.Array.set t.f i (Codec.sync io Codec.float (Float.Array.get t.f i)) in
    t.n <- Codec.sync io Codec.int t.n;
    cell mean_;
    cell m2_;
    cell last_
end

module Ema = struct
  type t = { alpha : float; v : Float.Array.t (* the average *); mutable seeded : bool }

  let create ~alpha =
    assert (alpha > 0.0 && alpha <= 1.0);
    { alpha; v = Float.Array.make 1 0.0; seeded = false }

  let add t x =
    if t.seeded then
      Float.Array.unsafe_set t.v 0
        ((t.alpha *. x) +. ((1.0 -. t.alpha) *. Float.Array.unsafe_get t.v 0))
    else begin
      Float.Array.unsafe_set t.v 0 x;
      t.seeded <- true
    end

  let value t = Float.Array.get t.v 0
  let is_empty t = not t.seeded

  let sync io t =
    Float.Array.set t.v 0 (Codec.sync io Codec.float (Float.Array.get t.v 0));
    t.seeded <- Codec.sync io Codec.bool t.seeded
end
