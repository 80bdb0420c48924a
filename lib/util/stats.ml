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

module Running = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable last : float;
  }

  let create () = { n = 0; mean = 0.0; m2 = 0.0; last = 0.0 }

  let add t x =
    t.n <- t.n + 1;
    t.last <- x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let count t = t.n
  let mean t = t.mean
  let stddev t = if t.n < 2 then 0.0 else sqrt (t.m2 /. float_of_int t.n)
  let cov t = if t.mean = 0.0 then 0.0 else stddev t /. t.mean
  let last t = t.last

  let sync io t =
    t.n <- Codec.sync io Codec.int t.n;
    t.mean <- Codec.sync io Codec.float t.mean;
    t.m2 <- Codec.sync io Codec.float t.m2;
    t.last <- Codec.sync io Codec.float t.last
end

module Ema = struct
  type t = { alpha : float; mutable value : float; mutable seeded : bool }

  let create ~alpha =
    assert (alpha > 0.0 && alpha <= 1.0);
    { alpha; value = 0.0; seeded = false }

  let add t x =
    if t.seeded then t.value <- (t.alpha *. x) +. ((1.0 -. t.alpha) *. t.value)
    else begin
      t.value <- x;
      t.seeded <- true
    end

  let value t = t.value
  let is_empty t = not t.seeded

  let sync io t =
    t.value <- Codec.sync io Codec.float t.value;
    t.seeded <- Codec.sync io Codec.bool t.seeded
end
