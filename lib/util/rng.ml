type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let to_state t = t.state
let of_state state = { state }
let set_state t state = t.state <- state
let sync io t = t.state <- Codec.sync io Codec.int64 t.state

(* splitmix64 core: advance the state by the golden gamma and scramble. *)
let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed64 = bits64 t in
  { state = seed64 }

(* The state advances by exactly one gamma per [bits64] call, so skipping
   [n] draws is a single multiply-add.  Used by fast-forward simulation to
   keep the stream aligned with what a full run would have consumed. *)
let skip t n = t.state <- Int64.add t.state (Int64.mul golden_gamma (Int64.of_int n))

(* Non-negative 62-bit value, safe to use as an OCaml [int]. *)
let positive_int t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  assert (bound > 0);
  positive_int t mod bound

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t bound =
  let mantissa = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (mantissa /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let geometric t p =
  assert (p > 0.0 && p <= 1.0);
  if p >= 1.0 then 0
  else
    let u = float t 1.0 in
    (* Inverse CDF of the geometric distribution on {0, 1, ...}. *)
    int_of_float (Float.floor (log1p (-.u) /. log1p (-.p)))

let exponential t mean =
  let u = float t 1.0 in
  -.mean *. log1p (-.u)

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
