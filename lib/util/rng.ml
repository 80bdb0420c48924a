(* The 64-bit state lives unboxed in an 8-byte buffer.  A mutable [int64]
   record field would box a fresh 3-word block on every write, and a
   non-inlined [bits64] would box its result too; read and written through
   these primitives, with [bits64] inlined, a draw through [int] or [bool]
   allocates nothing.  Only this module reads the bytes, so their order
   does not matter. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state state =
  let t = Bytes.create 8 in
  set t 0 state;
  t

let create ~seed = of_state (Int64.of_int seed)
let copy t = of_state (get t 0)
let to_state t = get t 0
let set_state t state = set t 0 state
let sync io t = set t 0 (Codec.sync io Codec.int64 (get t 0))

(* splitmix64 output function: scramble an advanced state. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* splitmix64 core: advance the state by the golden gamma and scramble. *)
let[@inline] bits64 t =
  let z = Int64.add (get t 0) golden_gamma in
  set t 0 z;
  mix z

let split t = of_state (bits64 t)

(* The state advances by exactly one gamma per [bits64] call, so skipping
   [n] draws is a single multiply-add.  Used by fast-forward simulation to
   keep the stream aligned with what a full run would have consumed. *)
let skip t n = set t 0 (Int64.add (get t 0) (Int64.mul golden_gamma (Int64.of_int n)))

(* Non-negative 62-bit value, safe to use as an OCaml [int]. *)
let[@inline] positive_int t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let[@inline] int t bound =
  assert (bound > 0);
  positive_int t mod bound

(* [n] draws of [base + int t bound] with the state in a local: between
   draws it stays in a register instead of making a store-to-load round
   trip through the buffer, so the draws' scrambles and divisions overlap.
   The base is added as each draw is stored, so a caller drawing addresses
   in a region writes each one once. *)
let fill_int t bound ~base buf ~pos ~n =
  assert (bound > 0);
  if pos < 0 || n < 0 || pos > Array.length buf - n then
    invalid_arg "Rng.fill_int: range outside the buffer";
  let state = ref (get t 0) in
  for i = pos to pos + n - 1 do
    let z = Int64.add !state golden_gamma in
    state := z;
    Array.unsafe_set buf i
      (base + (Int64.to_int (Int64.shift_right_logical (mix z) 2) mod bound))
  done;
  set t 0 !state

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
