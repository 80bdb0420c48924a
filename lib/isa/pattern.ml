type t =
  | Sequential of { base : int; extent : int; stride : int }
  | Random_in of { base : int; extent : int }
  | Pointer_chase of { base : int; extent : int }

let footprint = function
  | Sequential { extent; _ } | Random_in { extent; _ } | Pointer_chase { extent; _ } ->
      extent

let base = function
  | Sequential { base; _ } | Random_in { base; _ } | Pointer_chase { base; _ } -> base

let validate t =
  let check_region ~base ~extent =
    if base < 0 then Error "negative base"
    else if extent <= 0 then Error "non-positive extent"
    else Ok ()
  in
  match t with
  | Sequential { base; extent; stride } ->
      if stride <= 0 then Error "non-positive stride"
      else check_region ~base ~extent
  | Random_in { base; extent } | Pointer_chase { base; extent } ->
      check_region ~base ~extent

type cursor = { pattern : t; mutable offset : int; mutable steps : int }

let cursor pattern = { pattern; offset = 0; steps = 0 }

let reset c =
  c.offset <- 0;
  c.steps <- 0

let sync io c =
  let open Ace_util.Codec in
  c.offset <- sync io int c.offset;
  c.steps <- sync io int c.steps

(* Cheap integer hash for the pointer-chase walk (finalizer of splitmix64,
   truncated to OCaml's int). *)
let chase_hash x =
  let z = x * 0x9E3779B9 in
  let z = (z lxor (z lsr 16)) * 0x85EBCA6B in
  let z = (z lxor (z lsr 13)) * 0xC2B2AE35 in
  (z lxor (z lsr 16)) land max_int

let next c ~rng =
  match c.pattern with
  | Sequential { base; extent; stride } ->
      let addr = base + c.offset in
      c.offset <- c.offset + stride;
      if c.offset >= extent then c.offset <- 0;
      addr
  | Random_in { base; extent } -> base + Ace_util.Rng.int rng extent
  | Pointer_chase { base; extent } ->
      let addr = base + c.offset in
      (* Advance in 8-byte granules so distinct offsets map to distinct
         words; alignment keeps the walk from splitting cache lines.  The
         step counter enters the hash so the walk cannot collapse into a
         short cycle (a pure offset->offset map would, by the birthday
         bound). *)
      c.steps <- c.steps + 1;
      c.offset <- chase_hash ((c.offset * 31) + c.steps) mod (extent / 8 |> max 1) * 8;
      addr

(* Batched [next]: fill [buf.(pos .. pos+n-1)] with the next [n] addresses.
   Semantically exactly [n] calls to [next] — same addresses, same cursor
   movement, same RNG draws — but the pattern match and field loads are
   hoisted out of the loop, and the cursor is written back once.  The local
   refs below are non-escaping, so the compiler compiles them to mutable
   stack slots (no allocation). *)
let next_batch c ~rng buf ~pos ~n =
  match c.pattern with
  | Sequential { base; extent; stride } ->
      let off = ref c.offset in
      for i = pos to pos + n - 1 do
        Array.unsafe_set buf i (base + !off);
        let o = !off + stride in
        off := if o >= extent then 0 else o
      done;
      c.offset <- !off
  | Random_in { base; extent } ->
      Ace_util.Rng.fill_int rng extent buf ~pos ~n;
      if base <> 0 then
        for i = pos to pos + n - 1 do
          Array.unsafe_set buf i (base + Array.unsafe_get buf i)
        done
  | Pointer_chase { base; extent } ->
      let granules = extent / 8 |> max 1 in
      let off = ref c.offset and steps = ref c.steps in
      for i = pos to pos + n - 1 do
        Array.unsafe_set buf i (base + !off);
        steps := !steps + 1;
        off := chase_hash ((!off * 31) + !steps) mod granules * 8
      done;
      c.offset <- !off;
      c.steps <- !steps

(* Advance a cursor as if [next] had been called [n] times, consuming
   exactly the RNG draws a real walk would have.  Sequential wraps by
   resetting to zero (not modular reduction), so the closed form splits the
   walk into the partial ramp up to the first wrap and whole periods after
   it. *)
let skip c ~rng n =
  if n > 0 then
    match c.pattern with
    | Sequential { extent; stride; _ } ->
        (* [offset + n * stride < extent] iff [n < to_wrap]; the bounds keep
           the product from overflowing, and the common skip, short of the
           wrap, pays no division. *)
        if n < 1 lsl 30 && stride < 1 lsl 30 && c.offset + (n * stride) < extent then
          c.offset <- c.offset + (n * stride)
        else begin
          let period = ((extent + stride - 1) / stride) in
          let to_wrap = (extent - c.offset + stride - 1) / stride in
          if n < to_wrap then c.offset <- c.offset + (n * stride)
          else c.offset <- (n - to_wrap) mod period * stride
        end
    | Random_in _ -> Ace_util.Rng.skip rng n
    | Pointer_chase { extent; _ } ->
        let granules = extent / 8 |> max 1 in
        for _ = 1 to n do
          c.steps <- c.steps + 1;
          c.offset <- chase_hash ((c.offset * 31) + c.steps) mod granules * 8
        done
