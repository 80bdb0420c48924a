(* Metric arithmetic: medians, ratios, error percentages and the JSON result
   line.  Pure functions, so the tests can pin every formula. *)

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sum = List.fold_left ( +. ) 0.0

(* [num / den], or 0 when there is nothing to divide by (a layer a workload
   does not exercise). *)
let ratio num den = if den = 0.0 then 0.0 else num /. den

(* Absolute relative error of [x] against [reference], in percent. *)
let err_pct ~reference x =
  if reference = 0.0 then if x = 0.0 then 0.0 else infinity
  else 100.0 *. Float.abs (x -. reference) /. Float.abs reference

let error_rate ~failed ~attempted =
  if attempted <= 0 then 1.0 else float_of_int failed /. float_of_int attempted

(* How much slower the traced run was than the untraced one, in percent. *)
let overhead_pct ~traced ~untraced = 100.0 *. ((traced /. untraced) -. 1.0)

type value = { name : string; value : float; unit_ : string }

let v name unit_ value = { name; value; unit_ }

(* JSON has no NaN or infinity; a metric that cannot be computed is a bug in
   the run, so it is reported as a failure by the caller, and written as 0
   here only to keep the line parseable. *)
let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let result_json ~correct ~attempted ~failed metrics =
  let metric m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
      (json_number m.value) m.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))
