(* perfbench: run one benchmark workload and print its metrics.

     main.exe --workload suite-full|suite-sampled|durable-traced --seed N
       --seconds S --trace 0|1 [--scale X]

   The last line of standard output is one JSON object: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1.  Usage
   errors exit with code 2 and print no result.  --scale (the workload's own
   run length by default) profiles a workload at another run length; the
   benchmark's figures do not use it. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload suite-full|suite-sampled|durable-traced --seed N \
     --seconds S --trace 0|1 [--scale X]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get key conv =
    match Option.bind (List.assoc_opt key opts) conv with
    | Some v -> v
    | None -> usage ()
  in
  let name = get "workload" Option.some in
  let kind = match List.assoc_opt name Suite.kinds with Some k -> k | None -> usage () in
  let seed = get "seed" int_of_string_opt in
  let seconds = get "seconds" float_of_string_opt in
  let trace =
    get "trace" (function "0" -> Some false | "1" -> Some true | _ -> None)
  in
  let optional key conv = Option.map (fun _ -> get key conv) (List.assoc_opt key opts) in
  let scale = optional "scale" float_of_string_opt in
  let known = [ "workload"; "seed"; "seconds"; "trace"; "scale" ] in
  if
    seconds < 0.0
    || List.exists (fun (k, _) -> not (List.mem k known)) opts
    || List.length (List.sort_uniq compare (List.map fst opts)) <> List.length opts
    || Option.fold ~none:false ~some:(fun s -> s <= 0.0) scale
  then usage ();
  let r = Suite.run ?scale ~seconds ~seed ~trace kind in
  Report.print ~name ~seed ~trace r;
  let metrics = if trace then Report.per_layer r else Report.end_to_end r in
  let finite = List.for_all (fun m -> Float.is_finite m.Metric.value) metrics in
  print_endline
    (Metric.result_json
       ~correct:(r.Suite.failed = 0 && finite)
       ~attempted:r.Suite.attempted ~failed:r.Suite.failed metrics)
