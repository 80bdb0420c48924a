(* Committed full-simulation digests: for each covered seed, one
   [Outputs.digest] per item of a workload at the workload's own scale, in
   the workload's item order.  [golden.txt] covers the suites' 7 x 3 matrix
   at scale 0.1 ([Ace_workloads.Specjvm.all] x [Ace_harness.Scheme.all]);
   [golden_durable.txt] covers the durable items at scale 1.0.  They pin the
   simulator's outputs across commits: a change meant only to speed the
   simulator up must leave every digest as it is. *)

let parse text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | seed :: digests when seed <> "" && seed.[0] <> '#' ->
             Some (int_of_string seed, Array.of_list digests)
         | _ -> None)

let suites = lazy (parse Golden_data.text)
let durable_items = lazy (parse Golden_durable_data.text)

let lookup ~durable seed =
  List.assoc_opt seed (Lazy.force (if durable then durable_items else suites))
