(* Regenerate a digest table: the full-simulation digests of a workload's
   items at its own scale for seeds FIRST..LAST, one line per seed.

     dune exec ./perfbench/gen_golden.exe -- suite-full 0 99 > perfbench/golden.txt
     dune exec ./perfbench/gen_golden.exe -- durable-traced 0 99 \
       > perfbench/golden_durable.txt

   suite-full and suite-sampled share one table, since the reference of a
   sampled item is its full simulation. *)

open Perfbench

let () =
  let kind = List.assoc Sys.argv.(1) Suite.kinds in
  let first = int_of_string Sys.argv.(2) and last = int_of_string Sys.argv.(3) in
  let suite = Suite.suite_of kind and scale = Suite.scale_of kind in
  let items = Suite.items ~suite kind in
  Printf.printf "# seed, then Outputs.digest of each item at scale %g: %s\n" scale
    (String.concat "," (List.map Suite.item_name items));
  for seed = first to last do
    let digests =
      List.map (fun item -> Outputs.digest (Suite.reference ~scale ~seed item).Suite.out) items
    in
    Printf.printf "%d %s\n%!" seed (String.concat " " digests)
  done
