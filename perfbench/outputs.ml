(* The simulated outputs of one item (workload x scheme) that the benchmark's
   oracle compares: what a user of the reproduction reads off a run. *)

module Run = Ace_harness.Run

type t = {
  instrs : int;
  cycles : float;
  l1d_nj : float;
  l2_nj : float;
  l1d_miss_rate : float;
  l2_miss_rate : float;
  hotspots : int;  (** Hotspot census: methods the DO system promoted. *)
  tunings : int array;  (** Per CU (hotspot) or one total (BBV). *)
  reconfigs : int array;  (** Per CU. *)
}

let of_result (r : Run.result) =
  let tunings, reconfigs =
    match (r.Run.hotspot, r.Run.bbv) with
    | Some h, _ ->
        ( Array.map (fun c -> c.Ace_core.Framework.tunings) h.Run.reports,
          Array.map (fun c -> c.Ace_core.Framework.reconfigs) h.Run.reports )
    | None, Some b -> ([| b.Run.bbv_tunings |], b.Run.bbv_reconfigs)
    | None, None -> ([||], [||])
  in
  {
    instrs = r.Run.instrs;
    cycles = r.Run.cycles;
    l1d_nj = r.Run.l1d_energy_nj;
    l2_nj = r.Run.l2_energy_nj;
    l1d_miss_rate = r.Run.l1d_miss_rate;
    l2_miss_rate = r.Run.l2_miss_rate;
    hotspots = r.Run.do_stats.Run.hotspot_count;
    tunings;
    reconfigs;
  }

let energy_nj o = o.l1d_nj +. o.l2_nj

(* Names of the fields of [o] that differ from [reference]; floats must match
   bit for bit, since the simulator is deterministic. *)
let mismatches ~reference o =
  let check name same acc = if same then acc else name :: acc in
  []
  |> check "reconfigs" (reference.reconfigs = o.reconfigs)
  |> check "tunings" (reference.tunings = o.tunings)
  |> check "hotspots" (reference.hotspots = o.hotspots)
  |> check "l2_miss_rate" (Float.equal reference.l2_miss_rate o.l2_miss_rate)
  |> check "l1d_miss_rate" (Float.equal reference.l1d_miss_rate o.l1d_miss_rate)
  |> check "l2_nj" (Float.equal reference.l2_nj o.l2_nj)
  |> check "l1d_nj" (Float.equal reference.l1d_nj o.l1d_nj)
  |> check "cycles" (Float.equal reference.cycles o.cycles)
  |> check "instrs" (reference.instrs = o.instrs)

(* A sampled run splices timing, so only its architectural outputs must equal
   full simulation: the instructions retired and the hotspot census. *)
let architectural_mismatches ~reference o =
  (if reference.instrs = o.instrs then [] else [ "instrs" ])
  @ if reference.hotspots = o.hotspots then [] else [ "hotspots" ]

let digest o =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf "%d %h %h %h %h %h %d %s %s" o.instrs o.cycles o.l1d_nj o.l2_nj
    o.l1d_miss_rate o.l2_miss_rate o.hotspots (ints o.tunings)
    (ints o.reconfigs)
  |> Digest.string |> Digest.to_hex
  |> fun h -> String.sub h 0 16
