type compile_state = Baseline | Optimized

type entry = {
  meth_id : int;
  mutable invocations : int;
  mutable samples : int;
  mutable compile_state : compile_state;
  mutable is_hotspot : bool;
  mutable promoted_at_instr : int;
  mutable pre_promotion_instrs : int;
  size_ema : Ace_util.Stats.Ema.t;
  ipc_profile : Ace_util.Stats.Running.t;
  mutable entry_overhead : int;
  mutable exit_overhead : int;
}

type t = entry array

let create ~methods =
  Array.init methods (fun meth_id ->
      {
        meth_id;
        invocations = 0;
        samples = 0;
        compile_state = Baseline;
        is_hotspot = false;
        promoted_at_instr = -1;
        pre_promotion_instrs = 0;
        size_ema = Ace_util.Stats.Ema.create ~alpha:0.25;
        ipc_profile = Ace_util.Stats.Running.create ();
        entry_overhead = 0;
        exit_overhead = 0;
      })

let entry t id = t.(id)
let size t = Array.length t
let iter t f = Array.iter f t

let set_instrument t id kind =
  let e = t.(id) in
  e.entry_overhead <- Instrument.entry_instrs kind;
  e.exit_overhead <- Instrument.exit_instrs kind

let compile_state_codec = Ace_util.Codec.enum "compile_state" [ Baseline; Optimized ]

let sync io t =
  let open Ace_util.Codec in
  sync_each io
    (fun io e ->
      e.invocations <- sync io int e.invocations;
      e.samples <- sync io int e.samples;
      e.compile_state <- sync io compile_state_codec e.compile_state;
      e.is_hotspot <- sync io bool e.is_hotspot;
      e.promoted_at_instr <- sync io int e.promoted_at_instr;
      e.pre_promotion_instrs <- sync io int e.pre_promotion_instrs;
      Ace_util.Stats.Ema.sync io e.size_ema;
      Ace_util.Stats.Running.sync io e.ipc_profile;
      e.entry_overhead <- sync io int e.entry_overhead;
      e.exit_overhead <- sync io int e.exit_overhead)
    t

let estimated_size e =
  if Ace_util.Stats.Ema.is_empty e.size_ema then 0
  else int_of_float (Ace_util.Stats.Ema.value e.size_ema)

let hotspots t =
  Array.to_list (Array.of_seq (Seq.filter (fun e -> e.is_hotspot) (Array.to_seq t)))

let hotspot_count t =
  Array.fold_left (fun acc e -> if e.is_hotspot then acc + 1 else acc) 0 t

let mean_over_hotspots t f =
  let hs = hotspots t in
  match hs with
  | [] -> 0.0
  | _ ->
      List.fold_left (fun acc e -> acc +. f e) 0.0 hs /. float_of_int (List.length hs)

let mean_hotspot_size t =
  mean_over_hotspots t (fun e -> float_of_int (estimated_size e))

let mean_invocations_per_hotspot t =
  mean_over_hotspots t (fun e -> float_of_int e.invocations)

let identification_latency_instrs t =
  Array.fold_left
    (fun acc e -> if e.is_hotspot then acc + e.pre_promotion_instrs else acc)
    0 t

let inter_hotspot_ipc_cov t =
  let means =
    List.filter_map
      (fun e ->
        if Ace_util.Stats.Running.count e.ipc_profile > 0 then
          Some (Ace_util.Stats.Running.mean e.ipc_profile)
        else None)
      (hotspots t)
  in
  Ace_util.Stats.cov (Array.of_list means)

let mean_per_hotspot_ipc_cov t =
  let covs =
    List.filter_map
      (fun e ->
        if Ace_util.Stats.Running.count e.ipc_profile > 1 then
          Some (Ace_util.Stats.Running.cov e.ipc_profile)
        else None)
      (hotspots t)
  in
  Ace_util.Stats.mean (Array.of_list covs)
