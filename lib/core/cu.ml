module Em = Ace_power.Energy_model
module Engine = Ace_vm.Engine
module Hierarchy = Ace_mem.Hierarchy
module Cache = Ace_mem.Cache

type t = {
  name : string;
  family : Em.family option;
  setting_labels : string array;
  setting_sizes : int array;
  reconfig_interval : int;
  apply : int -> int;
  accesses_now : unit -> int;
  energy_proxy : Ace_vm.Profile.t -> setting:int -> float;
  mutable current : int;
  mutable last_reconfig_instr : int;
  mutable applied_count : int;
  mutable denied_count : int;
  mutable invalid_count : int;
}

let n_settings t = Array.length t.setting_sizes

let current_size t = t.setting_sizes.(t.current)

let kb n = n * 1024

let make ~name ~family ~setting_labels ~setting_sizes ~reconfig_interval ~apply
    ~accesses_now ~energy_proxy =
  {
    name;
    family;
    setting_labels;
    setting_sizes;
    reconfig_interval;
    apply;
    accesses_now;
    energy_proxy;
    current = 0;
    last_reconfig_instr = 0;
    applied_count = 0;
    denied_count = 0;
    invalid_count = 0;
  }

let l1d engine =
  let hier = Engine.hierarchy engine in
  let sizes = [| kb 64; kb 32; kb 16; kb 8 |] in
  make ~name:"L1D" ~family:(Some Em.L1d)
    ~setting_labels:[| "64KB"; "32KB"; "16KB"; "8KB" |]
    ~setting_sizes:sizes ~reconfig_interval:100_000
    ~apply:(fun idx -> Hierarchy.resize_l1d hier ~size_bytes:sizes.(idx))
    ~accesses_now:(fun () -> Cache.Stats.accesses (Hierarchy.l1d hier))
    ~energy_proxy:(fun profile ~setting ->
      Ace_vm.Profile.l1d_energy_nj profile ~size_bytes:sizes.(setting)
        ~leak_cycles:profile.Ace_vm.Profile.cycles)

let l2 engine =
  let hier = Engine.hierarchy engine in
  let sizes = [| kb 1024; kb 512; kb 256; kb 128 |] in
  make ~name:"L2" ~family:(Some Em.L2)
    ~setting_labels:[| "1MB"; "512KB"; "256KB"; "128KB" |]
    ~setting_sizes:sizes ~reconfig_interval:1_000_000
    ~apply:(fun idx -> Hierarchy.resize_l2 hier ~size_bytes:sizes.(idx))
    ~accesses_now:(fun () -> Cache.Stats.accesses (Hierarchy.l2 hier))
    ~energy_proxy:(fun profile ~setting ->
      Ace_vm.Profile.l2_energy_nj profile ~size_bytes:sizes.(setting)
        ~leak_cycles:profile.Ace_vm.Profile.cycles)

let reorder_buffer engine =
  let entries = [| 64; 48; 32; 16 |] in
  let exposure = [| 1.0; 1.06; 1.18; 1.45 |] in
  (* CAM search + payload RAM: per-instruction energy roughly linear in
     entries; anchors 0.10 nJ/instr and 0.008 nJ/cycle leakage at 64. *)
  let access_nj idx = 0.10 *. (float_of_int entries.(idx) /. 64.0) in
  let leak_nj idx = 0.008 *. (float_of_int entries.(idx) /. 64.0) in
  make ~name:"ROB" ~family:None
    ~setting_labels:(Array.map (fun n -> string_of_int n ^ " entries") entries)
    ~setting_sizes:entries ~reconfig_interval:5_000
    ~apply:(fun idx ->
      Engine.set_exposure_scale engine exposure.(idx);
      0)
    ~accesses_now:(fun () -> Engine.instrs engine)
    ~energy_proxy:(fun profile ~setting ->
      (float_of_int profile.Ace_vm.Profile.instrs *. access_nj setting)
      +. (profile.Ace_vm.Profile.cycles *. leak_nj setting))

let issue_queue engine =
  let entries = [| 64; 48; 32; 16 |] in
  let ilp_scales = [| 1.0; 0.97; 0.90; 0.78 |] in
  (* Wakeup/select energy: per-instruction cost grows ~ sqrt(entries);
     leakage linear in entries.  Anchors: 0.08 nJ/instr and 0.005 nJ/cycle
     at 64 entries. *)
  let access_nj idx = 0.08 *. sqrt (float_of_int entries.(idx) /. 64.0) in
  let leak_nj idx = 0.005 *. (float_of_int entries.(idx) /. 64.0) in
  make ~name:"IQ" ~family:None
    ~setting_labels:(Array.map (fun n -> string_of_int n ^ " entries") entries)
    ~setting_sizes:entries ~reconfig_interval:10_000
    ~apply:(fun idx ->
      Engine.set_ilp_scale engine ilp_scales.(idx);
      0)
    ~accesses_now:(fun () -> Engine.instrs engine)
    ~energy_proxy:(fun profile ~setting ->
      (float_of_int profile.Ace_vm.Profile.instrs *. access_nj setting)
      +. (profile.Ace_vm.Profile.cycles *. leak_nj setting))

(* The hardware behind the CU (cache sizes, ILP/exposure scales) is
   checkpointed by [Engine.sync]; only the register/guard state and request
   counters live here, so reading performs no [apply]. *)
let sync io t =
  let open Ace_util.Codec in
  t.current <- sync io int t.current;
  if t.current < 0 || t.current >= n_settings t then
    fail "%s setting index %d out of range" t.name t.current;
  t.last_reconfig_instr <- sync io int t.last_reconfig_instr;
  t.applied_count <- sync io int t.applied_count;
  t.denied_count <- sync io int t.denied_count;
  t.invalid_count <- sync io int t.invalid_count
