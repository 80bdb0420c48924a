type t = {
  instrs : int;
  cycles : float;
  l1d_accesses : int;
  l1d_misses : int;
  l2_accesses : int;
  l2_misses : int;
}

let[@inline] ipc_of ~instrs ~cycles =
  if cycles <= 0.0 then 0.0 else float_of_int instrs /. cycles

let ipc t = ipc_of ~instrs:t.instrs ~cycles:t.cycles

let l1d_energy_nj t ~size_bytes ~leak_cycles =
  (float_of_int t.l1d_accesses
  *. Ace_power.Energy_model.access_energy_nj Ace_power.Energy_model.L1d ~size_bytes)
  +. (leak_cycles
     *. Ace_power.Energy_model.leakage_nj_per_cycle Ace_power.Energy_model.L1d
          ~size_bytes)

let l2_energy_nj t ~size_bytes ~leak_cycles =
  (float_of_int t.l2_accesses
  *. Ace_power.Energy_model.access_energy_nj Ace_power.Energy_model.L2 ~size_bytes)
  +. (leak_cycles
     *. Ace_power.Energy_model.leakage_nj_per_cycle Ace_power.Energy_model.L2
          ~size_bytes)
