type t = {
  family : Energy_model.family;
  mutable size : int;
  mutable epoch_accesses : int;  (* cumulative counter at epoch start *)
  mutable epoch_cycles : float;
  mutable dynamic_nj : float;
  mutable leakage_nj : float;
  mutable reconfig_nj : float;
  mutable reconfigs : int;
  mutable weighted_size_cycles : float;  (* sum of size * epoch cycles *)
  mutable closed_cycles : float;
}

let create family ~initial_size =
  {
    family;
    size = initial_size;
    epoch_accesses = 0;
    epoch_cycles = 0.0;
    dynamic_nj = 0.0;
    leakage_nj = 0.0;
    reconfig_nj = 0.0;
    reconfigs = 0;
    weighted_size_cycles = 0.0;
    closed_cycles = 0.0;
  }

let close_epoch t ~accesses_now ~cycles_now =
  let d_accesses = accesses_now - t.epoch_accesses in
  let d_cycles = cycles_now -. t.epoch_cycles in
  t.dynamic_nj <-
    t.dynamic_nj
    +. (float_of_int d_accesses
       *. Energy_model.access_energy_nj t.family ~size_bytes:t.size);
  t.leakage_nj <-
    t.leakage_nj
    +. (d_cycles *. Energy_model.leakage_nj_per_cycle t.family ~size_bytes:t.size);
  t.weighted_size_cycles <- t.weighted_size_cycles +. (float_of_int t.size *. d_cycles);
  t.closed_cycles <- t.closed_cycles +. d_cycles;
  t.epoch_accesses <- accesses_now;
  t.epoch_cycles <- cycles_now

let on_reconfig t ~new_size ~accesses_now ~cycles_now ~flushed_lines =
  close_epoch t ~accesses_now ~cycles_now;
  t.reconfig_nj <-
    t.reconfig_nj
    +. (float_of_int flushed_lines *. Energy_model.line_transfer_nj t.family);
  t.reconfigs <- t.reconfigs + 1;
  t.size <- new_size

let finish t ~accesses_now ~cycles_now = close_epoch t ~accesses_now ~cycles_now

let dynamic_nj t = t.dynamic_nj
let leakage_nj t = t.leakage_nj
let reconfig_nj t = t.reconfig_nj
let total_nj t = t.dynamic_nj +. t.leakage_nj +. t.reconfig_nj
let reconfig_count t = t.reconfigs

let time_weighted_avg_bytes t =
  if t.closed_cycles = 0.0 then float_of_int t.size
  else t.weighted_size_cycles /. t.closed_cycles

let sync io t =
  let open Ace_util.Codec in
  t.size <- sync io int t.size;
  t.epoch_accesses <- sync io int t.epoch_accesses;
  t.epoch_cycles <- sync io float t.epoch_cycles;
  t.dynamic_nj <- sync io float t.dynamic_nj;
  t.leakage_nj <- sync io float t.leakage_nj;
  t.reconfig_nj <- sync io float t.reconfig_nj;
  t.reconfigs <- sync io int t.reconfigs;
  t.weighted_size_cycles <- sync io float t.weighted_size_cycles;
  t.closed_cycles <- sync io float t.closed_cycles
