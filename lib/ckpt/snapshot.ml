module Codec = Ace_util.Codec
module Crc32 = Ace_util.Crc32
module Io = Ace_util.Io
module Stats = Ace_util.Stats
module Engine = Ace_vm.Engine
module Tuner = Ace_core.Tuner
module Framework = Ace_core.Framework
module Bbv_scheme = Ace_bbv.Scheme
module Faults = Ace_faults.Faults
module Obs = Ace_obs.Obs
module Sample = Ace_sample.Sample
open Codec

type error =
  | Truncated of { expected : int; got : int }
  | Bad_magic
  | Version_skew of { found : int; expected : int }
  | Crc_mismatch of { stored : int; computed : int }
  | Malformed of string
  | Unreadable of string

exception Error of error

let error_to_string = function
  | Truncated { expected; got } ->
      Printf.sprintf "truncated snapshot: need %d bytes, have %d" expected got
  | Bad_magic -> "bad magic"
  | Version_skew { found; expected } ->
      Printf.sprintf "snapshot version %d, expected %d" found expected
  | Crc_mismatch { stored; computed } ->
      Printf.sprintf "CRC mismatch: stored %08x, computed %08x" stored computed
  | Malformed msg -> "malformed snapshot: " ^ msg
  | Unreadable msg -> "cannot read snapshot: " ^ msg

type scheme = Baseline | Hotspot | Bbv

type meta = {
  workload : string;
  scheme : scheme;
  scale : float;
  seed : int;
  hot_threshold : int;
  with_issue_queue : bool;
  bbv_prediction : bool;
  resilient : bool;
  fault_rate : float option;
  checkpoint_every : int;
  sample : Sample.config option;
}

type scheme_state =
  | S_baseline
  | S_hotspot of Framework.state
  | S_bbv of Bbv_scheme.state

type t = {
  meta : meta;
  engine : Engine.state;
  faults : Faults.state option;
  scheme_state : scheme_state;
  obs : Obs.state option;
  sample_state : Sample.state option;
}

(* {2 Payload codecs}

   Each state type is described once, as a [Codec.t] whose field order is
   the byte layout, so an encoder and its decoder cannot disagree.  Changing
   any of these (or the state types they describe) requires bumping
   {!version} below and regenerating the test fixtures. *)

let running =
  let open Stats.Running in
  let+ s_n = field int (fun s -> s.s_n)
  and+ s_mean = field float (fun s -> s.s_mean)
  and+ s_m2 = field float (fun s -> s.s_m2)
  and+ s_last = field float (fun s -> s.s_last) in
  { s_n; s_mean; s_m2; s_last }

let ema =
  let open Stats.Ema in
  let+ s_value = field float (fun s -> s.s_value)
  and+ s_seeded = field bool (fun s -> s.s_seeded) in
  { s_value; s_seeded }

let cursor =
  let open Ace_isa.Pattern in
  let+ s_offset = field int (fun s -> s.s_offset)
  and+ s_steps = field int (fun s -> s.s_steps) in
  { s_offset; s_steps }

let cache =
  let open Ace_mem.Cache in
  let+ s_size_bytes = field int (fun s -> s.s_size_bytes)
  and+ s_tags = field (array int) (fun s -> s.s_tags)
  and+ s_dirty = field (array bool) (fun s -> s.s_dirty)
  and+ s_stamp = field (array int) (fun s -> s.s_stamp)
  and+ s_clock = field int (fun s -> s.s_clock)
  and+ s_last_victim = field int (fun s -> s.s_last_victim)
  and+ s_accesses = field int (fun s -> s.s_accesses)
  and+ s_hits = field int (fun s -> s.s_hits)
  and+ s_writebacks = field int (fun s -> s.s_writebacks)
  and+ s_flush_writebacks = field int (fun s -> s.s_flush_writebacks)
  and+ s_resizes = field int (fun s -> s.s_resizes) in
  { s_size_bytes; s_tags; s_dirty; s_stamp; s_clock; s_last_victim; s_accesses; s_hits;
    s_writebacks; s_flush_writebacks; s_resizes }

let tlb =
  let open Ace_mem.Tlb in
  let+ s_resident = field (array int) (fun s -> s.s_resident)
  and+ s_fifo = field (array int) (fun s -> s.s_fifo)
  and+ s_head = field int (fun s -> s.s_head)
  and+ s_filled = field int (fun s -> s.s_filled)
  and+ s_accesses = field int (fun s -> s.s_accesses)
  and+ s_misses = field int (fun s -> s.s_misses) in
  { s_resident; s_fifo; s_head; s_filled; s_accesses; s_misses }

let hier =
  let open Ace_mem.Hierarchy in
  let+ s_l1i = field cache (fun s -> s.s_l1i)
  and+ s_l1d = field cache (fun s -> s.s_l1d)
  and+ s_l2 = field cache (fun s -> s.s_l2)
  and+ s_dtlb = field tlb (fun s -> s.s_dtlb)
  and+ s_mem_reads = field int (fun s -> s.s_mem_reads)
  and+ s_mem_writebacks = field int (fun s -> s.s_mem_writebacks) in
  { s_l1i; s_l1d; s_l2; s_dtlb; s_mem_reads; s_mem_writebacks }

let hier_counts =
  let open Ace_mem.Hierarchy in
  let+ c_l1i_accesses = field int (fun c -> c.c_l1i_accesses)
  and+ c_l1i_hits = field int (fun c -> c.c_l1i_hits)
  and+ c_l1i_writebacks = field int (fun c -> c.c_l1i_writebacks)
  and+ c_l1d_accesses = field int (fun c -> c.c_l1d_accesses)
  and+ c_l1d_hits = field int (fun c -> c.c_l1d_hits)
  and+ c_l1d_writebacks = field int (fun c -> c.c_l1d_writebacks)
  and+ c_l2_accesses = field int (fun c -> c.c_l2_accesses)
  and+ c_l2_hits = field int (fun c -> c.c_l2_hits)
  and+ c_l2_writebacks = field int (fun c -> c.c_l2_writebacks)
  and+ c_tlb_accesses = field int (fun c -> c.c_tlb_accesses)
  and+ c_tlb_misses = field int (fun c -> c.c_tlb_misses)
  and+ c_mem_reads = field int (fun c -> c.c_mem_reads)
  and+ c_mem_writebacks = field int (fun c -> c.c_mem_writebacks) in
  { c_l1i_accesses; c_l1i_hits; c_l1i_writebacks; c_l1d_accesses; c_l1d_hits;
    c_l1d_writebacks; c_l2_accesses; c_l2_hits; c_l2_writebacks; c_tlb_accesses;
    c_tlb_misses; c_mem_reads; c_mem_writebacks }

let db_entry =
  let open Ace_vm.Do_database in
  let+ s_invocations = field int (fun s -> s.s_invocations)
  and+ s_samples = field int (fun s -> s.s_samples)
  and+ s_compile_state =
    field (enum "compile_state" [ Baseline; Optimized ]) (fun s -> s.s_compile_state)
  and+ s_is_hotspot = field bool (fun s -> s.s_is_hotspot)
  and+ s_promoted_at_instr = field int (fun s -> s.s_promoted_at_instr)
  and+ s_pre_promotion_instrs = field int (fun s -> s.s_pre_promotion_instrs)
  and+ s_size_ema = field ema (fun s -> s.s_size_ema)
  and+ s_ipc_profile = field running (fun s -> s.s_ipc_profile)
  and+ s_entry_overhead = field int (fun s -> s.s_entry_overhead)
  and+ s_exit_overhead = field int (fun s -> s.s_exit_overhead) in
  { s_invocations; s_samples; s_compile_state; s_is_hotspot; s_promoted_at_instr;
    s_pre_promotion_instrs; s_size_ema; s_ipc_profile; s_entry_overhead;
    s_exit_overhead }

let frame =
  let open Engine in
  let+ fs_meth = field int (fun s -> s.fs_meth)
  and+ fs_quality = field float (fun s -> s.fs_quality)
  and+ fs_was_hotspot = field bool (fun s -> s.fs_was_hotspot)
  and+ fs_saved_meth = field int (fun s -> s.fs_saved_meth)
  and+ fs_instrs0 = field int (fun s -> s.fs_instrs0)
  and+ fs_cycles0 = field float (fun s -> s.fs_cycles0)
  and+ fs_l1a0 = field int (fun s -> s.fs_l1a0)
  and+ fs_l1m0 = field int (fun s -> s.fs_l1m0)
  and+ fs_l2a0 = field int (fun s -> s.fs_l2a0)
  and+ fs_l2m0 = field int (fun s -> s.fs_l2m0)
  and+ fs_sample = field int (fun s -> s.fs_sample)
  and+ fs_pos = field int (fun s -> s.fs_pos)
  and+ fs_calls_left = field int (fun s -> s.fs_calls_left) in
  { fs_meth; fs_quality; fs_was_hotspot; fs_saved_meth; fs_instrs0; fs_cycles0; fs_l1a0;
    fs_l1m0; fs_l2a0; fs_l2m0; fs_sample; fs_pos; fs_calls_left }

let ff_run =
  let open Engine in
  let+ ffs_instrs = field int (fun s -> s.ffs_instrs)
  and+ ffs_cycles = field float (fun s -> s.ffs_cycles)
  and+ ffs_counts = field hier_counts (fun s -> s.ffs_counts)
  and+ ffs_start_cycles = field float (fun s -> s.ffs_start_cycles) in
  { ffs_instrs; ffs_cycles; ffs_counts; ffs_start_cycles }

let engine =
  let open Engine in
  let+ s_instrs = field int (fun s -> s.s_instrs)
  and+ s_cycles = field float (fun s -> s.s_cycles)
  and+ s_overhead_instrs = field int (fun s -> s.s_overhead_instrs)
  and+ s_hot_instrs = field int (fun s -> s.s_hot_instrs)
  and+ s_next_sample_at = field float (fun s -> s.s_next_sample_at)
  and+ s_next_interval_at = field int (fun s -> s.s_next_interval_at)
  and+ s_current_meth = field int (fun s -> s.s_current_meth)
  and+ s_hotspot_depth = field int (fun s -> s.s_hotspot_depth)
  and+ s_ilp_scale = field float (fun s -> s.s_ilp_scale)
  and+ s_exposure_scale = field float (fun s -> s.s_exposure_scale)
  and+ s_stack = field (array frame) (fun s -> s.s_stack)
  and+ s_rng = field int64 (fun s -> s.s_rng)
  and+ s_cursors = field (array cursor) (fun s -> s.s_cursors)
  and+ s_db = field (array db_entry) (fun s -> s.s_db)
  and+ s_hier = field hier (fun s -> s.s_hier)
  and+ s_ff = field (option ff_run) (fun s -> s.s_ff) in
  { s_instrs; s_cycles; s_overhead_instrs; s_hot_instrs; s_next_sample_at;
    s_next_interval_at; s_current_meth; s_hotspot_depth; s_ilp_scale; s_exposure_scale;
    s_stack; s_rng; s_cursors; s_db; s_hier; s_ff }

let latch =
  let open Faults in
  let+ ls_cu = field string (fun l -> l.ls_cu)
  and+ ls_until = field (option int) (fun l -> l.ls_until) in
  { ls_cu; ls_until }

let faults =
  let open Faults in
  let+ s_rng = field int64 (fun s -> s.s_rng)
  and+ s_ckpt_rng = field int64 (fun s -> s.s_ckpt_rng)
  and+ s_latched = field (array latch) (fun s -> s.s_latched)
  and+ s_writes_dropped = field int (fun s -> s.s_writes_dropped)
  and+ s_writes_corrupted = field int (fun s -> s.s_writes_corrupted)
  and+ s_stuck_events = field int (fun s -> s.s_stuck_events)
  and+ s_spikes = field int (fun s -> s.s_spikes)
  and+ s_jittered_ticks = field int (fun s -> s.s_jittered_ticks)
  and+ s_snapshots_corrupted = field int (fun s -> s.s_snapshots_corrupted) in
  { s_rng; s_ckpt_rng; s_latched; s_writes_dropped; s_writes_corrupted; s_stuck_events;
    s_spikes; s_jittered_ticks; s_snapshots_corrupted }

let cu =
  let open Ace_core.Cu in
  let+ s_current = field int (fun s -> s.s_current)
  and+ s_last_reconfig_instr = field int (fun s -> s.s_last_reconfig_instr)
  and+ s_applied = field int (fun s -> s.s_applied)
  and+ s_denied = field int (fun s -> s.s_denied)
  and+ s_invalid = field int (fun s -> s.s_invalid) in
  { s_current; s_last_reconfig_instr; s_applied; s_denied; s_invalid }

let acct =
  let open Ace_power.Accounting in
  let+ s_size = field int (fun s -> s.s_size)
  and+ s_epoch_accesses = field int (fun s -> s.s_epoch_accesses)
  and+ s_epoch_cycles = field float (fun s -> s.s_epoch_cycles)
  and+ s_dynamic_nj = field float (fun s -> s.s_dynamic_nj)
  and+ s_leakage_nj = field float (fun s -> s.s_leakage_nj)
  and+ s_reconfig_nj = field float (fun s -> s.s_reconfig_nj)
  and+ s_reconfigs = field int (fun s -> s.s_reconfigs)
  and+ s_weighted_size_cycles = field float (fun s -> s.s_weighted_size_cycles)
  and+ s_closed_cycles = field float (fun s -> s.s_closed_cycles) in
  { s_size; s_epoch_accesses; s_epoch_cycles; s_dynamic_nj; s_leakage_nj; s_reconfig_nj;
    s_reconfigs; s_weighted_size_cycles; s_closed_cycles }

let tuner_measurement =
  let open Tuner in
  let+ ms_config = field (array int) (fun m -> m.ms_config)
  and+ ms_energy = field float (fun m -> m.ms_energy)
  and+ ms_ipc = field float (fun m -> m.ms_ipc) in
  { ms_config; ms_energy; ms_ipc }

let tuning =
  let open Tuner in
  let+ ts_next = field int (fun s -> s.ts_next)
  and+ ts_pending = field bool (fun s -> s.ts_pending)
  and+ ts_measurements = field (list tuner_measurement) (fun s -> s.ts_measurements)
  and+ ts_acc_energy = field float (fun s -> s.ts_acc_energy)
  and+ ts_acc_ipc = field float (fun s -> s.ts_acc_ipc)
  and+ ts_acc_n = field int (fun s -> s.ts_acc_n)
  and+ ts_acc_samples = field (list (pair float float)) (fun s -> s.ts_acc_samples)
  and+ ts_warmup_left = field int (fun s -> s.ts_warmup_left)
  and+ ts_attempts = field int (fun s -> s.ts_attempts)
  and+ ts_backoff_left = field int (fun s -> s.ts_backoff_left)
  and+ ts_degrade_flagged = field bool (fun s -> s.ts_degrade_flagged) in
  { ts_next; ts_pending; ts_measurements; ts_acc_energy; ts_acc_ipc; ts_acc_n;
    ts_acc_samples; ts_warmup_left; ts_attempts; ts_backoff_left; ts_degrade_flagged }

let tuner_phase =
  let open Tuner in
  let s_tuning = case 0 tuning (fun ts -> S_tuning ts)
  and s_configured =
    case 1
      (pair (array int) (pair float (triple int bool bool)))
      (fun (cs_best, (cs_ref_ipc, (cs_exits, cs_sampling, cs_confirming))) ->
        S_configured { cs_best; cs_ref_ipc; cs_exits; cs_sampling; cs_confirming })
  and s_quarantined = case 2 (array int) (fun qs_best -> S_quarantined { qs_best }) in
  variant "tuner phase"
    [ Case s_tuning; Case s_configured; Case s_quarantined ]
    (fun w -> function
      | S_tuning ts -> write w s_tuning ts
      | S_configured { cs_best; cs_ref_ipc; cs_exits; cs_sampling; cs_confirming } ->
          write w s_configured
            (cs_best, (cs_ref_ipc, (cs_exits, cs_sampling, cs_confirming)))
      | S_quarantined { qs_best } -> write w s_quarantined qs_best)

let tuner =
  let open Tuner in
  let+ s_phase = field tuner_phase (fun s -> s.s_phase)
  and+ s_rounds = field int (fun s -> s.s_rounds)
  and+ s_tested_last_round = field int (fun s -> s.s_tested_last_round)
  and+ s_total_exits = field int (fun s -> s.s_total_exits)
  and+ s_retune_exits = field (list int) (fun s -> s.s_retune_exits)
  and+ s_retries = field int (fun s -> s.s_retries)
  and+ s_backoff_skips = field int (fun s -> s.s_backoff_skips)
  and+ s_skipped_configs = field int (fun s -> s.s_skipped_configs)
  and+ s_verify_failures = field int (fun s -> s.s_verify_failures) in
  { s_phase; s_rounds; s_tested_last_round; s_total_exits; s_retune_exits; s_retries;
    s_backoff_skips; s_skipped_configs; s_verify_failures }

let hotspot =
  let open Framework in
  let+ hs_tuner = field tuner (fun hs -> hs.hs_tuner)
  and+ hs_managed = field (array int) (fun hs -> hs.hs_managed)
  and+ hs_ever_configured = field bool (fun hs -> hs.hs_ever_configured)
  and+ hs_last_invoked = field int (fun hs -> hs.hs_last_invoked) in
  { hs_tuner; hs_managed; hs_ever_configured; hs_last_invoked }

let framework =
  let open Framework in
  let+ s_states = field (array (option hotspot)) (fun s -> s.s_states)
  and+ s_accts = field (array (option acct)) (fun s -> s.s_accts)
  and+ s_cus = field (array cu) (fun s -> s.s_cus)
  and+ s_class_depth = field (array int) (fun s -> s.s_class_depth)
  and+ s_class_start = field (array int) (fun s -> s.s_class_start)
  and+ s_covered = field (array int) (fun s -> s.s_covered)
  and+ s_tunings = field (array int) (fun s -> s.s_tunings)
  and+ s_reconfigs = field (array int) (fun s -> s.s_reconfigs)
  and+ s_class_hotspots = field (array int) (fun s -> s.s_class_hotspots)
  and+ s_tuned_hotspots = field (array int) (fun s -> s.s_tuned_hotspots)
  and+ s_retunes = field (array int) (fun s -> s.s_retunes)
  and+ s_predicted = field (array int) (fun s -> s.s_predicted)
  and+ s_believed = field (array int) (fun s -> s.s_believed)
  and+ s_mis_since = field (array int) (fun s -> s.s_mis_since)
  and+ s_misconfig = field (array int) (fun s -> s.s_misconfig)
  and+ s_verify_failures = field (array int) (fun s -> s.s_verify_failures)
  and+ s_consec_badwrites = field (array int) (fun s -> s.s_consec_badwrites)
  and+ s_failed = field (array bool) (fun s -> s.s_failed)
  and+ s_probe_countdown = field (array int) (fun s -> s.s_probe_countdown)
  and+ s_recoveries = field (array int) (fun s -> s.s_recoveries)
  and+ s_quarantined = field int (fun s -> s.s_quarantined)
  and+ s_frame_masks = field (list int) (fun s -> s.s_frame_masks)
  and+ s_invoke_tick = field int (fun s -> s.s_invoke_tick)
  and+ s_unmanaged = field int (fun s -> s.s_unmanaged)
  and+ s_finalized = field bool (fun s -> s.s_finalized) in
  { s_states; s_accts; s_cus; s_class_depth; s_class_start; s_covered; s_tunings;
    s_reconfigs; s_class_hotspots; s_tuned_hotspots; s_retunes; s_predicted; s_believed;
    s_mis_since; s_misconfig; s_verify_failures; s_consec_badwrites; s_failed;
    s_probe_countdown; s_recoveries; s_quarantined; s_frame_masks; s_invoke_tick;
    s_unmanaged; s_finalized }

let bbv_measurement =
  let open Bbv_scheme in
  let+ ms_config = field (array int) (fun m -> m.ms_config)
  and+ ms_energy = field float (fun m -> m.ms_energy)
  and+ ms_ipc = field float (fun m -> m.ms_ipc) in
  { ms_config; ms_energy; ms_ipc }

let bbv_vector =
  let open Ace_bbv.Vector in
  let+ s_counters = field (array int) (fun s -> s.s_counters)
  and+ s_total = field int (fun s -> s.s_total) in
  { s_counters; s_total }

let bbv_tracker =
  let open Ace_bbv.Tracker in
  let+ s_signatures = field (array (array float)) (fun s -> s.s_signatures)
  and+ s_counts = field (array int) (fun s -> s.s_counts)
  and+ s_n_intervals = field int (fun s -> s.s_n_intervals)
  and+ s_n_stable = field int (fun s -> s.s_n_stable)
  and+ s_cur_phase = field int (fun s -> s.s_cur_phase)
  and+ s_cur_run = field int (fun s -> s.s_cur_run) in
  { s_signatures; s_counts; s_n_intervals; s_n_stable; s_cur_phase; s_cur_run }

let bbv_phase =
  let open Bbv_scheme in
  let+ ps_next = field int (fun ps -> ps.ps_next)
  and+ ps_measurements = field (list bbv_measurement) (fun ps -> ps.ps_measurements)
  and+ ps_best = field (option (array int)) (fun ps -> ps.ps_best)
  and+ ps_ipc_stats = field running (fun ps -> ps.ps_ipc_stats) in
  { ps_next; ps_measurements; ps_best; ps_ipc_stats }

let bbv_predictor =
  let open Ace_bbv.Next_phase in
  let+ s_transitions =
    field (array (pair int (array (pair int int)))) (fun p -> p.s_transitions)
  and+ s_n_predictions = field int (fun p -> p.s_n_predictions)
  and+ s_n_correct = field int (fun p -> p.s_n_correct) in
  { s_transitions; s_n_predictions; s_n_correct }

let bbv =
  let open Bbv_scheme in
  let+ s_vector = field bbv_vector (fun s -> s.s_vector)
  and+ s_tracker = field bbv_tracker (fun s -> s.s_tracker)
  and+ s_phases = field (array bbv_phase) (fun s -> s.s_phases)
  and+ s_accts = field (array (option acct)) (fun s -> s.s_accts)
  and+ s_cus = field (array cu) (fun s -> s.s_cus)
  and+ s_pending =
    field (option (triple int int (enum "pending stage" [ `Warm; `Measure ])))
      (fun s -> s.s_pending)
  and+ s_instrs0 = field int (fun s -> s.s_instrs0)
  and+ s_cycles0 = field float (fun s -> s.s_cycles0)
  and+ s_l1a0 = field int (fun s -> s.s_l1a0)
  and+ s_l1m0 = field int (fun s -> s.s_l1m0)
  and+ s_l2a0 = field int (fun s -> s.s_l2a0)
  and+ s_l2m0 = field int (fun s -> s.s_l2m0)
  and+ s_predictor = field bbv_predictor (fun s -> s.s_predictor)
  and+ s_prev_phase = field int (fun s -> s.s_prev_phase)
  and+ s_pending_prediction = field (option int) (fun s -> s.s_pending_prediction)
  and+ s_n_tunings = field int (fun s -> s.s_n_tunings)
  and+ s_reconfigs = field (array int) (fun s -> s.s_reconfigs)
  and+ s_finalized = field bool (fun s -> s.s_finalized) in
  { s_vector; s_tracker; s_phases; s_accts; s_cus; s_pending; s_instrs0; s_cycles0;
    s_l1a0; s_l1m0; s_l2a0; s_l2m0; s_predictor; s_prev_phase; s_pending_prediction;
    s_n_tunings; s_reconfigs; s_finalized }

let sample_config =
  let open Sample in
  let+ warmup = field int (fun c -> c.warmup)
  and+ repeats = field int (fun c -> c.repeats)
  and+ cov_bound = field float (fun c -> c.cov_bound)
  and+ recalibrate_every = field int (fun c -> c.recalibrate_every) in
  { warmup; repeats; cov_bound; recalibrate_every }

let meta =
  let+ workload = field string (fun m -> m.workload)
  and+ scheme = field (enum "scheme" [ Baseline; Hotspot; Bbv ]) (fun m -> m.scheme)
  and+ scale = field float (fun m -> m.scale)
  and+ seed = field int (fun m -> m.seed)
  and+ hot_threshold = field int (fun m -> m.hot_threshold)
  and+ with_issue_queue = field bool (fun m -> m.with_issue_queue)
  and+ bbv_prediction = field bool (fun m -> m.bbv_prediction)
  and+ resilient = field bool (fun m -> m.resilient)
  and+ fault_rate = field (option float) (fun m -> m.fault_rate)
  and+ checkpoint_every = field int (fun m -> m.checkpoint_every)
  and+ sample = field (option sample_config) (fun m -> m.sample) in
  { workload; scheme; scale; seed; hot_threshold; with_issue_queue; bbv_prediction;
    resilient; fault_rate; checkpoint_every; sample }

let obs_kind =
  let open Obs in
  let phase_enter = case 0 (pair int string) (fun (id, name) -> Phase_enter { id; name })
  and phase_exit = case 1 (pair int float) (fun (id, ipc) -> Phase_exit { id; ipc })
  and promoted =
    case 2 (pair int string) (fun (id, name) -> Hotspot_promoted { id; name })
  and recompile = case 3 int (fun id -> Recompile { id })
  and trial_start = case 4 (pair int string) (fun (id, cfg) -> Trial_start { id; cfg })
  and trial_result =
    case 5
      (pair (pair int string) (pair float float))
      (fun ((id, cfg), (energy, ipc)) -> Trial_result { id; cfg; energy; ipc })
  and burn_in = case 6 (pair int int) (fun (id, left) -> Burn_in { id; left })
  and finished =
    case 7 (triple int string int) (fun (id, best, tested) ->
        Tuning_finished { id; best; tested })
  and drift_sample =
    case 8 (triple int float float) (fun (id, ipc, ref_ipc) ->
        Drift_sample { id; ipc; ref_ipc })
  and retune = case 9 (pair int float) (fun (id, drift) -> Retune { id; drift })
  and quarantine = case 10 int (fun id -> Quarantine { id })
  and cu_failed = case 11 string (fun cu -> Cu_failed { cu })
  and cu_recovered = case 12 string (fun cu -> Cu_recovered { cu })
  and reconfig =
    case 13 (triple string string int) (fun (cu, label, flushed) ->
        Reconfig { cu; label; flushed })
  and fault = case 14 (pair string string) (fun (cu, what) -> Fault { cu; what })
  and ckpt_capture = case 15 int (fun bytes -> Ckpt_capture { bytes })
  and ckpt_restore = case 16 int (fun instrs -> Ckpt_restore { instrs })
  and job_state = case 17 (pair int string) (fun (id, state) -> Job_state { id; state })
  and io_fault = case 18 (pair string string) (fun (op, path) -> Io_fault { op; path })
  and splice = case 19 (pair int int) (fun (id, instrs) -> Phase_splice { id; instrs })
  in
  variant "obs event"
    [
      Case phase_enter; Case phase_exit; Case promoted; Case recompile; Case trial_start;
      Case trial_result; Case burn_in; Case finished; Case drift_sample; Case retune;
      Case quarantine; Case cu_failed; Case cu_recovered; Case reconfig; Case fault;
      Case ckpt_capture; Case ckpt_restore; Case job_state; Case io_fault; Case splice;
    ]
    (fun w -> function
      | Phase_enter { id; name } -> write w phase_enter (id, name)
      | Phase_exit { id; ipc } -> write w phase_exit (id, ipc)
      | Hotspot_promoted { id; name } -> write w promoted (id, name)
      | Recompile { id } -> write w recompile id
      | Trial_start { id; cfg } -> write w trial_start (id, cfg)
      | Trial_result { id; cfg; energy; ipc } ->
          write w trial_result ((id, cfg), (energy, ipc))
      | Burn_in { id; left } -> write w burn_in (id, left)
      | Tuning_finished { id; best; tested } -> write w finished (id, best, tested)
      | Drift_sample { id; ipc; ref_ipc } -> write w drift_sample (id, ipc, ref_ipc)
      | Retune { id; drift } -> write w retune (id, drift)
      | Quarantine { id } -> write w quarantine id
      | Cu_failed { cu } -> write w cu_failed cu
      | Cu_recovered { cu } -> write w cu_recovered cu
      | Reconfig { cu; label; flushed } -> write w reconfig (cu, label, flushed)
      | Fault { cu; what } -> write w fault (cu, what)
      | Ckpt_capture { bytes } -> write w ckpt_capture bytes
      | Ckpt_restore { instrs } -> write w ckpt_restore instrs
      | Job_state { id; state } -> write w job_state (id, state)
      | Io_fault { op; path } -> write w io_fault (op, path)
      | Phase_splice { id; instrs } -> write w splice (id, instrs))

let obs_event =
  let open Obs in
  let+ ts = field int (fun ev -> ev.ts)
  and+ kind = field obs_kind (fun ev -> ev.kind) in
  { ts; kind }

let obs_hist =
  let+ name = field string (fun (n, _, _, _, _) -> n)
  and+ bounds = field (array float) (fun (_, b, _, _, _) -> b)
  and+ counts = field (array int) (fun (_, _, c, _, _) -> c)
  and+ total = field int (fun (_, _, _, t, _) -> t)
  and+ sum = field float (fun (_, _, _, _, s) -> s) in
  (name, bounds, counts, total, sum)

let obs_metrics =
  let open Obs in
  let+ ms_counters = field (array (pair string int)) (fun m -> m.ms_counters)
  and+ ms_gauges = field (array (pair string float)) (fun m -> m.ms_gauges)
  and+ ms_hists = field (array obs_hist) (fun m -> m.ms_hists) in
  { ms_counters; ms_gauges; ms_hists }

let obs =
  let open Obs in
  let+ s_metrics = field obs_metrics (fun s -> s.s_metrics)
  and+ s_events = field (array obs_event) (fun s -> s.s_events)
  and+ s_dropped = field int (fun s -> s.s_dropped) in
  { s_metrics; s_events; s_dropped }

let sample_key =
  let open Sample in
  let meth = case 0 int (fun m -> K_meth m)
  and cluster = case 1 int (fun c -> K_cluster c) in
  variant "sample key" [ Case meth; Case cluster ] (fun w -> function
    | K_meth m -> write w meth m
    | K_cluster c -> write w cluster c)

let hw_sig =
  let open Sample in
  let+ hs_l1d_bytes = field int (fun s -> s.hs_l1d_bytes)
  and+ hs_l2_bytes = field int (fun s -> s.hs_l2_bytes)
  and+ hs_ilp_bits = field int64 (fun s -> s.hs_ilp_bits)
  and+ hs_exposure_bits = field int64 (fun s -> s.hs_exposure_bits) in
  { hs_l1d_bytes; hs_l2_bytes; hs_ilp_bits; hs_exposure_bits }

let phase_entry =
  let open Sample in
  let+ pe_key = field sample_key (fun pe -> pe.pe_key)
  and+ pe_sig = field hw_sig (fun pe -> pe.pe_sig)
  and+ pe_instrs = field int (fun pe -> pe.pe_instrs)
  and+ pe_seen = field int (fun pe -> pe.pe_seen)
  and+ pe_cpi_sum = field float (fun pe -> pe.pe_cpi_sum)
  and+ pe_cpi_sumsq = field float (fun pe -> pe.pe_cpi_sumsq)
  and+ pe_counts = field hier_counts (fun pe -> pe.pe_counts)
  and+ pe_counts_instrs = field int (fun pe -> pe.pe_counts_instrs)
  and+ pe_poisoned = field bool (fun pe -> pe.pe_poisoned)
  and+ pe_since_measure = field int (fun pe -> pe.pe_since_measure) in
  { pe_key; pe_sig; pe_instrs; pe_seen; pe_cpi_sum; pe_cpi_sumsq; pe_counts;
    pe_counts_instrs; pe_poisoned; pe_since_measure }

let obs_frame =
  let open Sample in
  let+ os_meth = field int (fun os -> os.os_meth)
  and+ os_key = field sample_key (fun os -> os.os_key)
  and+ os_sig = field hw_sig (fun os -> os.os_sig)
  and+ os_instrs0 = field int (fun os -> os.os_instrs0)
  and+ os_cycles0 = field float (fun os -> os.os_cycles0)
  and+ os_counts0 = field hier_counts (fun os -> os.os_counts0)
  and+ os_resizes0 = field int (fun os -> os.os_resizes0)
  and+ os_dirty = field bool (fun os -> os.os_dirty) in
  { os_meth; os_key; os_sig; os_instrs0; os_cycles0; os_counts0; os_resizes0; os_dirty }

let sample_state =
  let open Sample in
  let+ s_entries = field (array phase_entry) (fun s -> s.s_entries)
  and+ s_meth_instrs = field (array (pair int int)) (fun s -> s.s_meth_instrs)
  and+ s_cluster_of_meth = field (array (pair int int)) (fun s -> s.s_cluster_of_meth)
  and+ s_open = field (array obs_frame) (fun s -> s.s_open)
  and+ s_fault_events0 = field int (fun s -> s.s_fault_events0)
  and+ s_ff_instrs_active = field int (fun s -> s.s_ff_instrs_active)
  and+ s_observations = field int (fun s -> s.s_observations)
  and+ s_splices = field int (fun s -> s.s_splices)
  and+ s_spliced_instrs = field int (fun s -> s.s_spliced_instrs)
  and+ s_blocked_quiescence = field int (fun s -> s.s_blocked_quiescence)
  and+ s_blocked_unsettled = field int (fun s -> s.s_blocked_unsettled)
  and+ s_blocked_open_obs = field int (fun s -> s.s_blocked_open_obs)
  and+ s_blocked_poisoned = field int (fun s -> s.s_blocked_poisoned) in
  { s_entries; s_meth_instrs; s_cluster_of_meth; s_open; s_fault_events0;
    s_ff_instrs_active; s_observations; s_splices; s_spliced_instrs;
    s_blocked_quiescence; s_blocked_unsettled; s_blocked_open_obs; s_blocked_poisoned }

let scheme_state =
  let s_baseline = case 0 unit (fun () -> S_baseline)
  and s_hotspot = case 1 framework (fun fw -> S_hotspot fw)
  and s_bbv = case 2 bbv (fun sch -> S_bbv sch) in
  variant "scheme state"
    [ Case s_baseline; Case s_hotspot; Case s_bbv ]
    (fun w -> function
      | S_baseline -> write w s_baseline ()
      | S_hotspot fw -> write w s_hotspot fw
      | S_bbv sch -> write w s_bbv sch)

let snapshot =
  let+ meta = field meta (fun t -> t.meta)
  and+ engine = field engine (fun t -> t.engine)
  and+ faults = field (option faults) (fun t -> t.faults)
  and+ scheme_state = field scheme_state (fun t -> t.scheme_state)
  and+ obs = field (option obs) (fun t -> t.obs)
  and+ sample_state = field (option sample_state) (fun t -> t.sample_state) in
  { meta; engine; faults; scheme_state; obs; sample_state }

(* {2 Container format}

   magic "ACESNAP1" (8 bytes) | version u16 LE | payload length i64 LE |
   CRC-32 (IEEE) of the payload, i64 LE | payload bytes.

   The header is fixed-width so a truncated file is detected before any
   payload parsing, and the CRC covers exactly the bytes the decoder will
   read. *)

let magic = "ACESNAP1"
let version = 4
(* v2: observability sink state.
   v3: sampling — meta config, engine ff state, sampler cache.
   v4: cluster-keyed sampler cache — variant keys, CPI statistics,
   per-method instruction lengths, cluster map, blocked counters. *)
let header_len = 8 + 2 + 8 + 8

let encode t =
  let payload = to_string snapshot t in
  let h = Buffer.create header_len in
  Buffer.add_string h magic;
  Buffer.add_uint16_le h version;
  Buffer.add_int64_le h (Int64.of_int (String.length payload));
  Buffer.add_int64_le h (Int64.of_int (Crc32.string payload));
  Buffer.contents h ^ payload

let decode s =
  let fail e = raise (Error e) in
  let len = String.length s in
  if len < header_len then fail (Truncated { expected = header_len; got = len });
  if String.sub s 0 8 <> magic then fail Bad_magic;
  let v = String.get_uint16_le s 8 in
  if v <> version then fail (Version_skew { found = v; expected = version });
  let payload_len = Int64.to_int (String.get_int64_le s 10) in
  if payload_len < 0 then
    fail (Malformed (Printf.sprintf "negative payload length %d" payload_len));
  (* Fewer bytes than declared is the torn-write signature; more bytes is a
     structurally impossible container. *)
  let expected = header_len + payload_len in
  if len < expected then fail (Truncated { expected; got = len });
  if len > expected then
    fail
      (Malformed
         (Printf.sprintf "payload length %d does not match file size %d" payload_len
            len));
  let crc_stored = Int64.to_int (String.get_int64_le s 18) in
  let payload = String.sub s header_len payload_len in
  let crc = Crc32.string payload in
  if crc <> crc_stored then fail (Crc_mismatch { stored = crc_stored; computed = crc });
  try of_string snapshot payload with Codec.Error msg -> fail (Malformed msg)

(* {2 File I/O} *)

let fallback_path path = path ^ ".1"

let write ?(io = Io.real) ?(faults = Faults.none) ?(obs = Obs.null) ~path t =
  let data = Bytes.of_string (encode t) in
  (* Storage-channel fault injection damages the bytes on their way to disk;
     the CRC then refuses them at read time and the reader falls back. *)
  ignore (Faults.maybe_corrupt_snapshot faults data);
  let tmp = path ^ ".tmp" in
  Io.write_file io tmp (Bytes.unsafe_to_string data);
  (* The tmp file must be on stable storage before it takes over the
     primary name: rename-before-fsync can leave [path] pointing at
     unwritten blocks after power loss. *)
  Io.fsync io tmp;
  (* Rotate: the previous snapshot survives as [path.1] so a corrupted or
     torn write of the newest snapshot never strands the run. *)
  if Io.exists io path then Io.rename io path (fallback_path path);
  Io.rename io tmp path;
  (* Ring-only by design: a metered checkpoint event would make a resumed
     run's metrics diverge from the uninterrupted run's.  Recorded after the
     rename, so the snapshot's own ring excludes its own capture. *)
  if Obs.tracing obs then
    Obs.record obs (Obs.Ckpt_capture { bytes = Bytes.length data })

let read ?(io = Io.real) ~path () =
  let data =
    try Io.read_file io path with
    | Sys_error msg -> raise (Error (Unreadable msg))
    | Io.Io_error _ as e ->
        raise (Error (Unreadable (Option.get (Io.error_message e))))
  in
  decode data

let read_with_fallback ?(io = Io.real) ~path () =
  match read ~io ~path () with
  | snap -> Some (snap, `Primary)
  | exception Error _ -> (
      let fb = fallback_path path in
      if not (Io.exists io fb) then None
      else match read ~io ~path:fb () with
        | snap -> Some (snap, `Fallback)
        | exception Error _ -> None)
