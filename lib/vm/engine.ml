module Rng = Ace_util.Rng
module Faults = Ace_faults.Faults
module Program = Ace_isa.Program
module Block = Ace_isa.Block
module Pattern = Ace_isa.Pattern
module Hierarchy = Ace_mem.Hierarchy
module Cache = Ace_mem.Cache
module Obs = Ace_obs.Obs

type config = {
  seed : int;
  hot_threshold : int;
  sample_period_cycles : float;
  sample_opt_threshold : int;
  quality_baseline : float;
  quality_optimized : float;
  compile_instrs_per_code_byte : int;
  interval_instrs : int option;
}

let default_config =
  {
    seed = 42;
    hot_threshold = 32;
    sample_period_cycles = 200_000.0;
    sample_opt_threshold = 2;
    quality_baseline = 0.55;
    quality_optimized = 1.0;
    compile_instrs_per_code_byte = 50;
    interval_instrs = None;
  }

type hooks = {
  mutable on_hotspot_promoted : meth_id:int -> unit;
  mutable on_method_entry : meth_id:int -> unit;
  mutable on_method_exit : meth_id:int -> Profile.t -> unit;
  mutable on_block : pc:int -> instrs:int -> count:int -> unit;
  mutable on_interval : total_instrs:int -> unit;
  mutable on_recompile : meth_id:int -> unit;
  mutable observes_call : meth_id:int -> bool;
}

let no_hooks () =
  {
    on_hotspot_promoted = (fun ~meth_id:_ -> ());
    on_method_entry = (fun ~meth_id:_ -> ());
    on_method_exit = (fun ~meth_id:_ _ -> ());
    on_block = (fun ~pc:_ ~instrs:_ ~count:_ -> ());
    on_interval = (fun ~total_instrs:_ -> ());
    on_recompile = (fun ~meth_id:_ -> ());
    observes_call = (fun ~meth_id:_ -> true);
  }

(* Fast-forward sampling: an external sampler (ace_sample) can intercept
   method entries.  For each candidate invocation it either observes
   (measures the invocation for its phase-statistics cache) or requests a
   fast-forward: the engine then executes the invocation with a
   functional-only model — architectural state (DO DB, pattern cursors, RNG
   stream, instruction counts) advances exactly as a full simulation would,
   but no cache accesses are performed; cycles are paced by the memoized
   per-instruction rate and the hierarchy counters are spliced from the
   memoized record at region end.  See DESIGN.md §Sampled simulation. *)
type ff_request = {
  ff_instrs : int;  (* instructions the region will retire *)
  ff_cycles : float;  (* memoized cycle cost of the region *)
  ff_counts : Hierarchy.counts;  (* memoized hierarchy counter deltas *)
}

type decision = No_sample | Observe | Fast_forward of ff_request

type sample_ctl = {
  sc_decide : meth_id:int -> decision;
  sc_exit : meth_id:int -> ff:bool -> unit;
      (* Region end, fired once per [Observe]/[Fast_forward] decision in
         LIFO order, at the exact point the observed span ends (before the
         exit stub and profile, mirroring where the span began). *)
}

(* An active fast-forward region (the dynamic extent of one
   [Fast_forward] decision). *)
type ff_run = {
  fr_instrs : int;
  fr_cycles : float;
  fr_counts : Hierarchy.counts;
  fr_start_cycles : float;  (* n_cycles when the region began *)
  fr_cpi : float;  (* pacing rate for sampler/interval interleaving *)
}

(* One invocation in flight.  The engine executes with an explicit frame
   stack rather than OCaml recursion so that the complete execution position
   is plain data: a checkpoint taken between any two statements can rebuild
   the stack and continue bit-identically (see DESIGN.md §Checkpointing). *)
type frame = {
  f_meth : int;
  f_quality : float;  (* code quality latched at entry *)
  f_was_hotspot : bool;
  f_saved_meth : int;  (* current_meth to restore at exit *)
  (* Counter snapshots for the invocation profile. *)
  f_instrs0 : int;
  f_cycles0 : float;
  f_l1a0 : int;
  f_l1m0 : int;
  f_l2a0 : int;
  f_l2m0 : int;
  f_sample : int;  (* 0 = plain, 1 = observed, 2 = fast-forward root *)
  mutable f_pos : int;  (* index of the next statement in the body *)
  mutable f_calls_left : int;  (* remaining reps of the Call at f_pos - 1; 0 = none *)
}

type t = {
  cfg : config;
  program : Program.t;
  bodies : Program.stmt array array;  (* per-method body, array-indexed *)
  leaf_instrs : int array;
      (* per method: the program instructions of one invocation if the
         body makes no calls, else -1 *)
  hier : Hierarchy.t;
  timing : Ace_cpu.Timing.t;
  db : Do_database.t;
  hooks : hooks;
  rng : Rng.t;
  faults : Faults.t;
  cursors : Pattern.cursor array;  (* indexed by block id *)
  mutable addr_buf : int array;  (* exec_block batch scratch; not checkpointed *)
  (* counters *)
  mutable n_instrs : int;
  n_cycles : Float.Array.t;
      (* one cell: a float field of this record would be boxed, so every
         update would allocate and pass the write barrier *)
  mutable n_overhead_instrs : int;
  mutable n_hot_instrs : int;
  (* sampler / interval state *)
  mutable next_sample_at : float;
  mutable next_interval_at : int;
  (* execution context *)
  mutable current_meth : int;
  mutable hotspot_depth : int;
  mutable ilp_scale : float;
  mutable exposure_scale : float;
  mutable stack : frame list;  (* innermost invocation first *)
  mutable sample_ctl : sample_ctl option;
  mutable ff : ff_run option;  (* active fast-forward region, if any *)
  mutable ran : bool;
  mutable restored : bool;
  obs : Obs.t;
  tracing : bool;  (* [Obs.tracing obs], fixed for the sink's life *)
  m_entries : Obs.counter;
  m_promotions : Obs.counter;
  m_recompiles : Obs.counter;
  m_samples : Obs.counter;
  m_intervals : Obs.counter;
}

let create ?(config = default_config) ?(faults = Faults.none) ?(obs = Obs.null)
    program =
  (match Program.validate program with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Engine.create: " ^ msg));
  let cursors = Array.make (Program.max_block_id program + 1) (Pattern.cursor (Pattern.Random_in { base = 0; extent = 1 })) in
  Program.iter_blocks program (fun b -> cursors.(b.Block.id) <- Pattern.cursor b.Block.pattern);
  let bodies =
    Array.map (fun m -> Array.of_list m.Program.body) program.Program.methods
  in
  let leaf_instrs =
    Array.map
      (Array.fold_left
         (fun acc st ->
           match st with
           | Program.Exec (b, n) -> if acc < 0 then acc else acc + (b.Block.instrs * n)
           | Program.Call (_, n) -> if n > 0 then -1 else acc)
         0)
      bodies
  in
  let t =
  {
    cfg = config;
    program;
    bodies;
    leaf_instrs;
    hier = Hierarchy.create ~obs ();
    timing = Ace_cpu.Timing.create Ace_cpu.Machine.default;
    db = Do_database.create ~methods:(Program.method_count program);
    hooks = no_hooks ();
    rng = Rng.create ~seed:config.seed;
    faults;
    cursors;
    addr_buf = [||];
    n_instrs = 0;
    n_cycles = Float.Array.make 1 0.0;
    n_overhead_instrs = 0;
    n_hot_instrs = 0;
    next_sample_at = config.sample_period_cycles;
    next_interval_at = (match config.interval_instrs with Some n -> n | None -> max_int);
    current_meth = program.Program.entry;
    hotspot_depth = 0;
    ilp_scale = 1.0;
    exposure_scale = 1.0;
    stack = [];
    sample_ctl = None;
    ff = None;
    ran = false;
    restored = false;
    obs;
    tracing = Obs.tracing obs;
    m_entries = Obs.counter obs "engine.method_entries";
    m_promotions = Obs.counter obs "engine.hotspot_promotions";
    m_recompiles = Obs.counter obs "engine.recompiles";
    m_samples = Obs.counter obs "engine.sampler_ticks";
    m_intervals = Obs.counter obs "engine.intervals";
  }
  in
  (* All observability timestamps share the engine's instruction counter
     (monotone by construction), giving one clock for the whole timeline. *)
  Obs.set_clock obs (fun () -> t.n_instrs);
  t

let config t = t.cfg
let program t = t.program
let hooks t = t.hooks
let hierarchy t = t.hier
let machine t = Ace_cpu.Timing.machine t.timing
let db t = t.db
let instrs t = t.n_instrs
let[@inline] cycles t = Float.Array.unsafe_get t.n_cycles 0
let[@inline] set_cycles t c = Float.Array.unsafe_set t.n_cycles 0 c
let overhead_instrs t = t.n_overhead_instrs
let hot_instrs t = t.n_hot_instrs
let ipc t = Profile.ipc_of ~instrs:t.n_instrs ~cycles:(cycles t)

let add_stall_cycles t c = set_cycles t (cycles t +. c)

let set_sample_ctl t ctl =
  (match t.sample_ctl with
  | Some _ -> invalid_arg "Engine.set_sample_ctl: sampler already attached"
  | None -> ());
  t.sample_ctl <- Some ctl

let in_fast_forward t = match t.ff with Some _ -> true | None -> false
let ilp_scale t = t.ilp_scale
let exposure_scale t = t.exposure_scale

let set_ilp_scale t s =
  assert (s > 0.0);
  t.ilp_scale <- s

let set_exposure_scale t s =
  assert (s > 0.0);
  t.exposure_scale <- s

let[@inline] charge_software_instrs t n =
  if n > 0 then begin
    t.n_overhead_instrs <- t.n_overhead_instrs + n;
    set_cycles t (cycles t +. Ace_cpu.Timing.overhead_cycles t.timing ~instrs:n)
  end

(* JIT recompilation: flips code quality and charges compile time. *)
let recompile t entry =
  let m = t.program.Program.methods.(entry.Do_database.meth_id) in
  entry.Do_database.compile_state <- Do_database.Optimized;
  charge_software_instrs t (m.Program.code_bytes * t.cfg.compile_instrs_per_code_byte);
  Obs.incr t.obs t.m_recompiles;
  if t.tracing then
    Obs.record t.obs (Obs.Recompile { id = entry.Do_database.meth_id });
  t.hooks.on_recompile ~meth_id:entry.Do_database.meth_id

let promote t entry =
  entry.Do_database.is_hotspot <- true;
  entry.Do_database.promoted_at_instr <- t.n_instrs;
  Obs.incr t.obs t.m_promotions;
  if t.tracing then
    Obs.record t.obs
      (Obs.Hotspot_promoted
         {
           id = entry.Do_database.meth_id;
           name = t.program.Program.methods.(entry.Do_database.meth_id).Program.name;
         });
  if entry.Do_database.compile_state = Do_database.Baseline then recompile t entry;
  t.hooks.on_hotspot_promoted ~meth_id:entry.Do_database.meth_id

(* Timer sampler: attribute a tick to the currently executing method and
   recompile long-runners, mirroring Jikes' 10 ms sampling recompilation. *)
let sampler_tick t =
  (* A fault injector can jitter the timer period (model (d)); with
     [Faults.none] this is exactly [sample_period_cycles]. *)
  t.next_sample_at <-
    t.next_sample_at
    +. Faults.jitter_period t.faults ~period:t.cfg.sample_period_cycles;
  Obs.incr t.obs t.m_samples;
  let entry = Do_database.entry t.db t.current_meth in
  entry.Do_database.samples <- entry.Do_database.samples + 1;
  if
    entry.Do_database.samples >= t.cfg.sample_opt_threshold
    && entry.Do_database.compile_state = Do_database.Baseline
  then recompile t entry

let fire_interval t =
  while t.n_instrs >= t.next_interval_at do
    (* Advance the boundary *before* invoking the hook: a checkpoint taken
       inside the hook then resumes past this interval instead of re-firing
       it.  The hook still observes the boundary it crossed. *)
    let boundary = t.next_interval_at in
    t.next_interval_at <-
      boundary + (match t.cfg.interval_instrs with Some n -> n | None -> max_int);
    Obs.incr t.obs t.m_intervals;
    t.hooks.on_interval ~total_instrs:boundary
  done

(* Target batch size for [exec_block]'s address buffer: large enough to
   amortize the per-batch dispatch, small enough that the scratch stays a
   few dozen KB per engine. *)
let batch_target = 4096

let exec_block t (b : Block.t) count quality =
  let l1_hit = (Hierarchy.latencies t.hier).Hierarchy.l1_hit in
  let cursor = t.cursors.(b.Block.id) in
  let penalty = ref 0 in
  (* One representative I-fetch probe per batch (see DESIGN.md). *)
  penalty := !penalty + (Hierarchy.ifetch t.hier ~pc:b.Block.pc - l1_hit);
  (* Data accesses run batched: addresses for whole repetitions of the
     block's loads-then-stores shape are generated in one [Pattern]
     dispatch, then pushed through the hierarchy in dense passes.  Chunks
     are whole repetitions so the positional write flag stays aligned; the
     address sequence, structure state and counters are byte-identical to
     the per-access loop this replaces (see Hierarchy.data_access_batch). *)
  let per_rep = b.Block.loads + b.Block.stores in
  if per_rep > 0 && count > 0 then begin
    let chunk_reps = max 1 (batch_target / per_rep) in
    let buf_need = min count chunk_reps * per_rep in
    if Array.length t.addr_buf < buf_need then
      t.addr_buf <- Array.make (max buf_need (2 * Array.length t.addr_buf)) 0;
    let reps_left = ref count in
    while !reps_left > 0 do
      let reps = min !reps_left chunk_reps in
      reps_left := !reps_left - reps;
      let n = reps * per_rep in
      Pattern.next_batch cursor ~rng:t.rng t.addr_buf ~pos:0 ~n;
      penalty :=
        !penalty
        + Hierarchy.data_access_batch t.hier ~addrs:t.addr_buf ~n
            ~loads:b.Block.loads ~stores:b.Block.stores
    done
  end;
  let batch_instrs = b.Block.instrs * count in
  let c =
    Ace_cpu.Timing.block_cycles t.timing ~instrs:batch_instrs
      ~ilp:(b.Block.ilp *. t.ilp_scale) ~quality
      ~exposed_mem_cycles:
        (int_of_float (float_of_int !penalty *. t.exposure_scale))
      ~mispredict_rate:b.Block.mispredict_rate
  in
  t.n_instrs <- t.n_instrs + batch_instrs;
  set_cycles t (cycles t +. c);
  if t.hotspot_depth > 0 then t.n_hot_instrs <- t.n_hot_instrs + batch_instrs;
  t.hooks.on_block ~pc:b.Block.pc ~instrs:b.Block.instrs ~count;
  if cycles t >= t.next_sample_at then sampler_tick t;
  if t.n_instrs >= t.next_interval_at then fire_interval t

(* Functional-only execution of a block batch inside a fast-forward region:
   the pattern cursor and RNG advance exactly as [exec_block] would have
   moved them (so architectural state stays bit-identical to a full run),
   but no hierarchy accesses are performed; cycles are paced by the
   memoized per-instruction rate.  Block, sampler and interval hooks still
   fire so BBV vectors, sampler attribution and checkpoint cadence match
   the full-simulation structure. *)
let exec_block_ff t (b : Block.t) count cpi =
  let cursor = t.cursors.(b.Block.id) in
  Pattern.skip cursor ~rng:t.rng (count * (b.Block.loads + b.Block.stores));
  let batch_instrs = b.Block.instrs * count in
  t.n_instrs <- t.n_instrs + batch_instrs;
  set_cycles t (cycles t +. (cpi *. float_of_int batch_instrs));
  if t.hotspot_depth > 0 then t.n_hot_instrs <- t.n_hot_instrs + batch_instrs;
  t.hooks.on_block ~pc:b.Block.pc ~instrs:b.Block.instrs ~count;
  if cycles t >= t.next_sample_at then sampler_tick t;
  if t.n_instrs >= t.next_interval_at then fire_interval t

(* Method entry: all the invocation-start work of the old recursive
   interpreter, then push a frame.  Operation order is load-bearing — tests
   assert exact counter values — so it mirrors the recursion exactly:
   invocation count, promotion check, hotspot latch, entry stub, entry hook,
   profile snapshot, depth/context update, quality latch. *)
let enter t meth_id =
  Obs.incr t.obs t.m_entries;
  let entry = Do_database.entry t.db meth_id in
  entry.Do_database.invocations <- entry.Do_database.invocations + 1;
  if (not entry.Do_database.is_hotspot) && entry.Do_database.invocations >= t.cfg.hot_threshold
  then promote t entry;
  let was_hotspot_at_entry = entry.Do_database.is_hotspot in
  charge_software_instrs t entry.Do_database.entry_overhead;
  t.hooks.on_method_entry ~meth_id;
  (* Fast-forward decision point: after the entry hook (so any per-hotspot
     reconfiguration has been applied and the sampler sees the hardware the
     invocation will actually run under) and before the profile snapshot,
     so both an observed span and a replayed span cover exactly
     [here, top of exit_frame).  Never consulted inside an active region:
     regions do not nest. *)
  let f_sample =
    match t.sample_ctl with
    | None -> 0
    | Some _ when in_fast_forward t -> 0
    | Some ctl -> (
        match ctl.sc_decide ~meth_id with
        | No_sample -> 0
        | Observe -> 1
        | Fast_forward req ->
            t.ff <-
              Some
                {
                  fr_instrs = req.ff_instrs;
                  fr_cycles = req.ff_cycles;
                  fr_counts = req.ff_counts;
                  fr_start_cycles = cycles t;
                  fr_cpi =
                    (if req.ff_instrs > 0 then
                       req.ff_cycles /. float_of_int req.ff_instrs
                     else 0.0);
                };
            2)
  in
  (* Snapshot for the invocation profile (after the entry stub so stub cost
     stays out of the tuner's IPC measurements). *)
  let l1d = Hierarchy.l1d t.hier and l2 = Hierarchy.l2 t.hier in
  let fr =
    {
      f_meth = meth_id;
      f_quality =
        (match entry.Do_database.compile_state with
        | Do_database.Baseline -> t.cfg.quality_baseline
        | Do_database.Optimized -> t.cfg.quality_optimized);
      f_was_hotspot = was_hotspot_at_entry;
      f_saved_meth = t.current_meth;
      f_instrs0 = t.n_instrs;
      f_cycles0 = cycles t;
      f_l1a0 = Cache.Stats.accesses l1d;
      f_l1m0 = Cache.Stats.misses l1d;
      f_l2a0 = Cache.Stats.accesses l2;
      f_l2m0 = Cache.Stats.misses l2;
      f_sample;
      f_pos = 0;
      f_calls_left = 0;
    }
  in
  if was_hotspot_at_entry then t.hotspot_depth <- t.hotspot_depth + 1;
  (* Only promoted methods are "phases" on the timeline; cold entries would
     swamp the ring without saying anything about adaptation. *)
  if was_hotspot_at_entry && t.tracing then
    Obs.record t.obs
      (Obs.Phase_enter
         { id = meth_id; name = t.program.Program.methods.(meth_id).Program.name });
  t.current_meth <- meth_id;
  t.stack <- fr :: t.stack

(* Measurement-path fault model (c): the invocation's *observed* cycle
   count can carry multiplicative noise and outlier spikes.  Only the
   profile handed to instrumentation consumers is perturbed; the global
   clock stays truthful.  Without an injector the call is skipped, and
   with it the boxing of its float argument and result. *)
let observed_cycles t cycles =
  if Faults.is_none t.faults then cycles else Faults.perturb_cycles t.faults ~cycles

(* What an exit records in the DO database about its invocation. *)
let record_exit (entry : Do_database.entry) ~instrs ~cycles =
  Ace_util.Stats.Ema.add entry.Do_database.size_ema (float_of_int instrs);
  if entry.Do_database.is_hotspot then
    Ace_util.Stats.Running.add entry.Do_database.ipc_profile
      (Profile.ipc_of ~instrs ~cycles)
  else
    entry.Do_database.pre_promotion_instrs <-
      entry.Do_database.pre_promotion_instrs + instrs

(* Method exit: the invocation-end work, after the frame has been popped.

   Sampled regions end here, *before* the exit stub and profile: a
   fast-forward root splices its memoized hierarchy deltas and forces the
   clock to exactly [start + memoized cycles] (pacing drift and nested stub
   charges inside the region are discarded), so the region's total cost is
   the memoized record regardless of how sampler/interval hooks interleaved
   with it. *)
let exit_frame t fr =
  (match fr.f_sample with
  | 2 -> (
      match t.ff with
      | Some f ->
          set_cycles t (f.fr_start_cycles +. f.fr_cycles);
          Hierarchy.splice t.hier f.fr_counts;
          t.ff <- None;
          if t.tracing then
            Obs.record t.obs
              (Obs.Phase_splice { id = fr.f_meth; instrs = f.fr_instrs });
          (match t.sample_ctl with
          | Some c -> c.sc_exit ~meth_id:fr.f_meth ~ff:true
          | None -> ())
      | None -> assert false)
  | 1 -> (
      match t.sample_ctl with
      | Some c -> c.sc_exit ~meth_id:fr.f_meth ~ff:false
      | None -> ())
  | _ -> ());
  let entry = Do_database.entry t.db fr.f_meth in
  t.current_meth <- fr.f_saved_meth;
  if fr.f_was_hotspot then t.hotspot_depth <- t.hotspot_depth - 1;
  let observed_cycles = observed_cycles t (cycles t -. fr.f_cycles0) in
  let l1d = Hierarchy.l1d t.hier and l2 = Hierarchy.l2 t.hier in
  let profile =
    {
      Profile.instrs = t.n_instrs - fr.f_instrs0;
      cycles = observed_cycles;
      l1d_accesses = Cache.Stats.accesses l1d - fr.f_l1a0;
      l1d_misses = Cache.Stats.misses l1d - fr.f_l1m0;
      l2_accesses = Cache.Stats.accesses l2 - fr.f_l2a0;
      l2_misses = Cache.Stats.misses l2 - fr.f_l2m0;
    }
  in
  record_exit entry ~instrs:profile.Profile.instrs ~cycles:observed_cycles;
  if fr.f_was_hotspot && t.tracing then
    Obs.record t.obs
      (Obs.Phase_exit { id = fr.f_meth; ipc = Profile.ipc profile });
  charge_software_instrs t entry.Do_database.exit_overhead;
  t.hooks.on_method_exit ~meth_id:fr.f_meth profile

(* A call inside a fast-forward region that can run inline, without a frame:
   the callee makes no calls, no hook observes its invocations, this entry
   does not promote it, no interval boundary falls inside it (checkpoints,
   kills and daemon boundaries all happen at one) and no event is being
   traced.  Under those conditions nothing can look at the engine between
   the callee's entry and exit except [on_block] and the sampler tick,
   which see exactly what they would see in a frame. *)
let quiet_call t (entry : Do_database.entry) instrs =
  t.n_instrs + instrs < t.next_interval_at
  && (entry.Do_database.is_hotspot
     || entry.Do_database.invocations + 1 < t.cfg.hot_threshold)
  && (not t.tracing)
  && not (t.hooks.observes_call ~meth_id:entry.Do_database.meth_id)

(* Run a quiet call: the DO-database, counter, cursor, sampler-tick and
   [on_block] updates of [enter], [exec_block_ff] over the body and
   [exit_frame], in the same order, minus the frame, the [Profile.t], the
   per-statement steps and the two hooks [quiet_call] established have
   nothing to see. *)
let run_quiet t (entry : Do_database.entry) cpi =
  let meth_id = entry.Do_database.meth_id in
  Obs.incr t.obs t.m_entries;
  entry.Do_database.invocations <- entry.Do_database.invocations + 1;
  let hot = entry.Do_database.is_hotspot in
  charge_software_instrs t entry.Do_database.entry_overhead;
  let instrs0 = t.n_instrs and cycles0 = cycles t in
  let saved_meth = t.current_meth in
  if hot then t.hotspot_depth <- t.hotspot_depth + 1;
  t.current_meth <- meth_id;
  let body = t.bodies.(meth_id) in
  for i = 0 to Array.length body - 1 do
    match Array.unsafe_get body i with
    | Program.Exec (b, n) -> exec_block_ff t b n cpi
    | Program.Call _ -> ()
  done;
  t.current_meth <- saved_meth;
  if hot then t.hotspot_depth <- t.hotspot_depth - 1;
  record_exit entry ~instrs:(t.n_instrs - instrs0)
    ~cycles:(observed_cycles t (cycles t -. cycles0));
  charge_software_instrs t entry.Do_database.exit_overhead

(* One repetition of the call at [fr]'s current statement.  A quiet one is
   followed at once by every further repetition that is quiet too: nothing
   runs between two repetitions, so leaving them to later steps would only
   repeat the statement lookup. *)
let call t fr meth_id =
  match t.ff with
  | Some f when Array.unsafe_get t.leaf_instrs meth_id >= 0 ->
      let entry = Do_database.entry t.db meth_id
      and instrs = Array.unsafe_get t.leaf_instrs meth_id in
      if quiet_call t entry instrs then begin
        run_quiet t entry f.fr_cpi;
        while fr.f_calls_left > 0 && quiet_call t entry instrs do
          fr.f_calls_left <- fr.f_calls_left - 1;
          run_quiet t entry f.fr_cpi
        done
      end
      else enter t meth_id
  | _ -> enter t meth_id

(* Execute one scheduling unit: a statement of the innermost frame, one
   repetition of a pending call, or a method return.  The recursion's
   redundant [current_meth <- meth_id] after each callee return is subsumed
   by the callee's own restore of [f_saved_meth]. *)
let step t =
  match t.stack with
  | [] -> ()
  | fr :: rest ->
      let body = t.bodies.(fr.f_meth) in
      if fr.f_calls_left > 0 then (
        fr.f_calls_left <- fr.f_calls_left - 1;
        match body.(fr.f_pos - 1) with
        | Program.Call (callee, _) -> call t fr callee
        | Program.Exec _ -> assert false)
      else if fr.f_pos >= Array.length body then (
        t.stack <- rest;
        exit_frame t fr)
      else begin
        let st = body.(fr.f_pos) in
        fr.f_pos <- fr.f_pos + 1;
        match st with
        | Program.Exec (b, n) -> (
            match t.ff with
            | Some f -> exec_block_ff t b n f.fr_cpi
            | None -> exec_block t b n fr.f_quality)
        | Program.Call (callee, n) ->
            if n > 0 then begin
              fr.f_calls_left <- n - 1;
              call t fr callee
            end
      end

let step_to_completion t = while t.stack <> [] do step t done

let run t =
  if t.ran then invalid_arg "Engine.run: engine already ran";
  t.ran <- true;
  enter t t.program.Program.entry;
  step_to_completion t

let resume t =
  if not t.restored then
    invalid_arg "Engine.resume: engine holds no restored checkpoint state";
  t.restored <- false;
  step_to_completion t

(* {2 Checkpoint state} *)

let frame =
  let open Ace_util.Codec in
  let+ f_meth = field int (fun f -> f.f_meth)
  and+ f_quality = field float (fun f -> f.f_quality)
  and+ f_was_hotspot = field bool (fun f -> f.f_was_hotspot)
  and+ f_saved_meth = field int (fun f -> f.f_saved_meth)
  and+ f_instrs0 = field int (fun f -> f.f_instrs0)
  and+ f_cycles0 = field float (fun f -> f.f_cycles0)
  and+ f_l1a0 = field int (fun f -> f.f_l1a0)
  and+ f_l1m0 = field int (fun f -> f.f_l1m0)
  and+ f_l2a0 = field int (fun f -> f.f_l2a0)
  and+ f_l2m0 = field int (fun f -> f.f_l2m0)
  and+ f_sample = field int (fun f -> f.f_sample)
  and+ f_pos = field int (fun f -> f.f_pos)
  and+ f_calls_left = field int (fun f -> f.f_calls_left) in
  { f_meth; f_quality; f_was_hotspot; f_saved_meth; f_instrs0; f_cycles0; f_l1a0;
    f_l1m0; f_l2a0; f_l2m0; f_sample; f_pos; f_calls_left }

(* Outermost invocation first. *)
let stack_codec = Ace_util.Codec.(conv List.rev List.rev (list frame))

let ff_codec =
  let open Ace_util.Codec in
  option
    (let+ fr_instrs = field int (fun f -> f.fr_instrs)
     and+ fr_cycles = field float (fun f -> f.fr_cycles)
     and+ fr_counts = field Hierarchy.counts_codec (fun f -> f.fr_counts)
     and+ fr_start_cycles = field float (fun f -> f.fr_start_cycles) in
     let fr_cpi = if fr_instrs > 0 then fr_cycles /. float_of_int fr_instrs else 0.0 in
     { fr_instrs; fr_cycles; fr_counts; fr_start_cycles; fr_cpi })

let sync io t =
  let open Ace_util.Codec in
  if reading io && t.ran then invalid_arg "Engine.sync: engine already ran";
  t.n_instrs <- sync io int t.n_instrs;
  set_cycles t (sync io float (cycles t));
  t.n_overhead_instrs <- sync io int t.n_overhead_instrs;
  t.n_hot_instrs <- sync io int t.n_hot_instrs;
  t.next_sample_at <- sync io float t.next_sample_at;
  t.next_interval_at <- sync io int t.next_interval_at;
  t.current_meth <- sync io int t.current_meth;
  t.hotspot_depth <- sync io int t.hotspot_depth;
  t.ilp_scale <- sync io float t.ilp_scale;
  t.exposure_scale <- sync io float t.exposure_scale;
  t.stack <- sync io stack_codec t.stack;
  Rng.sync io t.rng;
  sync_each io Pattern.sync t.cursors;
  Do_database.sync io t.db;
  Hierarchy.sync io t.hier;
  t.ff <- sync io ff_codec t.ff;
  if reading io then begin
    t.ran <- true;
    t.restored <- true
  end
