(* Phase-memoized fast-forward sampling.

   The observation protocol leans entirely on the engine's [sample_ctl]:
   [sc_decide] fires at candidate method entries and [sc_exit] at the
   matching region ends, in LIFO order, so [open_obs] mirrors the engine's
   own stack of decided frames and a checkpoint can serialize both
   consistently.  See DESIGN.md §Sampled simulation for the determinism
   argument. *)

module Engine = Ace_vm.Engine
module Do_database = Ace_vm.Do_database
module Hierarchy = Ace_mem.Hierarchy
module Cache = Ace_mem.Cache
module Faults = Ace_faults.Faults
module Obs = Ace_obs.Obs

type config = {
  warmup : int;  (* clean repeats discarded before measuring *)
  repeats : int;  (* measured clean repeats required to trust a phase *)
  cov_bound : float;  (* maximum cycle CoV across the measured repeats *)
  recalibrate_every : int;  (* splices between re-measurements; 0 = never *)
}

let default_config =
  { warmup = 2; repeats = 3; cov_bound = 0.05; recalibrate_every = 64 }

let of_flag on = if on then Some default_config else None

let validate_config c =
  if c.warmup < 0 then Error "negative warmup"
  else if c.repeats < 1 then Error "repeats must be at least 1"
  else if not (Float.is_finite c.cov_bound && c.cov_bound >= 0.0) then
    Error "cov_bound must be finite and non-negative"
  else if c.recalibrate_every < 0 then Error "negative recalibrate_every"
  else Ok ()

(* Why the scheme guard rejected a candidate; the sampler only counts the
   reasons, but the breakdown tells a tuning-a-run story the single
   boolean never could (see the run report's "sampling" line). *)
type verdict = Allow | Unsettled | Not_quiescent

(* Phase statistics are only valid under the exact hardware configuration
   they were measured on; the signature is part of the cache key.  Scales
   are compared bit-exactly (they are latched, not computed). *)
type hw_sig = {
  hs_l1d_bytes : int;
  hs_l2_bytes : int;
  hs_ilp_bits : int64;
  hs_exposure_bits : int64;
}

(* What a record describes: one hotspot header method exactly, or a BBV
   behaviour cluster that many headers map into.  Cluster records let a
   method fast-forward off repeats of *other* methods with the same
   behaviour signature, which is why the statistics are CPI-normalized
   (methods in one cluster agree on cycles-per-instruction, not on
   invocation length). *)
type key = K_meth of int | K_cluster of int

type phase_stats = {
  mutable ph_instrs : int;  (* last folded repeat's instructions *)
  mutable ph_seen : int;  (* clean repeats observed, warmup included *)
  mutable ph_cpi_sum : float;  (* cycles/instr over post-warmup repeats *)
  mutable ph_cpi_sumsq : float;
  mutable ph_counts : Hierarchy.counts;  (* last post-warmup repeat *)
  mutable ph_counts_instrs : int;  (* instructions [ph_counts] covers *)
  mutable ph_poisoned : bool;  (* unstable behaviour; never fast-forward *)
  mutable ph_since_measure : int;  (* splices since the last measurement *)
}

(* One observation in flight, paired LIFO with an engine frame marked
   [Observe]. *)
type obs_frame = {
  ob_meth : int;
  ob_key : key;  (* record the repeat will fold into, fixed at entry *)
  ob_sig : hw_sig;
  ob_instrs0 : int;
  ob_cycles0 : float;
  ob_counts0 : Hierarchy.counts;
  ob_resizes0 : int;
  mutable ob_dirty : bool;  (* promotion/recompile/fault inside; discard *)
}

type t = {
  cfg : config;
  engine : Engine.t;
  faults : Faults.t;
  allow : meth_id:int -> verdict;  (* scheme quiescence guard *)
  classify : (unit -> int option) option;  (* current behaviour cluster *)
  table : (key * hw_sig, phase_stats) Hashtbl.t;
  meth_instrs : (int, int) Hashtbl.t;  (* per-invocation instrs, learned *)
  cluster_of_meth : (int, int) Hashtbl.t;  (* last cluster seen per header *)
  mutable open_obs : obs_frame list;  (* innermost first *)
  mutable fault_events0 : int;  (* last observed Faults.hw_fault_events *)
  mutable ff_instrs_active : int;  (* instrs of the active region, if any *)
  (* Plain counters: obs counters do not tick at [Off] level, but the run
     result wants these regardless. *)
  mutable n_observations : int;
  mutable n_splices : int;
  mutable n_spliced_instrs : int;
  mutable n_blocked_quiescence : int;
  mutable n_blocked_unsettled : int;
  mutable n_blocked_open_obs : int;
  mutable n_blocked_poisoned : int;
  obs : Obs.t;
  m_observations : Obs.counter;
  m_splices : Obs.counter;
  m_spliced_instrs : Obs.counter;
  m_blocked_quiescence : Obs.counter;
  m_blocked_unsettled : Obs.counter;
  m_blocked_open_obs : Obs.counter;
  m_blocked_poisoned : Obs.counter;
}

let config t = t.cfg

let current_sig eng =
  let hier = Engine.hierarchy eng in
  {
    hs_l1d_bytes = (Cache.config (Hierarchy.l1d hier)).Cache.size_bytes;
    hs_l2_bytes = (Cache.config (Hierarchy.l2 hier)).Cache.size_bytes;
    hs_ilp_bits = Int64.bits_of_float (Engine.ilp_scale eng);
    hs_exposure_bits = Int64.bits_of_float (Engine.exposure_scale eng);
  }

let resizes_now eng =
  let hier = Engine.hierarchy eng in
  Cache.Stats.resizes (Hierarchy.l1d hier)
  + Cache.Stats.resizes (Hierarchy.l2 hier)

(* Number of measured (post-warmup) repeats accumulated so far. *)
let measured t ph = max 0 (ph.ph_seen - t.cfg.warmup)

let mean_cpi t ph =
  let n = measured t ph in
  if n = 0 then 0.0 else ph.ph_cpi_sum /. float_of_int n

let known t ph =
  (not ph.ph_poisoned)
  &&
  let n = measured t ph in
  n >= t.cfg.repeats
  &&
  let mean = ph.ph_cpi_sum /. float_of_int n in
  mean > 0.0
  &&
  let var =
    Float.max 0.0 ((ph.ph_cpi_sumsq /. float_of_int n) -. (mean *. mean))
  in
  sqrt var /. mean <= t.cfg.cov_bound

(* Hardware-channel faults change the machine's effective configuration
   out from under the cache, so any movement of the monotone fault counter
   invalidates everything memoized and taints observations in flight. *)
let poll_faults t =
  let fe = Faults.hw_fault_events t.faults in
  if fe <> t.fault_events0 then begin
    t.fault_events0 <- fe;
    Hashtbl.reset t.table;
    List.iter (fun ob -> ob.ob_dirty <- true) t.open_obs
  end

let mark_dirty t = List.iter (fun ob -> ob.ob_dirty <- true) t.open_obs

(* The tracker moved this cluster's boundary: whatever the old records
   averaged no longer describes one behaviour, so they are dropped (every
   hardware signature) and in-flight observations destined for the old
   cluster are discarded. *)
let invalidate_cluster t old =
  Hashtbl.filter_map_inplace
    (fun (k, _) ph ->
      match k with K_cluster c when c = old -> None | _ -> Some ph)
    t.table;
  List.iter
    (fun ob ->
      match ob.ob_key with
      | K_cluster c when c = old -> ob.ob_dirty <- true
      | _ -> ())
    t.open_obs

(* Record key for a candidate: its BBV behaviour cluster when a classifier
   is installed and has seen an interval, the exact header method
   otherwise.  Detecting a header hopping clusters here is what implements
   reassignment invalidation. *)
let key_for t ~meth_id =
  match t.classify with
  | None -> K_meth meth_id
  | Some f -> (
      match f () with
      | None -> K_meth meth_id
      | Some c ->
          (match Hashtbl.find_opt t.cluster_of_meth meth_id with
          | Some old when old <> c ->
              invalidate_cluster t old;
              Hashtbl.replace t.cluster_of_meth meth_id c
          | Some _ -> ()
          | None -> Hashtbl.add t.cluster_of_meth meth_id c);
          K_cluster c)

(* Exact when [num = den] (the K_meth case by construction): every field
   passes through untouched, so header-keyed splicing is bit-identical to
   the pre-cluster implementation. *)
let scale_counts (c : Hierarchy.counts) ~num ~den =
  if num = den then c
  else
    let s x = x * num / den in
    {
      Hierarchy.c_l1i_accesses = s c.Hierarchy.c_l1i_accesses;
      c_l1i_hits = s c.Hierarchy.c_l1i_hits;
      c_l1i_writebacks = s c.Hierarchy.c_l1i_writebacks;
      c_l1d_accesses = s c.Hierarchy.c_l1d_accesses;
      c_l1d_hits = s c.Hierarchy.c_l1d_hits;
      c_l1d_writebacks = s c.Hierarchy.c_l1d_writebacks;
      c_l2_accesses = s c.Hierarchy.c_l2_accesses;
      c_l2_hits = s c.Hierarchy.c_l2_hits;
      c_l2_writebacks = s c.Hierarchy.c_l2_writebacks;
      c_tlb_accesses = s c.Hierarchy.c_tlb_accesses;
      c_tlb_misses = s c.Hierarchy.c_tlb_misses;
      c_mem_reads = s c.Hierarchy.c_mem_reads;
      c_mem_writebacks = s c.Hierarchy.c_mem_writebacks;
    }

let observe_now t ~meth_id ~key ~sg =
  t.open_obs <-
    {
      ob_meth = meth_id;
      ob_key = key;
      ob_sig = sg;
      ob_instrs0 = Engine.instrs t.engine;
      ob_cycles0 = Engine.cycles t.engine;
      ob_counts0 = Hierarchy.counts (Engine.hierarchy t.engine);
      ob_resizes0 = resizes_now t.engine;
      ob_dirty = false;
    }
    :: t.open_obs;
  Engine.Observe

let decide t ~meth_id =
  poll_faults t;
  let entry = Do_database.entry (Engine.db t.engine) meth_id in
  if
    (not entry.Do_database.is_hotspot)
    || entry.Do_database.compile_state <> Do_database.Optimized
  then Engine.No_sample
  else
    match t.allow ~meth_id with
    | Unsettled ->
        t.n_blocked_unsettled <- t.n_blocked_unsettled + 1;
        Obs.incr t.obs t.m_blocked_unsettled;
        Engine.No_sample
    | Not_quiescent ->
        t.n_blocked_quiescence <- t.n_blocked_quiescence + 1;
        Obs.incr t.obs t.m_blocked_quiescence;
        Engine.No_sample
    | Allow -> (
        let sg = current_sig t.engine in
        let key = key_for t ~meth_id in
        match Hashtbl.find_opt t.table (key, sg) with
        (* A poisoned phase can never be replayed, so keep it out of
           [open_obs] entirely: an open observation frame pins every nested
           phase to full simulation, and a permanently observed outer
           method would block its inner phases from ever splicing. *)
        | Some ph when ph.ph_poisoned ->
            t.n_blocked_poisoned <- t.n_blocked_poisoned + 1;
            Obs.incr t.obs t.m_blocked_poisoned;
            Engine.No_sample
        (* Periodic recalibration: after [recalibrate_every] consecutive
           splices a known phase is re-observed instead, so a record whose
           true cost has drifted (cache aging, data-position effects) is
           corrected rather than replayed forever. *)
        | Some ph
          when known t ph
               && (t.cfg.recalibrate_every = 0
                  || ph.ph_since_measure < t.cfg.recalibrate_every) -> (
            (* Never splice inside an open observation: a nested replay
               would fold memoized rather than simulated cycles into the
               outer phase's record. *)
            if t.open_obs <> [] then begin
              t.n_blocked_open_obs <- t.n_blocked_open_obs + 1;
              Obs.incr t.obs t.m_blocked_open_obs;
              observe_now t ~meth_id ~key ~sg
            end
            else
              (* A cluster record predicts CPI; turning that into cycles
                 needs this header's own invocation length, learned from
                 its clean observations.  Until it is known the candidate
                 observes (feeding both the record and the length). *)
              let instrs =
                match key with
                | K_meth _ -> ph.ph_instrs
                | K_cluster _ -> (
                    match Hashtbl.find_opt t.meth_instrs meth_id with
                    | Some n when n > 0 -> n
                    | _ -> 0)
              in
              match instrs with
              | 0 -> observe_now t ~meth_id ~key ~sg
              | m ->
                  ph.ph_since_measure <- ph.ph_since_measure + 1;
                  t.ff_instrs_active <- m;
                  Engine.Fast_forward
                    {
                      Engine.ff_instrs = m;
                      ff_cycles = mean_cpi t ph *. float_of_int m;
                      ff_counts =
                        scale_counts ph.ph_counts ~num:m
                          ~den:(max 1 ph.ph_counts_instrs);
                    })
        | _ -> observe_now t ~meth_id ~key ~sg)

let fresh_phase instrs =
  {
    ph_instrs = instrs;
    ph_seen = 0;
    ph_cpi_sum = 0.0;
    ph_cpi_sumsq = 0.0;
    ph_counts =
      {
        Hierarchy.c_l1i_accesses = 0;
        c_l1i_hits = 0;
        c_l1i_writebacks = 0;
        c_l1d_accesses = 0;
        c_l1d_hits = 0;
        c_l1d_writebacks = 0;
        c_l2_accesses = 0;
        c_l2_hits = 0;
        c_l2_writebacks = 0;
        c_tlb_accesses = 0;
        c_tlb_misses = 0;
        c_mem_reads = 0;
        c_mem_writebacks = 0;
      };
    ph_counts_instrs = instrs;
    ph_poisoned = false;
    ph_since_measure = 0;
  }

(* Region end of an observed invocation: fold the measured repeat into the
   phase's statistics if it was clean (no promotion/recompile/fault inside,
   no resize, same hardware signature at both ends) and behaviourally
   consistent.  For header-keyed records consistency means an identical
   instruction count — the engine's control flow is invocation-count-driven,
   so a mismatch means the phase key is too coarse and the entry is poisoned
   rather than averaged.  Cluster records deliberately mix headers of
   different lengths, so they normalize to CPI instead and rely on the CoV
   bound to reject clusters whose members do not actually share behaviour. *)
let observe_exit t ob =
  let eng = t.engine in
  t.n_observations <- t.n_observations + 1;
  Obs.incr t.obs t.m_observations;
  let clean =
    (not ob.ob_dirty)
    && resizes_now eng = ob.ob_resizes0
    && current_sig eng = ob.ob_sig
  in
  if clean then begin
    let d_instrs = Engine.instrs eng - ob.ob_instrs0 in
    let d_cycles = Engine.cycles eng -. ob.ob_cycles0 in
    if d_instrs > 0 then Hashtbl.replace t.meth_instrs ob.ob_meth d_instrs;
    let key = (ob.ob_key, ob.ob_sig) in
    let ph =
      match Hashtbl.find_opt t.table key with
      | Some ph -> ph
      | None ->
          let ph = fresh_phase d_instrs in
          Hashtbl.add t.table key ph;
          ph
    in
    if not ph.ph_poisoned && d_instrs > 0 then
      match ob.ob_key with
      | K_meth _ when d_instrs <> ph.ph_instrs -> ph.ph_poisoned <- true
      | _ ->
          let cpi = d_cycles /. float_of_int d_instrs in
          ph.ph_since_measure <- 0;
          let mean = mean_cpi t ph in
          if known t ph && Float.abs (cpi -. mean) > t.cfg.cov_bound *. mean
          then begin
            (* A recalibration repeat outside the bound means the record no
               longer describes the phase: relearn from this repeat rather
               than splicing a stale cost. *)
            ph.ph_seen <- t.cfg.warmup + 1;
            ph.ph_cpi_sum <- cpi;
            ph.ph_cpi_sumsq <- cpi *. cpi;
            ph.ph_instrs <- d_instrs;
            ph.ph_counts <-
              Hierarchy.diff_counts ~before:ob.ob_counts0
                ~after:(Hierarchy.counts (Engine.hierarchy eng));
            ph.ph_counts_instrs <- d_instrs
          end
          else begin
            (* Hold the measurement window at [repeats] samples: rescaling
               before folding keeps the mean recency-weighted, so slow
               drift is tracked instead of averaged into ancient history. *)
            let n = measured t ph in
            if n >= t.cfg.repeats then begin
              let k = float_of_int (t.cfg.repeats - 1) /. float_of_int n in
              ph.ph_cpi_sum <- ph.ph_cpi_sum *. k;
              ph.ph_cpi_sumsq <- ph.ph_cpi_sumsq *. k;
              ph.ph_seen <- t.cfg.warmup + t.cfg.repeats - 1
            end;
            ph.ph_seen <- ph.ph_seen + 1;
            ph.ph_instrs <- d_instrs;
            if ph.ph_seen > t.cfg.warmup then begin
              ph.ph_cpi_sum <- ph.ph_cpi_sum +. cpi;
              ph.ph_cpi_sumsq <- ph.ph_cpi_sumsq +. (cpi *. cpi);
              ph.ph_counts <-
                Hierarchy.diff_counts ~before:ob.ob_counts0
                  ~after:(Hierarchy.counts (Engine.hierarchy eng));
              ph.ph_counts_instrs <- d_instrs
            end
          end
  end

let region_exit t ~meth_id ~ff =
  if ff then begin
    t.n_splices <- t.n_splices + 1;
    t.n_spliced_instrs <- t.n_spliced_instrs + t.ff_instrs_active;
    Obs.incr t.obs t.m_splices;
    Obs.add t.obs t.m_spliced_instrs t.ff_instrs_active;
    t.ff_instrs_active <- 0
  end
  else
    match t.open_obs with
    | ob :: rest when ob.ob_meth = meth_id ->
        t.open_obs <- rest;
        observe_exit t ob
    | _ -> assert false (* sc_exit pairing is LIFO by construction *)

let attach ?(config = default_config) ?(faults = Faults.none)
    ?(obs = Obs.null) ?classify ~allow engine =
  (match validate_config config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Sample.attach: " ^ msg));
  let t =
    {
      cfg = config;
      engine;
      faults;
      allow;
      classify;
      table = Hashtbl.create 64;
      meth_instrs = Hashtbl.create 64;
      cluster_of_meth = Hashtbl.create 64;
      open_obs = [];
      fault_events0 = Faults.hw_fault_events faults;
      ff_instrs_active = 0;
      n_observations = 0;
      n_splices = 0;
      n_spliced_instrs = 0;
      n_blocked_quiescence = 0;
      n_blocked_unsettled = 0;
      n_blocked_open_obs = 0;
      n_blocked_poisoned = 0;
      obs;
      m_observations = Obs.counter obs "sample.observations";
      m_splices = Obs.counter obs "sample.splices";
      m_spliced_instrs = Obs.counter obs "sample.spliced_instrs";
      m_blocked_quiescence = Obs.counter obs "sample.blocked_quiescence";
      m_blocked_unsettled = Obs.counter obs "sample.blocked_unsettled";
      m_blocked_open_obs = Obs.counter obs "sample.blocked_open_obs";
      m_blocked_poisoned = Obs.counter obs "sample.blocked_poisoned";
    }
  in
  (* A promotion or recompile inside an observed span changes its cost
     structure (compile charges, quality flip), so the repeat is
     unrepresentative.  Wrapping preserves whatever the scheme installed. *)
  let hooks = Engine.hooks engine in
  let prev_promoted = hooks.Engine.on_hotspot_promoted in
  hooks.Engine.on_hotspot_promoted <-
    (fun ~meth_id ->
      mark_dirty t;
      prev_promoted ~meth_id);
  let prev_recompile = hooks.Engine.on_recompile in
  hooks.Engine.on_recompile <-
    (fun ~meth_id ->
      mark_dirty t;
      prev_recompile ~meth_id);
  Engine.set_sample_ctl engine
    {
      Engine.sc_decide = (fun ~meth_id -> decide t ~meth_id);
      sc_exit = (fun ~meth_id ~ff -> region_exit t ~meth_id ~ff);
    };
  t

(* -- run statistics ------------------------------------------------- *)

type stats = {
  observations : int;  (* candidate invocations measured in full *)
  known_phases : int;  (* cache entries currently fast-forwardable *)
  splices : int;  (* regions replayed from memoized records *)
  spliced_instrs : int;  (* instructions covered by replayed regions *)
  blocked_quiescence : int;  (* guard verdicts: measurement in flight *)
  blocked_unsettled : int;  (* guard verdicts: own tuner mid-campaign *)
  blocked_open_obs : int;  (* known phases pinned by an open observation *)
  blocked_poisoned : int;  (* candidates hitting a poisoned record *)
}

let stats t =
  let known_phases =
    Hashtbl.fold (fun _ ph acc -> if known t ph then acc + 1 else acc) t.table 0
  in
  {
    observations = t.n_observations;
    known_phases;
    splices = t.n_splices;
    spliced_instrs = t.n_spliced_instrs;
    blocked_quiescence = t.n_blocked_quiescence;
    blocked_unsettled = t.n_blocked_unsettled;
    blocked_open_obs = t.n_blocked_open_obs;
    blocked_poisoned = t.n_blocked_poisoned;
  }

let record_keys t =
  List.sort_uniq compare (Hashtbl.fold (fun (key, _) _ acc -> key :: acc) t.table [])

(* -- checkpoints ------------------------------------------------------ *)

let key_codec =
  let open Ace_util.Codec in
  let meth = case 0 int (fun m -> K_meth m)
  and cluster = case 1 int (fun c -> K_cluster c) in
  variant "sample key" [ Case meth; Case cluster ] (fun w -> function
    | K_meth m -> write w meth m
    | K_cluster c -> write w cluster c)

let hw_sig_codec =
  let open Ace_util.Codec in
  let+ hs_l1d_bytes = field int (fun s -> s.hs_l1d_bytes)
  and+ hs_l2_bytes = field int (fun s -> s.hs_l2_bytes)
  and+ hs_ilp_bits = field int64 (fun s -> s.hs_ilp_bits)
  and+ hs_exposure_bits = field int64 (fun s -> s.hs_exposure_bits) in
  { hs_l1d_bytes; hs_l2_bytes; hs_ilp_bits; hs_exposure_bits }

let record_codec =
  let open Ace_util.Codec in
  pair (pair key_codec hw_sig_codec)
    (let+ ph_instrs = field int (fun ph -> ph.ph_instrs)
     and+ ph_seen = field int (fun ph -> ph.ph_seen)
     and+ ph_cpi_sum = field float (fun ph -> ph.ph_cpi_sum)
     and+ ph_cpi_sumsq = field float (fun ph -> ph.ph_cpi_sumsq)
     and+ ph_counts = field Hierarchy.counts_codec (fun ph -> ph.ph_counts)
     and+ ph_counts_instrs = field int (fun ph -> ph.ph_counts_instrs)
     and+ ph_poisoned = field bool (fun ph -> ph.ph_poisoned)
     and+ ph_since_measure = field int (fun ph -> ph.ph_since_measure) in
     { ph_instrs; ph_seen; ph_cpi_sum; ph_cpi_sumsq; ph_counts; ph_counts_instrs;
       ph_poisoned; ph_since_measure })

(* Outermost observation first. *)
let open_codec =
  let open Ace_util.Codec in
  conv List.rev List.rev
    (list
       (let+ ob_meth = field int (fun ob -> ob.ob_meth)
        and+ ob_key = field key_codec (fun ob -> ob.ob_key)
        and+ ob_sig = field hw_sig_codec (fun ob -> ob.ob_sig)
        and+ ob_instrs0 = field int (fun ob -> ob.ob_instrs0)
        and+ ob_cycles0 = field float (fun ob -> ob.ob_cycles0)
        and+ ob_counts0 = field Hierarchy.counts_codec (fun ob -> ob.ob_counts0)
        and+ ob_resizes0 = field int (fun ob -> ob.ob_resizes0)
        and+ ob_dirty = field bool (fun ob -> ob.ob_dirty) in
        { ob_meth; ob_key; ob_sig; ob_instrs0; ob_cycles0; ob_counts0; ob_resizes0;
          ob_dirty }))

let sync io t =
  let open Ace_util.Codec in
  sync_hashtbl io record_codec t.table;
  sync_hashtbl io (pair int int) t.meth_instrs;
  sync_hashtbl io (pair int int) t.cluster_of_meth;
  t.open_obs <- sync io open_codec t.open_obs;
  t.fault_events0 <- sync io int t.fault_events0;
  t.ff_instrs_active <- sync io int t.ff_instrs_active;
  t.n_observations <- sync io int t.n_observations;
  t.n_splices <- sync io int t.n_splices;
  t.n_spliced_instrs <- sync io int t.n_spliced_instrs;
  t.n_blocked_quiescence <- sync io int t.n_blocked_quiescence;
  t.n_blocked_unsettled <- sync io int t.n_blocked_unsettled;
  t.n_blocked_open_obs <- sync io int t.n_blocked_open_obs;
  t.n_blocked_poisoned <- sync io int t.n_blocked_poisoned
