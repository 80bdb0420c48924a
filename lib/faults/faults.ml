module Rng = Ace_util.Rng
module Io = Ace_util.Io
module Obs = Ace_obs.Obs

type config = {
  reg_write_drop_p : float;
  reg_write_corrupt_p : float;
  stuck_transient_p : float;
  stuck_transient_instrs : int;
  stuck_permanent_p : float;
  profile_noise_cov : float;
  profile_spike_p : float;
  profile_spike_mag : float;
  sampler_jitter_frac : float;
  ckpt_corrupt_p : float;
}

let no_faults =
  {
    reg_write_drop_p = 0.0;
    reg_write_corrupt_p = 0.0;
    stuck_transient_p = 0.0;
    stuck_transient_instrs = 0;
    stuck_permanent_p = 0.0;
    profile_noise_cov = 0.0;
    profile_spike_p = 0.0;
    profile_spike_mag = 0.0;
    sampler_jitter_frac = 0.0;
    ckpt_corrupt_p = 0.0;
  }

let preset ~rate =
  if not (rate >= 0.0 && rate <= 1.0) then
    invalid_arg
      (Printf.sprintf "Faults.preset: rate %g outside [0, 1]" rate);
  {
    reg_write_drop_p = rate;
    reg_write_corrupt_p = rate;
    (* Latch-ups are mostly transient (a permanent one is an order of
       magnitude rarer): the interesting regime is a CU that stops taking
       writes for a few million instructions and then comes back, which
       rewards recovery probing over writing the CU off.  Measurement
       spikes dominate the profile channel: a single spiked sample reads as
       a large behaviour change, so an unconfirmed drift check re-tunes in
       storms while a confirming one shrugs it off. *)
    stuck_transient_p = rate;
    stuck_transient_instrs = 5_000_000;
    stuck_permanent_p = rate /. 20.0;
    profile_noise_cov = 2.0 *. rate;
    profile_spike_p = 5.0 *. rate;
    profile_spike_mag = 1.5;
    sampler_jitter_frac = 5.0 *. rate;
    (* Snapshot corruption is a storage-channel fault: much rarer per event
       than a register glitch, but each one costs a whole checkpoint. *)
    ckpt_corrupt_p = 2.0 *. rate;
  }

type latch = Stuck_until of int | Stuck_forever

type stats = {
  writes_dropped : int;
  writes_corrupted : int;
  stuck_events : int;
  spikes : int;
  jittered_ticks : int;
  snapshots_corrupted : int;
}

type active = {
  cfg : config;
  rng : Rng.t;
  ckpt_rng : Rng.t;
      (* The storage channel draws from its own stream: snapshot writes must
         not advance [rng], or checkpointing would perturb the engine-visible
         fault schedule and break resume determinism. *)
  latched : (string, latch) Hashtbl.t;
  mutable writes_dropped : int;
  mutable writes_corrupted : int;
  mutable stuck_events : int;
  mutable spikes : int;
  mutable jittered_ticks : int;
  mutable snapshots_corrupted : int;
  obs : Obs.t;
  m_dropped : Obs.counter;
  m_corrupted : Obs.counter;
  m_stuck : Obs.counter;
  m_spikes : Obs.counter;
  m_jitter : Obs.counter;
}

type t = active option

let none = None
let is_none t = Option.is_none t

let create ?(seed = 2005) ?(obs = Obs.null) cfg =
  Some
    {
      cfg;
      rng = Rng.create ~seed;
      ckpt_rng = Rng.create ~seed:(seed + 7919);
      latched = Hashtbl.create 8;
      writes_dropped = 0;
      writes_corrupted = 0;
      stuck_events = 0;
      spikes = 0;
      jittered_ticks = 0;
      snapshots_corrupted = 0;
      obs;
      m_dropped = Obs.counter obs "faults.writes_dropped";
      m_corrupted = Obs.counter obs "faults.writes_corrupted";
      m_stuck = Obs.counter obs "faults.stuck_events";
      m_spikes = Obs.counter obs "faults.spikes";
      m_jitter = Obs.counter obs "faults.jittered_ticks";
    }

let config t = match t with None -> no_faults | Some a -> a.cfg

let latched a ~cu ~now_instrs =
  match Hashtbl.find_opt a.latched cu with
  | None -> false
  | Some Stuck_forever -> true
  | Some (Stuck_until until) ->
      if now_instrs < until then true
      else begin
        Hashtbl.remove a.latched cu;
        false
      end

let cu_stuck t ~cu ~now_instrs =
  match t with None -> false | Some a -> latched a ~cu ~now_instrs

type write_outcome = Landed | Dropped | Corrupted of int

(* A corrupted write lands at a uniformly chosen *other* valid setting. *)
let corrupt_setting rng ~setting ~n_settings =
  let other = Rng.int rng (n_settings - 1) in
  if other >= setting then other + 1 else other

let maybe_latch a ~cu ~now_instrs =
  if a.cfg.stuck_permanent_p > 0.0 && Rng.bernoulli a.rng a.cfg.stuck_permanent_p
  then begin
    Hashtbl.replace a.latched cu Stuck_forever;
    a.stuck_events <- a.stuck_events + 1;
    Obs.incr a.obs a.m_stuck;
    if Obs.tracing a.obs then
      Obs.record a.obs (Obs.Fault { cu; what = "latch_permanent" })
  end
  else if
    a.cfg.stuck_transient_p > 0.0 && Rng.bernoulli a.rng a.cfg.stuck_transient_p
  then begin
    Hashtbl.replace a.latched cu
      (Stuck_until (now_instrs + a.cfg.stuck_transient_instrs));
    a.stuck_events <- a.stuck_events + 1;
    Obs.incr a.obs a.m_stuck;
    if Obs.tracing a.obs then Obs.record a.obs (Obs.Fault { cu; what = "latch" })
  end

let on_reg_write t ~cu ~now_instrs ~setting ~n_settings =
  match t with
  | None -> Landed
  | Some a ->
      if latched a ~cu ~now_instrs then begin
        a.writes_dropped <- a.writes_dropped + 1;
        Obs.incr a.obs a.m_dropped;
        if Obs.tracing a.obs then
          Obs.record a.obs (Obs.Fault { cu; what = "write_dropped" });
        Dropped
      end
      else if
        a.cfg.reg_write_drop_p > 0.0 && Rng.bernoulli a.rng a.cfg.reg_write_drop_p
      then begin
        a.writes_dropped <- a.writes_dropped + 1;
        Obs.incr a.obs a.m_dropped;
        if Obs.tracing a.obs then
          Obs.record a.obs (Obs.Fault { cu; what = "write_dropped" });
        Dropped
      end
      else if
        a.cfg.reg_write_corrupt_p > 0.0
        && n_settings > 1
        && Rng.bernoulli a.rng a.cfg.reg_write_corrupt_p
      then begin
        a.writes_corrupted <- a.writes_corrupted + 1;
        Obs.incr a.obs a.m_corrupted;
        if Obs.tracing a.obs then
          Obs.record a.obs (Obs.Fault { cu; what = "write_corrupted" });
        let wrong = corrupt_setting a.rng ~setting ~n_settings in
        maybe_latch a ~cu ~now_instrs;
        Corrupted wrong
      end
      else begin
        maybe_latch a ~cu ~now_instrs;
        Landed
      end

let perturb_cycles t ~cycles =
  match t with
  | None -> cycles
  | Some a ->
      let cycles =
        if a.cfg.profile_noise_cov <= 0.0 then cycles
        else begin
          (* Uniform multiplicative noise with the requested CoV: a uniform
             on [-h, h] has sigma = h/sqrt(3). *)
          let h = a.cfg.profile_noise_cov *. sqrt 3.0 in
          cycles *. (1.0 +. ((Rng.float a.rng 2.0 -. 1.0) *. h))
        end
      in
      if a.cfg.profile_spike_p > 0.0 && Rng.bernoulli a.rng a.cfg.profile_spike_p
      then begin
        a.spikes <- a.spikes + 1;
        Obs.incr a.obs a.m_spikes;
        if Obs.tracing a.obs then
          Obs.record a.obs (Obs.Fault { cu = "profile"; what = "spike" });
        cycles *. (1.0 +. a.cfg.profile_spike_mag)
      end
      else cycles

let jitter_period t ~period =
  match t with
  | None -> period
  | Some a ->
      if a.cfg.sampler_jitter_frac <= 0.0 then period
      else begin
        a.jittered_ticks <- a.jittered_ticks + 1;
        (* Counter only: a ring event per sampler tick would flood it. *)
        Obs.incr a.obs a.m_jitter;
        period
        *. (1.0 +. ((Rng.float a.rng 2.0 -. 1.0) *. a.cfg.sampler_jitter_frac))
      end

(* Monotone count of hardware-channel fault events (dropped/corrupted
   writes and latch-ups) — the faults that change the machine's effective
   configuration.  The phase-statistics cache polls this and invalidates
   itself when it moves; measurement-channel faults (noise, spikes, timer
   jitter) do not perturb the machine and are excluded. *)
let hw_fault_events t =
  match t with
  | None -> 0
  | Some a -> a.writes_dropped + a.writes_corrupted + a.stuck_events

let stats t =
  match t with
  | None ->
      {
        writes_dropped = 0;
        writes_corrupted = 0;
        stuck_events = 0;
        spikes = 0;
        jittered_ticks = 0;
        snapshots_corrupted = 0;
      }
  | Some a ->
      {
        writes_dropped = a.writes_dropped;
        writes_corrupted = a.writes_corrupted;
        stuck_events = a.stuck_events;
        spikes = a.spikes;
        jittered_ticks = a.jittered_ticks;
        snapshots_corrupted = a.snapshots_corrupted;
      }

let maybe_corrupt_snapshot t buf =
  match t with
  | None -> false
  | Some a ->
      if
        a.cfg.ckpt_corrupt_p > 0.0
        && Bytes.length buf > 0
        && Rng.bernoulli a.ckpt_rng a.cfg.ckpt_corrupt_p
      then begin
        let pos = Rng.int a.ckpt_rng (Bytes.length buf) in
        (* XOR with a nonzero mask so the byte is guaranteed to change. *)
        Bytes.set buf pos
          (Char.chr (Char.code (Bytes.get buf pos) lxor 0x55));
        a.snapshots_corrupted <- a.snapshots_corrupted + 1;
        true
      end
      else false

(* {2 Checkpoints} *)

(* A latch is its expiry, [None] for a permanent one; the table is written
   sorted by CU name. *)
let latched_codec =
  let open Ace_util.Codec in
  pair string
    (conv
       (function Stuck_forever -> None | Stuck_until n -> Some n)
       (function None -> Stuck_forever | Some n -> Stuck_until n)
       (option int))

let sync io t =
  let open Ace_util.Codec in
  sync_option io
    (fun io a ->
      Rng.sync io a.rng;
      Rng.sync io a.ckpt_rng;
      sync_hashtbl io latched_codec a.latched;
      a.writes_dropped <- sync io int a.writes_dropped;
      a.writes_corrupted <- sync io int a.writes_corrupted;
      a.stuck_events <- sync io int a.stuck_events;
      a.spikes <- sync io int a.spikes;
      a.jittered_ticks <- sync io int a.jittered_ticks;
      a.snapshots_corrupted <- sync io int a.snapshots_corrupted)
    t

(* The storage-I/O stream is host-side, like the checkpoint-corruption
   stream, but lives entirely outside [t]: filesystem faults hit the
   daemon and harness around the simulation, never the simulated machine,
   so they have no business in snapshot state.  A distinct offset keeps
   the stream decorrelated from both the engine stream ([seed]) and the
   corruption stream ([seed + 7919]). *)
let storage_io ?(seed = 2005) ~rate base =
  Io.faulty ~seed:(seed + 6271) (Io.fault_preset ~rate) base
