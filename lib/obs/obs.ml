(* Observability sink: bounded event ring + metrics registry.

   Cost discipline: [incr] is a branch plus an int store and never
   allocates, so producers call it unconditionally.  Anything that takes a
   float or builds an event payload is gated at the call site (see the mli)
   because the native compiler boxes floats crossing a non-inlined call. *)

type level = Off | Metrics | Full

type kind =
  | Phase_enter of { id : int; name : string }
  | Phase_exit of { id : int; ipc : float }
  | Hotspot_promoted of { id : int; name : string }
  | Recompile of { id : int }
  | Trial_start of { id : int; cfg : string }
  | Trial_result of { id : int; cfg : string; energy : float; ipc : float }
  | Burn_in of { id : int; left : int }
  | Tuning_finished of { id : int; best : string; tested : int }
  | Drift_sample of { id : int; ipc : float; ref_ipc : float }
  | Retune of { id : int; drift : float }
  | Quarantine of { id : int }
  | Cu_failed of { cu : string }
  | Cu_recovered of { cu : string }
  | Reconfig of { cu : string; label : string; flushed : int }
  | Fault of { cu : string; what : string }
  | Ckpt_capture of { bytes : int }
  | Ckpt_restore of { instrs : int }
  | Job_state of { id : int; state : string }
  | Io_fault of { op : string; path : string }
  | Phase_splice of { id : int; instrs : int }

type event = { ts : int; kind : kind }

let kind_name = function
  | Phase_enter _ -> "phase_enter"
  | Phase_exit _ -> "phase_exit"
  | Hotspot_promoted _ -> "hotspot_promoted"
  | Recompile _ -> "recompile"
  | Trial_start _ -> "trial_start"
  | Trial_result _ -> "trial_result"
  | Burn_in _ -> "burn_in"
  | Tuning_finished _ -> "tuning_finished"
  | Drift_sample _ -> "drift_sample"
  | Retune _ -> "retune"
  | Quarantine _ -> "quarantine"
  | Cu_failed _ -> "cu_failed"
  | Cu_recovered _ -> "cu_recovered"
  | Reconfig _ -> "reconfig"
  | Fault _ -> "fault"
  | Ckpt_capture _ -> "ckpt_capture"
  | Ckpt_restore _ -> "ckpt_restore"
  | Job_state _ -> "job_state"
  | Io_fault _ -> "io_fault"
  | Phase_splice _ -> "phase_splice"

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float }

type histogram = {
  h_name : string;
  h_bounds : float array;
  h_counts : int array; (* length = bounds + 1; last bucket is overflow *)
  mutable h_total : int;
  mutable h_sum : float;
}

type t = {
  lvl : level;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  hists : (string, histogram) Hashtbl.t;
  cap : int;
  (* The ring keeps each event as its [event_codec] encoding, oldest first
     and back to back in [log], so a checkpoint copies the ring's bytes
     instead of encoding its events again.  Offsets are virtual: virtual
     offset [v] is byte [v - base] of [log], so moving the live bytes to the
     front of [log] moves only [base].  The stream is the virtual bytes
     [0, tail) recorded since creation or the last [clear]; each slot also
     keeps the stream's CRC-32 up to its event, so the ring's bytes have a
     CRC without being read again (see [ring_crc]).  All empty unless
     lvl = Full. *)
  mutable offs : int array; (* virtual start of each retained event, by ring slot *)
  mutable crcs : Bytes.t; (* stream CRC at each [offs], 4 bytes by slot *)
  mutable log : Bytes.t;
  mutable base : int;
  mutable tail : int; (* virtual end of the newest event *)
  mutable tail_crc : int; (* stream CRC at [tail] *)
  scratch : Buffer.t; (* one event's encoding on its way into [log] *)
  mutable start : int; (* ring slot of the oldest event *)
  mutable len : int;
  mutable n_dropped : int;
  mutable clock : unit -> int;
}

let dummy_event = { ts = 0; kind = Recompile { id = -1 } }

let create ?(capacity = 65536) lvl =
  let cap = if lvl = Full then max 1 capacity else 0 in
  {
    lvl;
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    hists = Hashtbl.create 8;
    cap;
    offs = [||];
    crcs = Bytes.empty;
    log = Bytes.empty;
    base = 0;
    tail = 0;
    tail_crc = 0;
    scratch = Buffer.create (if cap > 0 then 256 else 1);
    start = 0;
    len = 0;
    n_dropped = 0;
    clock = (fun () -> 0);
  }

let null = create Off
let level t = t.lvl
let enabled t = t.lvl <> Off
let tracing t = t.lvl = Full
let set_clock t f = if t.lvl <> Off then t.clock <- f
let now t = t.clock ()

(* -- registry ------------------------------------------------------- *)

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = { c_name = name; c_value = 0 } in
      if enabled t then Hashtbl.add t.counters name c;
      c

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
      let g = { g_name = name; g_value = 0.0 } in
      if enabled t then Hashtbl.add t.gauges name g;
      g

let increasing bounds =
  let ok = ref (Array.length bounds > 0) in
  for i = 1 to Array.length bounds - 1 do
    if not (bounds.(i) > bounds.(i - 1)) then ok := false
  done;
  !ok

let check_bounds name bounds =
  if Array.length bounds = 0 then
    invalid_arg (Printf.sprintf "Obs.histogram %s: empty bounds" name);
  if not (increasing bounds) then
    invalid_arg (Printf.sprintf "Obs.histogram %s: bounds not strictly increasing" name)

let histogram t name ~bounds =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      check_bounds name bounds;
      let h =
        {
          h_name = name;
          h_bounds = Array.copy bounds;
          h_counts = Array.make (Array.length bounds + 1) 0;
          h_total = 0;
          h_sum = 0.0;
        }
      in
      if enabled t then Hashtbl.add t.hists name h;
      h

let incr t c = if t.lvl <> Off then c.c_value <- c.c_value + 1
let add t c n = if t.lvl <> Off then c.c_value <- c.c_value + n
let set_gauge t g v = if t.lvl <> Off then g.g_value <- v

let bucket_of bounds v =
  let n = Array.length bounds in
  let i = ref 0 in
  while !i < n && v > bounds.(!i) do
    i := !i + 1
  done;
  !i

let observe t h v =
  if t.lvl <> Off then begin
    let b = bucket_of h.h_bounds v in
    h.h_counts.(b) <- h.h_counts.(b) + 1;
    h.h_total <- h.h_total + 1;
    h.h_sum <- h.h_sum +. v
  end

let counter_value c = c.c_value
let gauge_value g = g.g_value

type metric =
  | M_counter of string * int
  | M_gauge of string * float
  | M_histogram of string * float array * int array * int * float

let metric_name = function
  | M_counter (n, _) | M_gauge (n, _) | M_histogram (n, _, _, _, _) -> n

let metrics t =
  let acc = ref [] in
  Hashtbl.iter (fun _ c -> acc := M_counter (c.c_name, c.c_value) :: !acc) t.counters;
  Hashtbl.iter (fun _ g -> acc := M_gauge (g.g_name, g.g_value) :: !acc) t.gauges;
  Hashtbl.iter
    (fun _ h ->
      acc :=
        M_histogram
          (h.h_name, Array.copy h.h_bounds, Array.copy h.h_counts, h.h_total, h.h_sum)
        :: !acc)
    t.hists;
  List.sort (fun a b -> compare (metric_name a) (metric_name b)) !acc

(* -- event ring ----------------------------------------------------- *)

let kind_codec =
  let open Ace_util.Codec in
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

let event_codec =
  let open Ace_util.Codec in
  let+ ts = field int (fun ev -> ev.ts)
  and+ kind = field kind_codec (fun ev -> ev.kind) in
  { ts; kind }

let oldest t = if t.len = 0 then t.tail else t.offs.(t.start)

(* Room for [k] more bytes after the newest event.  The live bytes move to
   the front of the log: in place when they and the new event fill at most
   half of it, so the bytes recorded since the last move pay for each move;
   otherwise into a log twice their size. *)
let reserve t k =
  if t.tail - t.base + k > Bytes.length t.log then begin
    let lo = oldest t - t.base in
    let live = t.tail - t.base - lo in
    let dst =
      if 2 * (live + k) <= Bytes.length t.log then t.log
      else Bytes.create (2 * (live + k))
    in
    Bytes.blit t.log lo dst 0 live;
    t.log <- dst;
    t.base <- t.base + lo
  end

(* Ring slots run from 0 to [cap - 1]; [i < 2 * cap] here. *)
let slot t i = if i >= t.cap then i - t.cap else i

let push t ev =
  Buffer.clear t.scratch;
  Ace_util.Codec.append event_codec t.scratch ev;
  if t.len = t.cap then begin
    t.start <- slot t (t.start + 1);
    t.len <- t.len - 1;
    t.n_dropped <- t.n_dropped + 1
  end;
  let k = Buffer.length t.scratch in
  reserve t k;
  let at = t.tail - t.base and s = slot t (t.start + t.len) in
  Buffer.blit t.scratch 0 t.log at k;
  (* Allocated here, not in [create], so a sink that records nothing pays
     nothing for them: [oldest] and [ring_crc] read them only once an event
     is held. *)
  if Array.length t.offs = 0 then begin
    t.offs <- Array.make t.cap 0;
    t.crcs <- Bytes.create (4 * t.cap)
  end;
  t.offs.(s) <- t.tail;
  Bytes.set_int32_le t.crcs (4 * s) (Int32.of_int t.tail_crc);
  (* A read-only view for the length of the call, as [Digest.subbytes]
     takes one. *)
  t.tail_crc <-
    Ace_util.Crc32.update t.tail_crc (Bytes.unsafe_to_string t.log) ~pos:at ~len:k;
  t.tail <- t.tail + k;
  t.len <- t.len + 1

(* CRC-32 of the ring's bytes [oldest, tail): the stream's CRC at the tail
   with its CRC before the oldest event taken out. *)
let ring_crc t =
  if t.len = 0 then 0
  else
    let before = Int32.to_int (Bytes.get_int32_le t.crcs (4 * t.start)) in
    Ace_util.Crc32.combine before t.tail_crc ~len:(t.tail - t.offs.(t.start))

let record t kind = if t.lvl = Full then push t { ts = t.clock (); kind }
let event_count t = t.len
let dropped t = t.n_dropped

let events t =
  let lo = oldest t in
  let s = Bytes.sub_string t.log (lo - t.base) (t.tail - lo) in
  let rec decode pos acc =
    if pos = String.length s then List.rev acc
    else
      let ev, pos = Ace_util.Codec.prefix event_codec s ~pos in
      decode pos (ev :: acc)
  in
  decode 0 []

(* -- checkpoints ------------------------------------------------------ *)

let counter_codec =
  let open Ace_util.Codec in
  let+ c_name = field string (fun c -> c.c_name)
  and+ c_value = field int (fun c -> c.c_value) in
  { c_name; c_value }

let gauge_codec =
  let open Ace_util.Codec in
  let+ g_name = field string (fun g -> g.g_name)
  and+ g_value = field float (fun g -> g.g_value) in
  { g_name; g_value }

let histogram_codec =
  let open Ace_util.Codec in
  let+ h_name = field string (fun h -> h.h_name)
  and+ h_bounds = field (array float) (fun h -> h.h_bounds)
  and+ h_counts = field (array int) (fun h -> h.h_counts)
  and+ h_total = field int (fun h -> h.h_total)
  and+ h_sum = field float (fun h -> h.h_sum) in
  { h_name; h_bounds; h_counts; h_total; h_sum }

(* Registered cells sorted by name; read cells are folded into the live
   registry (producers hold the live cells), never swapped in. *)
let sync_cells io codec tbl name fold =
  let open Ace_util.Codec in
  let sorted () =
    List.sort
      (fun a b -> compare (name a) (name b))
      (Hashtbl.fold (fun _ c acc -> c :: acc) tbl [])
  in
  let cells = sync io (list codec) (if reading io then [] else sorted ()) in
  if reading io then List.iter fold cells

(* Reading makes the sink the image: cells the image lacks drop to zero, so
   a half-read image left by a refused snapshot cannot leak into the next. *)
let clear t =
  Hashtbl.iter (fun _ c -> c.c_value <- 0) t.counters;
  Hashtbl.iter (fun _ g -> g.g_value <- 0.0) t.gauges;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
      h.h_total <- 0;
      h.h_sum <- 0.0)
    t.hists;
  t.start <- 0;
  t.len <- 0;
  t.base <- 0;
  t.tail <- 0;
  t.tail_crc <- 0;
  t.n_dropped <- 0

let sync io t =
  let open Ace_util.Codec in
  if sync io bool (t.lvl <> Off) then begin
    if reading io then clear t;
    sync_cells io counter_codec t.counters
      (fun c -> c.c_name)
      (fun c -> (counter t c.c_name).c_value <- c.c_value);
    sync_cells io gauge_codec t.gauges
      (fun g -> g.g_name)
      (fun g -> (gauge t g.g_name).g_value <- g.g_value);
    sync_cells io histogram_codec t.hists
      (fun h -> h.h_name)
      (fun r ->
        if not (increasing r.h_bounds) then fail "histogram %s: bad bounds" r.h_name;
        let h = histogram t r.h_name ~bounds:r.h_bounds in
        let n = min (Array.length r.h_counts) (Array.length h.h_counts) in
        Array.blit r.h_counts 0 h.h_counts 0 n;
        h.h_total <- r.h_total;
        h.h_sum <- r.h_sum);
    (* The ring is written as the log's live bytes, oldest first, with
       their CRC; reading decodes every event, and a [Full] sink takes them
       back (truncated to its capacity, counting further drops). *)
    let n = sync_length io t.len in
    if reading io then
      for _ = 1 to n do
        let ev = sync io event_codec dummy_event in
        if t.lvl = Full then push t ev
      done
    else begin
      let lo = oldest t in
      write_encoded io t.log ~pos:(lo - t.base) ~len:(t.tail - lo) ~crc:(ring_crc t)
    end;
    let dropped = sync io int t.n_dropped in
    if reading io && t.lvl = Full then t.n_dropped <- t.n_dropped + dropped
  end
