type t = {
  threshold : float;
  mutable signatures : float array array;  (* indexed by phase id *)
  mutable n_signatures : int;
  mutable counts : int array;  (* intervals per phase *)
  mutable n_intervals : int;
  mutable n_stable : int;
  mutable cur_phase : int;
  mutable cur_run : int;
}

let create ?(threshold = 0.15) () =
  {
    threshold;
    signatures = Array.make 16 [||];
    n_signatures = 0;
    counts = Array.make 16 0;
    n_intervals = 0;
    n_stable = 0;
    cur_phase = -1;
    cur_run = 0;
  }

let grow t =
  let cap = Array.length t.signatures in
  if t.n_signatures >= cap then begin
    let signatures = Array.make (cap * 2) [||] in
    Array.blit t.signatures 0 signatures 0 cap;
    t.signatures <- signatures;
    let counts = Array.make (cap * 2) 0 in
    Array.blit t.counts 0 counts 0 cap;
    t.counts <- counts
  end

let nearest t vec =
  let best = ref (-1) and best_d = ref infinity in
  for i = 0 to t.n_signatures - 1 do
    let d = Ace_util.Stats.manhattan t.signatures.(i) vec in
    if d < !best_d then begin
      best_d := d;
      best := i
    end
  done;
  (!best, !best_d)

(* Blend factor for updating a matched signature toward the new vector. *)
let signature_alpha = 0.3

let classify t vec =
  let phase =
    let id, d = nearest t vec in
    if id >= 0 && d < t.threshold then begin
      let s = t.signatures.(id) in
      Array.iteri
        (fun i v -> s.(i) <- ((1.0 -. signature_alpha) *. s.(i)) +. (signature_alpha *. v))
        vec;
      id
    end
    else begin
      grow t;
      let id = t.n_signatures in
      t.signatures.(id) <- Array.copy vec;
      t.n_signatures <- id + 1;
      id
    end
  in
  t.n_intervals <- t.n_intervals + 1;
  t.counts.(phase) <- t.counts.(phase) + 1;
  if phase = t.cur_phase then begin
    t.cur_run <- t.cur_run + 1;
    (* The run's first interval becomes stable retroactively. *)
    t.n_stable <- t.n_stable + (if t.cur_run = 2 then 2 else 1)
  end
  else begin
    t.cur_phase <- phase;
    t.cur_run <- 1
  end;
  phase

let phase_count t = t.n_signatures
let intervals t = t.n_intervals
let stable_intervals t = t.n_stable
let transitional_intervals t = t.n_intervals - t.n_stable
let current_phase t = t.cur_phase
let current_run t = t.cur_run
let phase_intervals t id = t.counts.(id)

let signature_codec = Ace_util.Codec.(array float)

(* Live signatures only: the tables' spare capacity is not state. *)
let sync io t =
  let open Ace_util.Codec in
  let n = sync_length io t.n_signatures in
  if reading io then begin
    t.signatures <- Array.make (max 16 n) [||];
    t.counts <- Array.make (max 16 n) 0;
    t.n_signatures <- n
  end;
  for i = 0 to n - 1 do
    t.signatures.(i) <- sync io signature_codec t.signatures.(i)
  done;
  if sync_length io n <> n then fail "%d phase signatures but other counts" n;
  for i = 0 to n - 1 do
    t.counts.(i) <- sync io int t.counts.(i)
  done;
  t.n_intervals <- sync io int t.n_intervals;
  t.n_stable <- sync io int t.n_stable;
  t.cur_phase <- sync io int t.cur_phase;
  t.cur_run <- sync io int t.cur_run
