type t = {
  min_count : int;
  min_confidence : float;
  transitions : (int, (int, int ref) Hashtbl.t) Hashtbl.t;
  mutable n_predictions : int;
  mutable n_correct : int;
}

let create ?(min_count = 2) ?(min_confidence = 0.6) () =
  {
    min_count;
    min_confidence;
    transitions = Hashtbl.create 32;
    n_predictions = 0;
    n_correct = 0;
  }

let successors t prev =
  match Hashtbl.find_opt t.transitions prev with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 8 in
      Hashtbl.add t.transitions prev tbl;
      tbl

let observe t ~prev ~next =
  let tbl = successors t prev in
  match Hashtbl.find_opt tbl next with
  | Some r -> incr r
  | None -> Hashtbl.add tbl next (ref 1)

let predict t ~current =
  match Hashtbl.find_opt t.transitions current with
  | None -> None
  | Some tbl ->
      let total = ref 0 and best = ref (-1) and best_count = ref 0 in
      Hashtbl.iter
        (fun next count ->
          total := !total + !count;
          if !count > !best_count then begin
            best_count := !count;
            best := next
          end)
        tbl;
      if
        !best >= 0 && !best_count >= t.min_count
        && float_of_int !best_count
           >= t.min_confidence *. float_of_int !total
      then Some !best
      else None

let record_outcome t ~predicted ~actual =
  match predicted with
  | None -> ()
  | Some p ->
      t.n_predictions <- t.n_predictions + 1;
      if p = actual then t.n_correct <- t.n_correct + 1

let predictions t = t.n_predictions
let correct t = t.n_correct

let accuracy t =
  if t.n_predictions = 0 then 0.0
  else float_of_int t.n_correct /. float_of_int t.n_predictions

(* Successors sorted by phase id: hashtable iteration order is an
   artifact, and checkpoint bytes must be a pure function of the
   predictor's logical state. *)
let row_codec =
  let open Ace_util.Codec in
  pair int
    (conv
       (fun tbl ->
         List.sort compare (Hashtbl.fold (fun next r acc -> (next, !r) :: acc) tbl []))
       (fun succs ->
         let tbl = Hashtbl.create (max 8 (List.length succs)) in
         List.iter (fun (next, count) -> Hashtbl.add tbl next (ref count)) succs;
         tbl)
       (list (pair int int)))

let sync io t =
  let open Ace_util.Codec in
  sync_hashtbl io row_codec t.transitions;
  t.n_predictions <- sync io int t.n_predictions;
  t.n_correct <- sync io int t.n_correct
