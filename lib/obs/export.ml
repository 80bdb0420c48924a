(* Exporters: Chrome trace-event JSON, CSV, metrics CSV, and a
   human-readable report.  Determinism matters (golden tests, CI diffing):
   events are emitted in ring order, metrics in name order, and floats are
   always rendered with %.9g (non-finite collapsed to 0). *)

let fnum v = if Float.is_finite v then Printf.sprintf "%.9g" v else "0"

(* -- Chrome trace-event JSON ---------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* The trace format wants microsecond timestamps; we map one instruction to
   one microsecond so Perfetto's time axis reads as instruction count. *)

let chrome t =
  let evs = Obs.events t in
  let buf = Buffer.create 4096 in
  let first = ref true in
  let emit s =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf "\n  ";
    Buffer.add_string buf s
  in
  (* Method id -> name, prefilled so exits seen before their (dropped)
     enters still label correctly. *)
  let meth_names = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      match ev.Obs.kind with
      | Obs.Phase_enter { id; name } | Obs.Hotspot_promoted { id; name } ->
          if not (Hashtbl.mem meth_names id) then Hashtbl.add meth_names id name
      | _ -> ())
    evs;
  let meth_name id =
    match Hashtbl.find_opt meth_names id with
    | Some n -> n
    | None -> Printf.sprintf "m%d" id
  in
  (* Track (thread) ids, assigned lazily; each assignment emits the "M"
     thread_name metadata record. *)
  let tids = Hashtbl.create 16 in
  let next_tid = ref 0 in
  let tid track =
    match Hashtbl.find_opt tids track with
    | Some n -> n
    | None ->
        let n = !next_tid in
        next_tid := n + 1;
        Hashtbl.add tids track n;
        emit
          (Printf.sprintf
             "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
             n (json_escape track));
        n
  in
  let span ~track ~name ~ts ~dur ~args =
    emit
      (Printf.sprintf
         "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":1,\"tid\":%d,\"args\":{%s}}"
         (json_escape name) ts dur (tid track) args)
  in
  let instant ~track ~name ~ts ~args =
    emit
      (Printf.sprintf
         "{\"name\":\"%s\",\"ph\":\"i\",\"ts\":%d,\"pid\":1,\"tid\":%d,\"s\":\"t\",\"args\":{%s}}"
         (json_escape name) ts (tid track) args)
  in
  let last_ts = List.fold_left (fun _ ev -> ev.Obs.ts) 0 evs in
  (* Per-method open-phase stacks (LIFO: recursion nests) and pending
     tuning trials, paired into "X" complete events. *)
  let open_phases : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let pending_trials : (int, int * string) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      let ts = ev.Obs.ts in
      match ev.Obs.kind with
      | Obs.Phase_enter { id; _ } ->
          let stack =
            match Hashtbl.find_opt open_phases id with
            | Some s -> s
            | None ->
                let s = ref [] in
                Hashtbl.add open_phases id s;
                s
          in
          stack := ts :: !stack
      | Obs.Phase_exit { id; ipc } ->
          let ts0 =
            match Hashtbl.find_opt open_phases id with
            | Some ({ contents = t0 :: rest } as s) ->
                s := rest;
                t0
            | _ -> ts
          in
          span
            ~track:("phase:" ^ meth_name id)
            ~name:(meth_name id) ~ts:ts0 ~dur:(ts - ts0)
            ~args:(Printf.sprintf "\"ipc\":%s" (fnum ipc))
      | Obs.Trial_start { id; cfg } -> Hashtbl.replace pending_trials id (ts, cfg)
      | Obs.Trial_result { id; cfg; energy; ipc } ->
          let ts0, _ =
            match Hashtbl.find_opt pending_trials id with
            | Some p ->
                Hashtbl.remove pending_trials id;
                p
            | None -> (ts, cfg)
          in
          span
            ~track:("tuning:" ^ meth_name id)
            ~name:cfg ~ts:ts0 ~dur:(ts - ts0)
            ~args:
              (Printf.sprintf "\"energy\":%s,\"ipc\":%s" (fnum energy) (fnum ipc))
      | Obs.Hotspot_promoted { id; name } ->
          instant
            ~track:("phase:" ^ meth_name id)
            ~name:"hotspot_promoted" ~ts
            ~args:(Printf.sprintf "\"method\":\"%s\"" (json_escape name))
      | Obs.Recompile { id } ->
          instant ~track:("phase:" ^ meth_name id) ~name:"recompile" ~ts ~args:""
      | Obs.Burn_in { id; left } ->
          instant
            ~track:("tuning:" ^ meth_name id)
            ~name:"burn_in" ~ts
            ~args:(Printf.sprintf "\"left\":%d" left)
      | Obs.Tuning_finished { id; best; tested } ->
          instant
            ~track:("tuning:" ^ meth_name id)
            ~name:"tuning_finished" ~ts
            ~args:
              (Printf.sprintf "\"best\":\"%s\",\"tested\":%d" (json_escape best)
                 tested)
      | Obs.Drift_sample { id; ipc; ref_ipc } ->
          instant
            ~track:("tuning:" ^ meth_name id)
            ~name:"drift_sample" ~ts
            ~args:
              (Printf.sprintf "\"ipc\":%s,\"ref_ipc\":%s" (fnum ipc)
                 (fnum ref_ipc))
      | Obs.Retune { id; drift } ->
          instant
            ~track:("tuning:" ^ meth_name id)
            ~name:"retune" ~ts
            ~args:(Printf.sprintf "\"drift\":%s" (fnum drift))
      | Obs.Quarantine { id } ->
          instant ~track:("tuning:" ^ meth_name id) ~name:"quarantine" ~ts ~args:""
      | Obs.Cu_failed { cu } ->
          instant ~track:"hw" ~name:"cu_failed" ~ts
            ~args:(Printf.sprintf "\"cu\":\"%s\"" (json_escape cu))
      | Obs.Cu_recovered { cu } ->
          instant ~track:"hw" ~name:"cu_recovered" ~ts
            ~args:(Printf.sprintf "\"cu\":\"%s\"" (json_escape cu))
      | Obs.Reconfig { cu; label; flushed } ->
          instant ~track:"hw" ~name:"reconfig" ~ts
            ~args:
              (Printf.sprintf "\"cu\":\"%s\",\"to\":\"%s\",\"flushed\":%d"
                 (json_escape cu) (json_escape label) flushed)
      | Obs.Fault { cu; what } ->
          instant ~track:"hw" ~name:"fault" ~ts
            ~args:
              (Printf.sprintf "\"cu\":\"%s\",\"what\":\"%s\"" (json_escape cu)
                 (json_escape what))
      | Obs.Ckpt_capture { bytes } ->
          instant ~track:"ckpt" ~name:"ckpt_capture" ~ts
            ~args:(Printf.sprintf "\"bytes\":%d" bytes)
      | Obs.Ckpt_restore { instrs } ->
          instant ~track:"ckpt" ~name:"ckpt_restore" ~ts
            ~args:(Printf.sprintf "\"instrs\":%d" instrs)
      | Obs.Job_state { id; state } ->
          instant
            ~track:(Printf.sprintf "serve:job %d" id)
            ~name:state ~ts
            ~args:(Printf.sprintf "\"job\":%d" id)
      | Obs.Io_fault { op; path } ->
          instant ~track:"io" ~name:"io_fault" ~ts
            ~args:
              (Printf.sprintf "\"op\":\"%s\",\"path\":\"%s\"" (json_escape op)
                 (json_escape path))
      | Obs.Phase_splice { id; instrs } ->
          (* The region ends at [ts]; render it as a span covering the
             replayed instruction range so sampled regions are visually
             distinct from simulated ones on the timeline. *)
          span ~track:"sample" ~name:(meth_name id) ~ts:(ts - instrs)
            ~dur:instrs
            ~args:(Printf.sprintf "\"instrs\":%d" instrs))
    evs;
  (* Close whatever is still open at the end of the timeline. *)
  let leftovers = ref [] in
  Hashtbl.iter
    (fun id s -> List.iter (fun ts0 -> leftovers := (ts0, id, None) :: !leftovers) !s)
    open_phases;
  Hashtbl.iter
    (fun id (ts0, cfg) -> leftovers := (ts0, id, Some cfg) :: !leftovers)
    pending_trials;
  List.iter
    (fun (ts0, id, cfg) ->
      match cfg with
      | None ->
          span
            ~track:("phase:" ^ meth_name id)
            ~name:(meth_name id) ~ts:ts0 ~dur:(last_ts - ts0) ~args:""
      | Some cfg ->
          span
            ~track:("tuning:" ^ meth_name id)
            ~name:cfg ~ts:ts0 ~dur:(last_ts - ts0) ~args:"")
    (List.sort compare !leftovers);
  Printf.sprintf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[%s\n]}\n"
    (Buffer.contents buf)

(* -- event CSV ------------------------------------------------------ *)

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

(* Shared per-kind field projection: (id, label, a, b), empties omitted. *)
let csv_fields = function
  | Obs.Phase_enter { id; name } -> (string_of_int id, name, "", "")
  | Obs.Phase_exit { id; ipc } -> (string_of_int id, "", fnum ipc, "")
  | Obs.Hotspot_promoted { id; name } -> (string_of_int id, name, "", "")
  | Obs.Recompile { id } -> (string_of_int id, "", "", "")
  | Obs.Trial_start { id; cfg } -> (string_of_int id, cfg, "", "")
  | Obs.Trial_result { id; cfg; energy; ipc } ->
      (string_of_int id, cfg, fnum energy, fnum ipc)
  | Obs.Burn_in { id; left } -> (string_of_int id, "", string_of_int left, "")
  | Obs.Tuning_finished { id; best; tested } ->
      (string_of_int id, best, string_of_int tested, "")
  | Obs.Drift_sample { id; ipc; ref_ipc } ->
      (string_of_int id, "", fnum ipc, fnum ref_ipc)
  | Obs.Retune { id; drift } -> (string_of_int id, "", fnum drift, "")
  | Obs.Quarantine { id } -> (string_of_int id, "", "", "")
  | Obs.Cu_failed { cu } -> ("", cu, "", "")
  | Obs.Cu_recovered { cu } -> ("", cu, "", "")
  | Obs.Reconfig { cu; label; flushed } ->
      ("", cu ^ "=" ^ label, string_of_int flushed, "")
  | Obs.Fault { cu; what } ->
      ("", (if cu = "" then what else cu ^ ":" ^ what), "", "")
  | Obs.Ckpt_capture { bytes } -> ("", "", string_of_int bytes, "")
  | Obs.Ckpt_restore { instrs } -> ("", "", string_of_int instrs, "")
  | Obs.Job_state { id; state } -> (string_of_int id, state, "", "")
  | Obs.Io_fault { op; path } -> ("", op ^ ":" ^ path, "", "")
  | Obs.Phase_splice { id; instrs } ->
      (string_of_int id, "", string_of_int instrs, "")

let csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "ts,kind,id,label,a,b\n";
  List.iter
    (fun ev ->
      let id, label, a, b = csv_fields ev.Obs.kind in
      Buffer.add_string buf
        (Printf.sprintf "%d,%s,%s,%s,%s,%s\n" ev.Obs.ts
           (Obs.kind_name ev.Obs.kind) id (csv_escape label) a b))
    (Obs.events t);
  Buffer.contents buf

(* -- metrics CSV ---------------------------------------------------- *)

let metrics_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "metric,type,value\n";
  List.iter
    (function
      | Obs.M_counter (name, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s,counter,%d\n" (csv_escape name) v)
      | Obs.M_gauge (name, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s,gauge,%s\n" (csv_escape name) (fnum v))
      | Obs.M_histogram (name, bounds, counts, total, sum) ->
          Array.iteri
            (fun i bound ->
              Buffer.add_string buf
                (Printf.sprintf "%s.le_%s,bucket,%d\n" (csv_escape name)
                   (fnum bound) counts.(i)))
            bounds;
          Buffer.add_string buf
            (Printf.sprintf "%s.le_inf,bucket,%d\n" (csv_escape name)
               counts.(Array.length counts - 1));
          Buffer.add_string buf
            (Printf.sprintf "%s.count,count,%d\n" (csv_escape name) total);
          Buffer.add_string buf
            (Printf.sprintf "%s.sum,sum,%s\n" (csv_escape name) (fnum sum)))
    (Obs.metrics t);
  Buffer.contents buf

(* -- human-readable report ------------------------------------------ *)

let report t =
  let ms = Obs.metrics t in
  let counter name =
    List.fold_left
      (fun acc m ->
        match m with Obs.M_counter (n, v) when n = name -> v | _ -> acc)
      0 ms
  in
  let gauge name =
    List.fold_left
      (fun acc m ->
        match m with Obs.M_gauge (n, v) when n = name -> v | _ -> acc)
      0.0 ms
  in
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let instrs = gauge "engine.instrs" in
  line "ACE observability report";
  line "========================";
  line "instructions        : %.0f" instrs;
  line "overall IPC         : %s" (fnum (gauge "engine.ipc"));
  line "events recorded     : %d (%d dropped)" (Obs.event_count t) (Obs.dropped t);
  line "";
  let resizes = counter "mem.l1d.resizes" + counter "mem.l2.resizes" in
  let per_100k =
    if instrs > 0.0 then float_of_int resizes /. instrs *. 100_000.0 else 0.0
  in
  line "activity";
  line "  method entries    : %d" (counter "engine.method_entries");
  line "  hotspot promotions: %d" (counter "engine.hotspot_promotions");
  line "  recompiles        : %d" (counter "engine.recompiles");
  line "  tuning trials     : %d started, %d measured"
    (counter "tuner.trials_started")
    (counter "tuner.trial_results");
  line "  tunings finished  : %d" (counter "tuner.rounds_finished");
  line "  retunes           : %d (%d quarantined)" (counter "tuner.retunes")
    (counter "tuner.quarantines");
  line "  cache resizes     : %d (%.3f per 100K instrs)" resizes per_100k;
  line "  CU failures       : %d failed, %d recovered" (counter "fw.cu_failures")
    (counter "fw.cu_recoveries");
  line "  faults injected   : %d dropped, %d corrupted, %d stuck, %d spikes"
    (counter "faults.writes_dropped")
    (counter "faults.writes_corrupted")
    (counter "faults.stuck_events")
    (counter "faults.spikes");
  line "  sampled regions   : %d spliced (%d instrs memoized)"
    (counter "sample.splices")
    (counter "sample.spliced_instrs");
  line "";
  line "metrics";
  List.iter
    (function
      | Obs.M_counter (name, v) -> line "  %-28s %d" name v
      | Obs.M_gauge (name, v) -> line "  %-28s %s" name (fnum v)
      | Obs.M_histogram (name, bounds, counts, total, sum) ->
          line "  %-28s count=%d sum=%s" name total (fnum sum);
          Array.iteri
            (fun i bound -> line "    <= %-8s %d" (fnum bound) counts.(i))
            bounds;
          line "    >  %-8s %d"
            (fnum bounds.(Array.length bounds - 1))
            counts.(Array.length counts - 1))
    ms;
  let evs = Obs.events t in
  let n = List.length evs in
  if n > 0 then begin
    line "";
    line "timeline tail (last %d of %d events)" (min 12 n) n;
    let tail =
      let rec drop k l = if k <= 0 then l else match l with [] -> [] | _ :: r -> drop (k - 1) r in
      drop (n - 12) evs
    in
    List.iter
      (fun ev ->
        let id, label, a, b = csv_fields ev.Obs.kind in
        let parts =
          List.filter (fun (_, v) -> v <> "")
            [ ("id", id); ("label", label); ("a", a); ("b", b) ]
        in
        line "  %10d  %-18s %s" ev.Obs.ts
          (Obs.kind_name ev.Obs.kind)
          (String.concat " "
             (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) parts)))
      tail
  end;
  Buffer.contents buf

(* -- Export files --------------------------------------------------- *)

let sink level ~trace ~metrics =
  let needed =
    if trace <> None then Obs.Full
    else if metrics <> None then Obs.Metrics
    else Obs.Off
  in
  (* Levels are declared Off < Metrics < Full. *)
  match max level needed with Obs.Off -> Obs.null | l -> Obs.create l

let write_file path s =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc s;
      flush oc)

let write ~trace ~metrics obs =
  Option.iter
    (fun path ->
      write_file path
        (if Filename.check_suffix path ".csv" then csv obs else chrome obs))
    trace;
  Option.iter (fun path -> write_file path (metrics_csv obs)) metrics
