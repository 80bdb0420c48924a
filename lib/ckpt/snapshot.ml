module Codec = Ace_util.Codec
module Crc32 = Ace_util.Crc32
module Io = Ace_util.Io
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

type scheme = Fixed_baseline | Hotspot | Bbv

let scheme_codec = enum "scheme" [ Fixed_baseline; Hotspot; Bbv ]

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

type t = { meta : meta; body : string; body_crc : int }

let malformed fmt = Printf.ksprintf (fun msg -> raise (Error (Malformed msg))) fmt

(* {2 Metadata}

   The meta record is the payload's first value; the body (every module's
   [sync] output, see [Ace_harness.Run]) follows it.  Changing either layout
   requires bumping {!version} below and regenerating the test fixtures. *)

let sample_config =
  let open Sample in
  let+ warmup = field int (fun c -> c.warmup)
  and+ repeats = field int (fun c -> c.repeats)
  and+ cov_bound = field float (fun c -> c.cov_bound)
  and+ recalibrate_every = field int (fun c -> c.recalibrate_every) in
  { warmup; repeats; cov_bound; recalibrate_every }

let meta_codec =
  let+ workload = field string (fun m -> m.workload)
  and+ scheme = field scheme_codec (fun m -> m.scheme)
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

(* A meta that decodes but describes no run the harness could build is as
   malformed as a bad tag. *)
let check_meta m =
  if not (Float.is_finite m.scale && m.scale > 0.0) then malformed "scale %g" m.scale;
  if m.checkpoint_every <= 0 then malformed "checkpoint cadence %d" m.checkpoint_every;
  (match m.fault_rate with
  | Some r when not (r >= 0.0 && r <= 1.0) -> malformed "fault rate %g" r
  | _ -> ());
  match Option.map Sample.validate_config m.sample with
  | Some (Error msg) -> malformed "sampling config: %s" msg
  | Some (Ok ()) | None -> ()

(* {2 Body} *)

let of_body meta body = { meta; body; body_crc = Crc32.string body }

let save meta f =
  let body, body_crc = Codec.save_crc f in
  { meta; body; body_crc }

let read_body t f = try Codec.load t.body f with Codec.Error msg -> malformed "%s" msg

let instrs t =
  if String.length t.body < 8 then malformed "body of %d bytes" (String.length t.body);
  Int64.to_int (String.get_int64_le t.body 0)

(* {2 Container format}

   magic "ACESNAP1" (8 bytes) | version u16 LE | payload length i64 LE |
   CRC-32 (IEEE) of the payload, i64 LE | payload bytes.

   The header is fixed-width so a truncated file is detected before any
   payload parsing, and the CRC covers exactly the bytes the decoder will
   read.  The payload is the meta record, then the body.  The container is
   allocated once at its final size and the payload copied into it once.
   Its CRC is the meta's combined with the body's, which came with the body,
   so writing hashes only the meta; reading hashes the whole payload. *)

let magic = "ACESNAP1"
let version = 4
(* v2: observability sink state.
   v3: sampling — meta config, engine ff state, sampler cache.
   v4: cluster-keyed sampler cache — variant keys, CPI statistics,
   per-method instruction lengths, cluster map, blocked counters. *)
let header_len = 8 + 2 + 8 + 8

let container t =
  let meta = to_string meta_codec t.meta in
  let meta_len = String.length meta and body_len = String.length t.body in
  let crc = Crc32.combine (Crc32.string meta) t.body_crc ~len:body_len in
  let b = Bytes.create (header_len + meta_len + body_len) in
  Bytes.blit_string magic 0 b 0 8;
  Bytes.set_uint16_le b 8 version;
  Bytes.set_int64_le b 10 (Int64.of_int (meta_len + body_len));
  Bytes.set_int64_le b 18 (Int64.of_int crc);
  Bytes.blit_string meta 0 b header_len meta_len;
  Bytes.blit_string t.body 0 b (header_len + meta_len) body_len;
  b

let encode t = Bytes.unsafe_to_string (container t)

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
  let crc = Crc32.update 0 s ~pos:header_len ~len:payload_len in
  if crc <> crc_stored then fail (Crc_mismatch { stored = crc_stored; computed = crc });
  let meta, pos =
    try prefix meta_codec s ~pos:header_len with Codec.Error msg -> fail (Malformed msg)
  in
  check_meta meta;
  (* The payload's CRC with the meta's taken out is the body's. *)
  let meta_crc = Crc32.update 0 s ~pos:header_len ~len:(pos - header_len) in
  {
    meta;
    body = String.sub s pos (len - pos);
    body_crc = Crc32.combine meta_crc crc ~len:(len - pos);
  }

(* {2 File I/O} *)

let fallback_path path = path ^ ".1"

let write ?(io = Io.real) ?(faults = Faults.none) ?(obs = Obs.null) ~path t =
  let data = container t in
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

let with_fallback ?(io = Io.real) ~path f =
  match f (read ~io ~path ()) with
  | x -> Some (x, `Primary)
  | exception Error _ -> (
      let fb = fallback_path path in
      if not (Io.exists io fb) then None
      else match f (read ~io ~path:fb ()) with
        | x -> Some (x, `Fallback)
        | exception Error _ -> None)

let read_with_fallback ?io ~path () = with_fallback ?io ~path Fun.id
