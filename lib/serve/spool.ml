module Crc32 = Ace_util.Crc32
module Io = Ace_util.Io
module Scratch = Ace_util.Scratch
module Snapshot = Ace_ckpt.Snapshot

type entry = { id : int; spec : Protocol.job_spec; snapshot_note : string option }

type scan_result = {
  next_id : int;
  pending : entry list;
  done_ids : int list;
  failed_ids : int list;
  refused : (int * string) list;
}

let job_file ~dir id ext = Filename.concat dir (Printf.sprintf "job-%06d.%s" id ext)
let spec_path ~dir id = job_file ~dir id "spec"
let snap_path ~dir id = job_file ~dir id "snap"
let result_path ~dir id = job_file ~dir id "result"
let failed_path ~dir id = job_file ~dir id "failed"

let ensure_dir ?(io = Io.real) dir =
  let rec mk d =
    if d <> "/" && d <> "." && not (Io.exists io d) then begin
      mk (Filename.dirname d);
      try Io.mkdir io d
      with Io.Io_error { err = Eexist; _ } -> ()
    end
  in
  mk dir

let write_atomic io path data =
  let tmp = path ^ ".tmp" in
  Io.write_file io tmp data;
  (* Durable before published: without the fsync, a post-crash directory
     can hold a correctly-named file whose bytes never hit the platter. *)
  Io.fsync io tmp;
  Io.rename io tmp path

let read_file io path =
  if not (Io.exists io path) then None else Some (Io.read_file io path)

(* A spec file is the magic, the CRC-32 of the payload (4 bytes LE), then
   the payload: the spec's codec bytes. *)
let spec_magic = "ACESPEC1"
let spec_header = String.length spec_magic + 4

let write_spec ?(io = Io.real) ~dir id spec =
  let payload = Protocol.encode_spec spec in
  let b = Buffer.create (spec_header + String.length payload) in
  Buffer.add_string b spec_magic;
  Buffer.add_int32_le b (Int32.of_int (Crc32.string payload));
  Buffer.add_string b payload;
  write_atomic io (spec_path ~dir id) (Buffer.contents b)

let read_spec data =
  if not (String.starts_with ~prefix:spec_magic data) then
    Error "no ACESPEC1 magic (specs in the older JSON format are not read)"
  else if String.length data < spec_header then Error "truncated header"
  else
    let payload =
      String.sub data spec_header (String.length data - spec_header)
    in
    let stored =
      Int32.to_int (String.get_int32_le data (String.length spec_magic))
      land 0xFFFF_FFFF
    in
    let computed = Crc32.string payload in
    if stored <> computed then
      Error
        (Printf.sprintf "CRC mismatch: stored %08x, computed %08x" stored
           computed)
    else
      match Protocol.decode_spec payload with
      | spec -> Ok spec
      | exception Protocol.Protocol_error msg -> Error msg

let settle ?(io = Io.real) ~dir id outcome =
  (match outcome with
  | `Result output -> write_atomic io (result_path ~dir id) output
  | `Failed reason -> write_atomic io (failed_path ~dir id) reason);
  Scratch.remove_existing ~io (Scratch.snapshot_family (snap_path ~dir id))

let read_result ?(io = Io.real) ~dir id = read_file io (result_path ~dir id)
let read_failed ?(io = Io.real) ~dir id = read_file io (failed_path ~dir id)

(* The typed snapshot errors let the supervisor distinguish "killed
   mid-write, fall back" (Truncated — routine under chaos) from anything
   that deserves a louder note. *)
let snapshot_note io ~dir id =
  let path = snap_path ~dir id in
  if not (Io.exists io path) then None
  else
    match Snapshot.read ~io ~path () with
    | (_ : Snapshot.t) -> None
    | exception Snapshot.Error e ->
        Some
          (Printf.sprintf "primary snapshot unusable (%s)"
             (Snapshot.error_to_string e))

let scan ?(io = Io.real) ~dir () =
  (* Sorted before parsing: readdir order is filesystem-defined (inode
     hash order on ext4, insertion order on tmpfs), and replay decisions
     must not depend on which filesystem hosts the spool. *)
  let names =
    let a = Io.readdir io dir in
    Array.sort compare a;
    a
  in
  let ids ext =
    Array.to_list names
    |> List.filter_map (fun name ->
           Scanf.sscanf_opt name "job-%06d.%s%!" (fun id e ->
               if e = ext then Some id else None))
    |> List.concat_map Option.to_list
  in
  let spec_ids = ids "spec" in
  let done_ids = ids "result" in
  let failed_ids = ids "failed" in
  let settled id = List.mem id done_ids || List.mem id failed_ids in
  let pending, refused =
    List.filter (fun id -> not (settled id)) spec_ids
    |> List.filter_map (fun id ->
           Option.map
             (fun data -> (id, read_spec data))
             (read_file io (spec_path ~dir id)))
    |> List.partition_map (function
         | id, Ok spec ->
             Either.Left { id; spec; snapshot_note = snapshot_note io ~dir id }
         | id, Error why -> Either.Right (id, why))
  in
  let next_id =
    1 + List.fold_left max 0 (spec_ids @ done_ids @ failed_ids)
  in
  { next_id; pending; done_ids; failed_ids; refused }
