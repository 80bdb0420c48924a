(* Injectable filesystem layer.

   Every durable write in the tree (snapshots, the serve spool, scratch
   cleanup) goes through one of these backends, so storage faults and
   crash points are injected in exactly one place instead of being
   sprinkled over call sites.  The passthrough backend is a record of
   direct syscall wrappers — no per-call allocation, so the snapshot hot
   path pays a closure call and nothing else. *)

type err = Enospc | Eio | Enoent | Eexist | Eother of string

exception Io_error of { op : string; path : string; err : err }
exception Crashed

let err_to_string = function
  | Enospc -> "ENOSPC"
  | Eio -> "EIO"
  | Enoent -> "ENOENT"
  | Eexist -> "EEXIST"
  | Eother msg -> msg

let error_message = function
  | Io_error { op; path; err } ->
      Some (Printf.sprintf "%s %s: %s" op path (err_to_string err))
  | _ -> None

let fail op path err = raise (Io_error { op; path; err })

type t = {
  p_read : string -> string;
  p_write : string -> string -> unit;
  p_fsync : string -> unit;
  p_rename : string -> string -> unit;
  p_remove : string -> unit;
  p_exists : string -> bool;
  p_readdir : string -> string array;
  p_mkdir : string -> unit;
  p_rmdir : string -> unit;
}

let read_file t path = t.p_read path
let write_file t path data = t.p_write path data
let fsync t path = t.p_fsync path
let rename t src dst = t.p_rename src dst
let remove t path = t.p_remove path
let exists t path = t.p_exists path
let readdir t path = t.p_readdir path
let mkdir t path = t.p_mkdir path
let rmdir t path = t.p_rmdir path

(* -- passthrough ---------------------------------------------------- *)

let err_of_unix = function
  | Unix.ENOSPC -> Enospc
  | Unix.EIO -> Eio
  | Unix.ENOENT -> Enoent
  | Unix.EEXIST -> Eexist
  | e -> Eother (Unix.error_message e)

let unix_fail op path e = fail op path (err_of_unix e)

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let real_read path =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (e, _, _) -> unix_fail "read" path e
  | fd ->
      Fun.protect
        ~finally:(fun () -> close_noerr fd)
        (fun () ->
          match
            let len = (Unix.fstat fd).Unix.st_size in
            let buf = Bytes.create len in
            let off = ref 0 in
            let eof = ref false in
            while (not !eof) && !off < len do
              let n = Unix.read fd buf !off (len - !off) in
              if n = 0 then eof := true else off := !off + n
            done;
            (* [buf] is ours alone: a whole read hands it over uncopied. *)
            if !off = len then Bytes.unsafe_to_string buf else Bytes.sub_string buf 0 !off
          with
          | data -> data
          | exception Unix.Unix_error (e, _, _) -> unix_fail "read" path e)

let real_write path data =
  match
    Unix.openfile path
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  with
  | exception Unix.Unix_error (e, _, _) -> unix_fail "write" path e
  | fd ->
      Fun.protect
        ~finally:(fun () -> close_noerr fd)
        (fun () ->
          let len = String.length data in
          let off = ref 0 in
          while !off < len do
            match Unix.write_substring fd data !off (len - !off) with
            | n -> off := !off + n
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | exception Unix.Unix_error (e, _, _) -> unix_fail "write" path e
          done)

let real_fsync path =
  match Unix.openfile path [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (e, _, _) -> unix_fail "fsync" path e
  | fd ->
      Fun.protect
        ~finally:(fun () -> close_noerr fd)
        (fun () ->
          try Unix.fsync fd
          with Unix.Unix_error (e, _, _) -> unix_fail "fsync" path e)

let real_readdir path =
  match Sys.readdir path with
  | names -> names
  | exception Sys_error msg ->
      fail "readdir" path (if Sys.file_exists path then Eother msg else Enoent)

let real =
  {
    p_read = real_read;
    p_write = real_write;
    p_fsync = real_fsync;
    p_rename =
      (fun src dst ->
        try Unix.rename src dst
        with Unix.Unix_error (e, _, _) -> unix_fail "rename" src e);
    p_remove =
      (fun path ->
        try Unix.unlink path
        with Unix.Unix_error (e, _, _) -> unix_fail "remove" path e);
    p_exists = Sys.file_exists;
    p_readdir = real_readdir;
    p_mkdir =
      (fun path ->
        try Unix.mkdir path 0o755
        with Unix.Unix_error (e, _, _) -> unix_fail "mkdir" path e);
    p_rmdir =
      (fun path ->
        try Unix.rmdir path
        with Unix.Unix_error (e, _, _) -> unix_fail "rmdir" path e);
  }

(* -- in-memory filesystem with page-cache crash semantics ----------- *)

module Mem = struct
  (* Two images of the tree: [cur] is what a running process observes,
     [dur] is what survives a [`Drop] crash.  The model is a journaling
     filesystem with ordered metadata: namespace operations (create,
     rename, unlink, mkdir) commit immediately in both images, while
     file *contents* stay volatile until an explicit fsync copies them
     into [dur].  [`Drop] is the adversarial reboot (all un-synced data
     gone — a created-but-never-synced file survives as an empty husk);
     [`Keep] is the lucky one (the kernel flushed everything first).
     Enumerating crash points under both brackets reality. *)
  type fs = {
    cur : (string, string) Hashtbl.t;
    dur : (string, string) Hashtbl.t;
    cur_dirs : (string, unit) Hashtbl.t;
    dur_dirs : (string, unit) Hashtbl.t;
  }

  let create () =
    {
      cur = Hashtbl.create 32;
      dur = Hashtbl.create 32;
      cur_dirs = Hashtbl.create 8;
      dur_dirs = Hashtbl.create 8;
    }

  type crash_mode = [ `Drop | `Keep ]

  let copy_into src dst =
    Hashtbl.reset dst;
    Hashtbl.iter (fun k v -> Hashtbl.replace dst k v) src

  let crash mode fs =
    match mode with
    | `Drop ->
        copy_into fs.dur fs.cur;
        copy_into fs.dur_dirs fs.cur_dirs
    | `Keep ->
        copy_into fs.cur fs.dur;
        copy_into fs.cur_dirs fs.dur_dirs

  let durable_files fs =
    Hashtbl.fold (fun path data acc -> (path, data) :: acc) fs.dur []
    |> List.sort compare

  let io fs =
    {
      p_read =
        (fun path ->
          match Hashtbl.find_opt fs.cur path with
          | Some data -> data
          | None -> fail "read" path Enoent);
      p_write =
        (fun path data ->
          Hashtbl.replace fs.cur path data;
          (* Creation is a namespace op (durable); the bytes are not. *)
          if not (Hashtbl.mem fs.dur path) then Hashtbl.replace fs.dur path "");
      p_fsync =
        (fun path ->
          match Hashtbl.find_opt fs.cur path with
          | Some data -> Hashtbl.replace fs.dur path data
          | None -> fail "fsync" path Enoent);
      p_rename =
        (fun src dst ->
          match Hashtbl.find_opt fs.cur src with
          | None -> fail "rename" src Enoent
          | Some data ->
              Hashtbl.remove fs.cur src;
              Hashtbl.replace fs.cur dst data;
              let d = Option.value ~default:"" (Hashtbl.find_opt fs.dur src) in
              Hashtbl.remove fs.dur src;
              Hashtbl.replace fs.dur dst d);
      p_remove =
        (fun path ->
          if not (Hashtbl.mem fs.cur path) then fail "remove" path Enoent;
          Hashtbl.remove fs.cur path;
          Hashtbl.remove fs.dur path);
      p_exists =
        (fun path -> Hashtbl.mem fs.cur path || Hashtbl.mem fs.cur_dirs path);
      p_readdir =
        (fun dir ->
          if not (Hashtbl.mem fs.cur_dirs dir) then fail "readdir" dir Enoent;
          let inside tbl =
            Hashtbl.fold
              (fun p () acc ->
                if Filename.dirname p = dir then Filename.basename p :: acc
                else acc)
              tbl []
          in
          let files =
            Hashtbl.fold
              (fun p _ acc ->
                if Filename.dirname p = dir then Filename.basename p :: acc
                else acc)
              fs.cur []
          in
          let names = files @ inside fs.cur_dirs in
          let a = Array.of_list names in
          Array.sort compare a;
          a);
      p_mkdir =
        (fun path ->
          if Hashtbl.mem fs.cur_dirs path || Hashtbl.mem fs.cur path then
            fail "mkdir" path Eexist;
          Hashtbl.replace fs.cur_dirs path ();
          Hashtbl.replace fs.dur_dirs path ());
      p_rmdir =
        (fun path ->
          if not (Hashtbl.mem fs.cur_dirs path) then fail "rmdir" path Enoent;
          let occupied =
            Hashtbl.fold
              (fun p _ acc -> acc || Filename.dirname p = path)
              fs.cur false
          in
          if occupied then fail "rmdir" path (Eother "directory not empty");
          Hashtbl.remove fs.cur_dirs path;
          Hashtbl.remove fs.dur_dirs path);
    }
end

(* -- seeded fault injection ----------------------------------------- *)

type fault_config = {
  write_enospc_p : float;
  write_eio_p : float;
  short_write_p : float;
  lost_fsync_p : float;
  fsync_eio_p : float;
  rename_eio_p : float;
  remove_eio_p : float;
  read_eio_p : float;
}

let no_io_faults =
  {
    write_enospc_p = 0.0;
    write_eio_p = 0.0;
    short_write_p = 0.0;
    lost_fsync_p = 0.0;
    fsync_eio_p = 0.0;
    rename_eio_p = 0.0;
    remove_eio_p = 0.0;
    read_eio_p = 0.0;
  }

(* Derived rates mirror [Ace_faults.Faults.preset]: one knob, with the
   noisier channels (writes) taking the base rate and the rarer real-world
   failures (fsync, rename) scaled down. *)
let fault_preset ~rate =
  {
    write_enospc_p = rate;
    write_eio_p = rate *. 0.5;
    short_write_p = rate *. 0.5;
    lost_fsync_p = rate *. 0.25;
    fsync_eio_p = rate *. 0.25;
    rename_eio_p = rate *. 0.25;
    remove_eio_p = rate *. 0.5;
    read_eio_p = rate *. 0.25;
  }

(* Draws happen only for non-zero probabilities so enabling one fault
   channel never perturbs another channel's sequence. *)
let draw rng p = p > 0.0 && Rng.bernoulli rng p

let faulty ?(seed = 1) cfg base =
  let rng = Rng.create ~seed in
  {
    p_read =
      (fun path ->
        if draw rng cfg.read_eio_p then fail "read" path Eio;
        base.p_read path);
    p_write =
      (fun path data ->
        if draw rng cfg.write_enospc_p then fail "write" path Enospc;
        if draw rng cfg.write_eio_p then fail "write" path Eio;
        if draw rng cfg.short_write_p then begin
          (* The disk filled mid-write: a prefix landed, the syscall
             errored.  The half-file is what recovery must cope with. *)
          let keep = Rng.int rng (String.length data + 1) in
          base.p_write path (String.sub data 0 keep);
          fail "write" path Enospc
        end;
        base.p_write path data);
    p_fsync =
      (fun path ->
        if draw rng cfg.fsync_eio_p then fail "fsync" path Eio;
        (* A lost fsync reports success without making the data durable —
           the classic firmware lie.  Only a crash can expose it. *)
        if draw rng cfg.lost_fsync_p then () else base.p_fsync path);
    p_rename =
      (fun src dst ->
        if draw rng cfg.rename_eio_p then fail "rename" src Eio;
        base.p_rename src dst);
    p_remove =
      (fun path ->
        if draw rng cfg.remove_eio_p then fail "remove" path Eio;
        base.p_remove path);
    p_exists = base.p_exists;
    p_readdir = base.p_readdir;
    p_mkdir = base.p_mkdir;
    p_rmdir = base.p_rmdir;
  }

let enospc_while pred base =
  {
    base with
    p_write =
      (fun path data ->
        if pred () then fail "write" path Enospc else base.p_write path data);
    p_mkdir =
      (fun path -> if pred () then fail "mkdir" path Enospc else base.p_mkdir path);
  }

let shuffled_readdir ~seed base =
  let rng = Rng.create ~seed in
  {
    base with
    p_readdir =
      (fun path ->
        let names = base.p_readdir path in
        Rng.shuffle rng names;
        names);
  }

(* -- crash-point instrumentation ------------------------------------ *)

type op_kind = Op_write | Op_fsync | Op_rename | Op_remove | Op_mkdir | Op_rmdir

type op = { op_kind : op_kind; op_path : string }

let op_kind_name = function
  | Op_write -> "write"
  | Op_fsync -> "fsync"
  | Op_rename -> "rename"
  | Op_remove -> "remove"
  | Op_mkdir -> "mkdir"
  | Op_rmdir -> "rmdir"

(* Only state-mutating operations are boundaries: a crash "before a read"
   is indistinguishable from a crash before the next mutation. *)
let recording base =
  let ops = ref [] in
  let tick op_kind op_path = ops := { op_kind; op_path } :: !ops in
  ( {
      base with
      p_write =
        (fun path data ->
          tick Op_write path;
          base.p_write path data);
      p_fsync =
        (fun path ->
          tick Op_fsync path;
          base.p_fsync path);
      p_rename =
        (fun src dst ->
          tick Op_rename dst;
          base.p_rename src dst);
      p_remove =
        (fun path ->
          tick Op_remove path;
          base.p_remove path);
      p_mkdir =
        (fun path ->
          tick Op_mkdir path;
          base.p_mkdir path);
      p_rmdir =
        (fun path ->
          tick Op_rmdir path;
          base.p_rmdir path);
    },
    fun () -> Array.of_list (List.rev !ops) )

let crash_at ~at ?(torn = false) base =
  let n = ref 0 in
  let dead = ref false in
  (* After the crash op, the "process" is gone: every further operation
     (reads included) raises, so nothing in the dying run can observe or
     repair state past the crash point. *)
  let alive () = if !dead then raise Crashed in
  let tick () =
    alive ();
    let i = !n in
    n := i + 1;
    if i = at then begin
      dead := true;
      true
    end
    else false
  in
  let boundary () = if tick () then raise Crashed in
  {
    p_read =
      (fun path ->
        alive ();
        base.p_read path);
    p_write =
      (fun path data ->
        if tick () then begin
          (* A torn crash point leaves a prefix of the write on disk —
             precisely half, so the torn file is deterministic. *)
          if torn then
            base.p_write path (String.sub data 0 (String.length data / 2));
          raise Crashed
        end;
        base.p_write path data);
    p_fsync =
      (fun path ->
        boundary ();
        base.p_fsync path);
    p_rename =
      (fun src dst ->
        boundary ();
        base.p_rename src dst);
    p_remove =
      (fun path ->
        boundary ();
        base.p_remove path);
    p_exists =
      (fun path ->
        alive ();
        base.p_exists path);
    p_readdir =
      (fun path ->
        alive ();
        base.p_readdir path);
    p_mkdir =
      (fun path ->
        boundary ();
        base.p_mkdir path);
    p_rmdir =
      (fun path ->
        boundary ();
        base.p_rmdir path);
  }
