module Snapshot = Ace_ckpt.Snapshot
module Run = Ace_harness.Run
module Soak = Ace_harness.Soak
module Scheme = Ace_harness.Scheme

let compress () = Option.get (Ace_workloads.Specjvm.find "compress")

let tmp_path () = Filename.temp_file "ace_ckpt_test" ".snap"

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".1"; path ^ ".tmp"; path ^ ".baseline"; path ^ ".baseline.1" ]

(* Real snapshots from a small checkpointed run — the codec tests exercise
   the exact states production runs produce, not hand-built toys. *)
let sample_snapshots ?(scheme = Scheme.Hotspot) ?fault_rate () =
  let path = tmp_path () in
  let snaps = ref [] in
  let outcome =
    Run.run_checkpointed ~scale:0.2 ~seed:3 ?fault_rate
      ~on_snapshot:(fun s -> snaps := s :: !snaps)
      ~checkpoint_every:2_000_000 ~path (compress ()) scheme
  in
  cleanup path;
  match outcome with
  | Run.Completed r -> (List.rev !snaps, r)
  | Run.Killed_at _ -> assert false

let snaps_equal a b = Stdlib.compare (a : Snapshot.t) b = 0

(* A snapshot restored into a freshly built run and captured again must be
   the same snapshot: every [sync] reads back exactly what it wrote.  The
   container round trip is checked on the way. *)
let check_roundtrip ~what s =
  if not (snaps_equal s (Snapshot.decode (Snapshot.encode s))) then
    Alcotest.failf "%s: decode (encode s) <> s" what;
  if not (snaps_equal s (Run.capture (Run.restore s))) then
    Alcotest.failf "%s: capture (restore s) <> s" what

let test_codec_roundtrip () =
  List.iter
    (fun scheme ->
      let snaps, _ = sample_snapshots ~scheme () in
      Alcotest.(check bool) "run produced checkpoints" true (snaps <> []);
      List.iter (check_roundtrip ~what:(Scheme.name scheme)) snaps)
    [ Scheme.Fixed_baseline; Scheme.Hotspot; Scheme.Bbv ]

let test_codec_roundtrip_faulty () =
  let snaps, _ = sample_snapshots ~fault_rate:0.05 () in
  List.iter
    (fun s ->
      (* The rebuilt run has an injector, so its state must be in the body
         for the restore in [check_roundtrip] to succeed. *)
      Alcotest.(check bool) "faults captured" true
        (s.Snapshot.meta.Snapshot.fault_rate <> None);
      check_roundtrip ~what:"faults" s)
    snaps

let expect_error ~what data =
  match Snapshot.decode data with
  | exception Snapshot.Error _ -> ()
  | _ -> Alcotest.failf "decode accepted %s" what

let patch data pos f =
  let b = Bytes.of_string data in
  Bytes.set b pos (Char.chr (f (Char.code (Bytes.get b pos))));
  Bytes.to_string b

let test_container_refuses_tampering () =
  let snaps, _ = sample_snapshots () in
  let data = Snapshot.encode (List.hd snaps) in
  ignore (Snapshot.decode data);
  expect_error ~what:"empty file" "";
  expect_error ~what:"truncated header" (String.sub data 0 10);
  expect_error ~what:"truncated payload" (String.sub data 0 (String.length data - 1));
  expect_error ~what:"bad magic" (patch data 0 (fun c -> c lxor 0xff));
  (* Version skew: a byte-identical payload under a bumped version number
     must be refused, not misparsed. *)
  expect_error ~what:"bumped version" (patch data 8 (fun c -> c + 1));
  (* One flipped payload byte fails the CRC. *)
  expect_error ~what:"flipped payload byte"
    (patch data (String.length data - 1) (fun c -> c lxor 0x01));
  (* Flipping the stored CRC itself is also caught. *)
  expect_error ~what:"flipped CRC" (patch data 20 (fun c -> c lxor 0x01))

let expect_typed ~what matches data =
  match Snapshot.decode data with
  | exception Snapshot.Error e ->
      if not (matches e) then
        Alcotest.failf "%s: wrong error class: %s" what (Snapshot.error_to_string e)
  | _ -> Alcotest.failf "decode accepted %s" what

(* Each corruption class maps to its own typed error, so callers (the serve
   supervisor in particular) can tell a crash-truncated snapshot apart from
   bit rot or a format change. *)
let test_typed_errors () =
  let snaps, _ = sample_snapshots () in
  let data = Snapshot.encode (List.hd snaps) in
  expect_typed ~what:"empty input"
    (function Snapshot.Truncated { got = 0; _ } -> true | _ -> false)
    "";
  expect_typed ~what:"partial header"
    (function Snapshot.Truncated _ -> true | _ -> false)
    (String.sub data 0 10);
  expect_typed ~what:"partial payload"
    (function Snapshot.Truncated _ -> true | _ -> false)
    (String.sub data 0 (String.length data - 5));
  expect_typed ~what:"bad magic"
    (function Snapshot.Bad_magic -> true | _ -> false)
    (patch data 0 (fun c -> c lxor 0xff));
  expect_typed ~what:"version skew"
    (function
      | Snapshot.Version_skew { expected; found } ->
          expected = Snapshot.version && found = Snapshot.version + 1
      | _ -> false)
    (patch data 8 (fun c -> c + 1));
  expect_typed ~what:"payload corruption"
    (function
      | Snapshot.Crc_mismatch { stored; computed } -> stored <> computed
      | _ -> false)
    (patch data (String.length data - 1) (fun c -> c lxor 0x01));
  (* A meta that decodes but scales its workload by a non-positive or
     non-finite factor describes no run. *)
  let s = List.hd snaps in
  List.iter
    (fun scale ->
      expect_typed
        ~what:(Printf.sprintf "scale %g" scale)
        (function Snapshot.Malformed _ -> true | _ -> false)
        (Snapshot.encode
           (Snapshot.of_body { s.Snapshot.meta with Snapshot.scale } s.Snapshot.body)))
    [ 0.0; -1.0; Float.nan; Float.infinity ]

(* A daemon crash mid-write leaves zero-byte or partial snapshot files; the
   restarted supervisor must see [Truncated] from [read] (and skip the file)
   rather than an untyped failure. *)
let test_read_truncated_file () =
  let snaps, _ = sample_snapshots () in
  let data = Snapshot.encode (List.hd snaps) in
  let path = tmp_path () in
  let write s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  let expect_truncated what =
    match Snapshot.read ~path () with
    | exception Snapshot.Error (Snapshot.Truncated _) -> ()
    | exception Snapshot.Error e ->
        Alcotest.failf "%s: wrong error class: %s" what (Snapshot.error_to_string e)
    | _ -> Alcotest.failf "%s: read accepted it" what
  in
  write "";
  expect_truncated "zero-byte file";
  write (String.sub data 0 (String.length data / 2));
  expect_truncated "half-written file";
  cleanup path

let test_golden_snapshot () =
  (* A committed snapshot from an older build must keep decoding: the format
     is versioned, so any layout change has to bump Snapshot.version (which
     makes this test fail until the golden file is regenerated). *)
  let ic = open_in_bin "golden.snap" in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let s = Snapshot.decode data in
  Alcotest.(check string) "workload" "compress" s.Snapshot.meta.Snapshot.workload;
  Alcotest.(check bool) "hotspot scheme" true
    (s.Snapshot.meta.Snapshot.scheme = Snapshot.Hotspot);
  Alcotest.(check bool) "mid-run position" true (Snapshot.instrs s > 0);
  expect_error ~what:"bumped-version golden" (patch data 8 (fun c -> c + 1));
  expect_error ~what:"corrupted golden" (patch data 60 (fun c -> c lxor 0x20))

let read_fixture name =
  let ic = open_in_bin name in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  data

(* golden.snap pins the engine, framework and obs sections; golden_bbv.snap
   adds the fault-injector, BBV and sampler sections. *)
let fixtures = [ "golden.snap"; "golden_bbv.snap" ]

(* The fixtures were written with a [Full] sink, so one restores them. *)
let restore_fixture snap = Run.restore ~obs:(Ace_obs.Obs.create Ace_obs.Obs.Full) snap

(* The committed bytes, restored into a freshly built run and captured
   again, must come back unchanged: a layout change that shifts any later
   byte (a field added, dropped, or moved across one of another width)
   fails here, although round trips through freshly captured states pass
   it. *)
let test_fixtures_reencode () =
  let bbv = Snapshot.decode (read_fixture "golden_bbv.snap") in
  Alcotest.(check bool) "bbv scheme" true
    (bbv.Snapshot.meta.Snapshot.scheme = Snapshot.Bbv);
  let obs = Ace_obs.Obs.create Ace_obs.Obs.Full in
  let r = Run.restore ~obs bbv in
  Alcotest.(check bool) "fault state" true
    (bbv.Snapshot.meta.Snapshot.fault_rate <> None);
  Alcotest.(check bool) "sampler state" true
    (match Run.sampler r with
    | Some sam -> Ace_sample.Sample.record_keys sam <> []
    | None -> false);
  Alcotest.(check bool) "obs state" true (Ace_obs.Obs.event_count obs > 0);
  List.iter
    (fun name ->
      let data = read_fixture name in
      let snap = Snapshot.decode data in
      if Snapshot.encode snap <> data then
        Alcotest.failf "%s does not re-encode to its own bytes" name;
      if Snapshot.encode (Run.capture (restore_fixture snap)) <> data then
        Alcotest.failf "%s, restored and captured, does not reproduce its bytes" name)
    fixtures

(* Restoring and capturing a fixture cannot see two same-typed fields
   swapped in a [sync]: the swap applies to both directions.  Capturing
   fresh state can.
   These runs repeat test/gen_golden's settings, so they must reproduce the
   committed bytes; regenerate the fixtures if the simulation itself
   changes. *)
let first_snapshot ?resilient ?fault_rate ?sample scheme =
  let path = tmp_path () in
  let first = ref None in
  ignore
    (Run.run_checkpointed ~scale:0.2 ~seed:3 ?resilient ?fault_rate ?sample
       ~obs:(Ace_obs.Obs.create Ace_obs.Obs.Full)
       ~on_snapshot:(fun s -> if !first = None then first := Some s)
       ~kill_after:2_000_001 ~checkpoint_every:2_000_000 ~path (compress ()) scheme);
  cleanup path;
  Option.get !first

let test_fresh_runs_encode_to_fixtures () =
  let check name snap =
    if Snapshot.encode snap <> read_fixture name then
      Alcotest.failf "a fresh run no longer encodes to %s" name
  in
  check "golden.snap" (first_snapshot Scheme.Hotspot);
  check "golden_bbv.snap"
    (first_snapshot ~resilient:true ~fault_rate:0.01
       ~sample:Ace_sample.Sample.default_config Scheme.Bbv)

(* Hostile payloads: damage the payload, then rebuild the header's length
   and CRC so the damage reaches the meta decoder and every module's reader
   instead of being caught by the container checks. *)
let header_len = 26

let reseal data payload =
  let b = Buffer.create (header_len + String.length payload) in
  Buffer.add_string b (String.sub data 0 10);
  Buffer.add_int64_le b (Int64.of_int (String.length payload));
  Buffer.add_int64_le b (Int64.of_int (Ace_util.Crc32.string payload));
  Buffer.add_string b payload;
  Buffer.contents b

let fixture_data = lazy (List.map read_fixture fixtures)

let prop_hostile_payload =
  let gen = QCheck.Gen.(pair (int_bound (List.length fixtures - 1)) Tu.mutation_gen) in
  let print (i, m) =
    Printf.sprintf "%s: %s" (List.nth fixtures i) (Tu.mutation_to_string m)
  in
  QCheck.Test.make ~name:"hostile payload: a snapshot or a typed error" ~count:1000
    (QCheck.make ~print gen)
    (fun (i, m) ->
      let data = List.nth (Lazy.force fixture_data) i in
      let payload = String.sub data header_len (String.length data - header_len) in
      match restore_fixture (Snapshot.decode (reseal data (Tu.mutate payload m))) with
      | _ -> true
      | exception Snapshot.Error _ -> true)

(* Two bodies that decoded cleanly and then broke the old restore path: a
   TLB listing more resident pages than it has entries (the probe-table
   insert then spun forever) and an L1D of an impossible size (an untyped
   [Invalid_argument]).  Both are built from [Codec] primitives and read
   into a fresh structure through [Snapshot.read_body]. *)
let expect_malformed ~what body read =
  let golden = Snapshot.decode (read_fixture "golden.snap") in
  let snap = Snapshot.of_body golden.Snapshot.meta body in
  match Snapshot.read_body snap read with
  | exception Snapshot.Error (Snapshot.Malformed _) -> ()
  | exception e -> Alcotest.failf "%s: untyped %s" what (Printexc.to_string e)
  | () -> Alcotest.failf "%s: accepted" what

let test_hostile_tlb_refused () =
  let open Ace_util.Codec in
  let body =
    save (fun io ->
        ignore (sync io (array int) (Array.init 600 Fun.id));
        ignore (sync io (array int) (Array.make 128 0));
        List.iter (fun n -> ignore (sync io int n)) [ 0; 128; 1000; 600 ])
  in
  expect_malformed ~what:"600 resident pages" body (fun io ->
      Ace_mem.Tlb.sync io (Ace_mem.Tlb.create ()))

let test_hostile_cache_refused () =
  let open Ace_util.Codec in
  let slots = 1024 in
  let body =
    save (fun io ->
        ignore (sync io int 12_345);
        ignore (sync io (array int) (Array.make slots (-1)));
        ignore (sync io (array bool) (Array.make slots false));
        ignore (sync io (array int) (Array.make slots 0));
        for _ = 1 to 7 do
          ignore (sync io int 0)
        done)
  in
  expect_malformed ~what:"12,345-byte L1D" body (fun io ->
      Ace_mem.Cache.sync io
        (Ace_mem.Cache.create
           { Ace_mem.Cache.size_bytes = 64 * 1024; assoc = 2; line_bytes = 64 }))

(* L1D bodies whose tag array holds lines the way scan cannot: a line
   stored in a set it does not map to, and a line in two ways of one set.
   The scan assumes neither can happen, and an index past the set would
   drive an out-of-bounds write.  A body with two distinct lines of one set
   is the control: it must restore. *)
let l1d_body tags =
  let open Ace_util.Codec in
  save (fun io ->
      ignore (sync io int (64 * 1024));
      ignore (sync io (array int) tags);
      ignore (sync io (array bool) (Array.make (Array.length tags) false));
      ignore (sync io (array int) (Array.make (Array.length tags) 0));
      for _ = 1 to 7 do
        ignore (sync io int 0)
      done)

let fresh_l1d () =
  Ace_mem.Cache.create { Ace_mem.Cache.size_bytes = 64 * 1024; assoc = 2; line_bytes = 64 }

(* 512 sets of 2 ways: slots [2s] and [2s + 1] hold set [s]. *)
let l1d_tags assignments =
  let tags = Array.make 1024 (-1) in
  List.iter (fun (slot, line) -> tags.(slot) <- line) assignments;
  tags

let test_hostile_cache_tag_wrong_set () =
  expect_malformed ~what:"line 1 in set 0" (l1d_body (l1d_tags [ (0, 1) ]))
    (fun io -> Ace_mem.Cache.sync io (fresh_l1d ()))

let test_hostile_cache_tag_twice () =
  expect_malformed ~what:"line 1 in both ways of set 1"
    (l1d_body (l1d_tags [ (2, 1); (3, 1) ]))
    (fun io -> Ace_mem.Cache.sync io (fresh_l1d ()));
  let snap = Snapshot.decode (read_fixture "golden.snap") in
  Snapshot.read_body
    (Snapshot.of_body snap.Snapshot.meta (l1d_body (l1d_tags [ (2, 1); (3, 513) ])))
    (fun io -> Ace_mem.Cache.sync io (fresh_l1d ()))

(* [Run.reopen]'s three ways: which it took, and the run it built — the
   given snapshot restored, or a fresh run ([None]). *)
let check_reopen ~what ~path meta expected snap =
  let r, how = Run.reopen ~path meta in
  if how <> expected then Alcotest.failf "%s: reopen took another way" what;
  match snap with
  | Some s ->
      Alcotest.(check bool) (what ^ ": restored that snapshot") true
        (snaps_equal s (Run.capture r))
  | None ->
      Alcotest.(check int) (what ^ ": starts at instruction 0") 0
        (Ace_vm.Engine.instrs (Run.engine r))

let test_write_rotates_and_falls_back () =
  let path = tmp_path () in
  let snaps, result = sample_snapshots () in
  let s1, s2 =
    match snaps with a :: b :: _ -> (a, b) | _ -> Alcotest.fail "need 2 snaps"
  in
  let meta = s1.Snapshot.meta in
  check_reopen ~what:"empty file, no .1" ~path meta `Fresh None;
  Snapshot.write ~path s1;
  Snapshot.write ~path s2;
  Alcotest.(check bool) "rotated" true (Sys.file_exists (path ^ ".1"));
  (match Snapshot.read_with_fallback ~path () with
  | Some (s, `Primary) ->
      Alcotest.(check bool) "primary is newest" true (snaps_equal s s2)
  | _ -> Alcotest.fail "expected primary");
  check_reopen ~what:"newest restores" ~path meta `Primary (Some s2);
  (* Corrupt the newest snapshot on disk: reads must fall back to the
     rotated previous one. *)
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
  seek_out oc 30;
  output_string oc "garbage";
  close_out oc;
  (match Snapshot.read_with_fallback ~path () with
  | Some (s, `Fallback) ->
      Alcotest.(check bool) "fallback is previous" true (snaps_equal s s1)
  | _ -> Alcotest.fail "expected fallback");
  check_reopen ~what:"newest corrupted" ~path meta `Fallback (Some s1);
  (* Corrupt the fallback too: nothing left. *)
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 (path ^ ".1") in
  output_string oc "junk";
  close_out oc;
  Alcotest.(check bool)
    "both bad" true
    (Snapshot.read_with_fallback ~path () = None);
  check_reopen ~what:"both corrupted" ~path meta `Fresh None;
  (* A fresh run continued to completion is [run_checkpointed]'s run: the
     same snapshots, the same result. *)
  let written = ref [] in
  (match
     Run.continue
       ~on_snapshot:(fun s -> written := s :: !written)
       ~path
       (fst (Run.reopen ~path meta))
   with
  | Run.Completed r ->
      Alcotest.(check bool) "fresh run's result" true (Stdlib.compare r result = 0)
  | Run.Killed_at _ -> Alcotest.fail "the fresh run was killed");
  Alcotest.(check int) "fresh run's snapshot count" (List.length snaps)
    (List.length !written);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "fresh run's snapshot" true (snaps_equal a b))
    snaps (List.rev !written);
  (* A newest snapshot that decodes but whose body does not restore (one
     stray trailing byte) falls back to the rotation. *)
  Snapshot.write ~path s1;
  Snapshot.write ~path (Snapshot.of_body meta (s2.Snapshot.body ^ "\000"));
  check_reopen ~what:"newest body does not restore" ~path meta `Fallback (Some s1);
  cleanup path

let test_torn_generations () =
  (* The torture harness's torn-write case, pinned as a unit test: a crash
     mid-write leaves a prefix of the file, not corrupted bytes. *)
  let path = tmp_path () in
  let snaps, _ = sample_snapshots () in
  let s1, s2 =
    match snaps with a :: b :: _ -> (a, b) | _ -> Alcotest.fail "need 2 snaps"
  in
  Snapshot.write ~path s1;
  Snapshot.write ~path s2;
  let tear p =
    let ic = open_in_bin p in
    let data = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let oc = open_out_bin p in
    output_string oc (String.sub data 0 (String.length data / 2));
    close_out oc
  in
  tear path;
  (match Snapshot.read_with_fallback ~path () with
  | Some (s, `Fallback) ->
      Alcotest.(check bool) "torn primary falls back to rotation" true
        (snaps_equal s s1)
  | _ -> Alcotest.fail "expected fallback from torn primary");
  (* Tear the rotation too: reads must fail with a *typed* error and the
     fallback reader must report None — never leak a raw exception. *)
  tear (path ^ ".1");
  (match Snapshot.read ~path () with
  | exception Snapshot.Error (Snapshot.Truncated _) -> ()
  | exception Snapshot.Error e ->
      Alcotest.failf "wrong error class: %s" (Snapshot.error_to_string e)
  | exception e ->
      Alcotest.failf "untyped exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "torn primary accepted");
  Alcotest.(check bool) "both generations torn -> None" true
    (Snapshot.read_with_fallback ~path () = None);
  cleanup path

let test_checkpoint_every_validated () =
  match
    Run.run_checkpointed ~checkpoint_every:0 ~path:"/nonexistent/x.snap"
      (compress ()) Scheme.Hotspot
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted checkpoint_every = 0"

let run_oracle ?fault_rate scheme =
  let path = tmp_path () in
  let r =
    Soak.determinism_oracle ~scale:0.2 ~seed:3 ?fault_rate
      ~checkpoint_every:2_000_000 ~path (compress ()) scheme
  in
  cleanup path;
  Alcotest.(check bool) "several checkpoints" true (r.Soak.checkpoints >= 2);
  if not (Soak.oracle_passed r) then
    Alcotest.failf "%d of %d replays diverged" r.Soak.replay_mismatches
      r.Soak.checkpoints

let test_oracle_baseline () = run_oracle Scheme.Fixed_baseline
let test_oracle_hotspot () = run_oracle Scheme.Hotspot
let test_oracle_bbv () = run_oracle Scheme.Bbv
let test_oracle_hotspot_faulty () = run_oracle ~fault_rate:0.02 Scheme.Hotspot

let test_chaos_soak () =
  let path = tmp_path () in
  let r =
    Soak.chaos_soak ~scale:0.2 ~seed:3 ~fault_rate:0.01 ~cycles:25
      ~checkpoint_every:500_000 ~path (compress ()) Scheme.Hotspot
  in
  cleanup path;
  if not r.Soak.matched then
    Alcotest.fail "soak survivor's table differs from uninterrupted baseline";
  Alcotest.(check bool)
    (Printf.sprintf "at least 20 kill/resume cycles (got %d)" r.Soak.kills)
    true (r.Soak.kills >= 20)

(* A 17-event ring wraps within the first checkpoint, so every snapshot's
   ring CRC is combined across dropped events and log moves: the fixtures'
   rings never fill.  Each container's stored CRC must be the payload's,
   and a resume from the newest snapshot must finish as the uninterrupted
   run did. *)
let test_wrapped_ring_checkpoints () =
  let path = tmp_path () in
  let ring () = Ace_obs.Obs.create ~capacity:17 Ace_obs.Obs.Full in
  let obs = ring () in
  let snaps = ref 0 and newest = ref None in
  let check_crc snap =
    Alcotest.(check bool) "the ring has wrapped" true (Ace_obs.Obs.dropped obs > 0);
    let data = Snapshot.encode snap in
    (* The header's CRC field: after the magic, version and length. *)
    let stored = Int64.to_int (String.get_int64_le data 18) in
    let payload = String.length data - header_len in
    Alcotest.(check int)
      (Printf.sprintf "snapshot %d: stored CRC" !snaps)
      (Ace_util.Crc32.update 0 data ~pos:header_len ~len:payload)
      stored;
    incr snaps;
    newest := Some snap
  in
  let outcome =
    Run.run_checkpointed ~scale:0.3 ~seed:1 ~obs ~on_snapshot:check_crc
      ~checkpoint_every:500_000 ~path
      (Option.get (Ace_workloads.Specjvm.find "jess"))
      Scheme.Hotspot
  in
  cleanup path;
  let r = match outcome with Run.Completed r -> r | Run.Killed_at _ -> assert false in
  Alcotest.(check bool) "many snapshots" true (!snaps >= 40);
  let snap = Option.get !newest in
  if not (snaps_equal snap (Run.capture (Run.restore ~obs:(ring ()) snap))) then
    Alcotest.fail "the newest snapshot, restored and captured, differs";
  match Run.resume_from_snapshot ~obs:(ring ()) snap with
  | Run.Completed resumed ->
      if not (Soak.results_match r resumed) then
        Alcotest.fail "the resumed run differs from the uninterrupted one"
  | Run.Killed_at _ -> Alcotest.fail "the resumed run was killed"

let suite =
  [
    Tu.case "codec roundtrip (all schemes)" test_codec_roundtrip;
    Tu.case "codec roundtrip under faults" test_codec_roundtrip_faulty;
    Tu.case "container refuses tampering" test_container_refuses_tampering;
    Tu.case "corruption classes map to typed errors" test_typed_errors;
    Tu.case "read flags truncated files" test_read_truncated_file;
    Tu.case "golden snapshot decodes" test_golden_snapshot;
    Tu.case "write rotates and falls back" test_write_rotates_and_falls_back;
    Tu.case "torn generations: rotation fallback, typed errors"
      test_torn_generations;
    Tu.case "checkpoint_every validated" test_checkpoint_every_validated;
    Tu.slow_case "determinism oracle: baseline" test_oracle_baseline;
    Tu.slow_case "determinism oracle: hotspot" test_oracle_hotspot;
    Tu.slow_case "determinism oracle: bbv" test_oracle_bbv;
    Tu.slow_case "determinism oracle: hotspot+faults" test_oracle_hotspot_faulty;
    Tu.slow_case "chaos soak survives 20 kill/resume cycles" test_chaos_soak;
    Tu.case "fixtures re-encode to their exact bytes" test_fixtures_reencode;
    Tu.qcheck prop_hostile_payload;
    Tu.case "hostile TLB body refused" test_hostile_tlb_refused;
    Tu.case "hostile cache body refused" test_hostile_cache_refused;
    Tu.case "restored cache line outside its set refused"
      test_hostile_cache_tag_wrong_set;
    Tu.case "restored cache line twice in a set refused" test_hostile_cache_tag_twice;
    Tu.case "fresh runs encode to the fixtures' bytes"
      test_fresh_runs_encode_to_fixtures;
    Tu.slow_case "wrapped ring: every stored CRC holds, the resume matches"
      test_wrapped_ring_checkpoints;
  ]
