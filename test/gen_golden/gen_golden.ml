(* Regenerate the committed snapshot fixtures after a Snapshot.version bump:

     dune exec test/gen_golden/gen_golden.exe -- test

   writes two first-checkpoint snapshots of compress (scale 0.2, seed 3,
   checkpoint every 2 M instructions, Full observability sink) into the
   given directory:

   - golden.snap: hotspot scheme; test_ckpt.ml expects a compress/hotspot
     run with a non-zero instruction count.
   - golden_bbv.snap: BBV scheme with the default sampler, faults at rate
     0.01 and the resilient policy, so the fault-injector, BBV and sampler
     payload sections are pinned byte-for-byte too. *)

module Obs = Ace_obs.Obs
module Snapshot = Ace_ckpt.Snapshot
module Run = Ace_harness.Run

let first_snapshot ?resilient ?fault_rate ?sample scheme =
  let workload =
    match Ace_workloads.Specjvm.find "compress" with
    | Some w -> w
    | None -> failwith "compress workload not registered"
  in
  let first = ref None in
  let obs = Obs.create Obs.Full in
  let ckpt_path = Filename.temp_file "ace_golden" ".snap" in
  let outcome =
    Run.run_checkpointed ~scale:0.2 ~seed:3 ?resilient ?fault_rate ?sample ~obs
      ~on_snapshot:(fun snap -> if !first = None then first := Some snap)
      ~checkpoint_every:2_000_000 ~path:ckpt_path workload scheme
  in
  (try Sys.remove ckpt_path with Sys_error _ -> ());
  (try Sys.remove (ckpt_path ^ ".1") with Sys_error _ -> ());
  (match outcome with
  | Run.Completed _ -> ()
  | Run.Killed_at _ -> failwith "golden run unexpectedly killed");
  match !first with
  | None -> failwith "run finished without writing a single checkpoint"
  | Some snap -> snap

let write path snap =
  let oc = open_out_bin path in
  output_string oc (Snapshot.encode snap);
  close_out oc;
  Printf.printf "wrote %s (version %d, %d instrs into the run)\n" path
    Snapshot.version (Snapshot.instrs snap)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  write (Filename.concat dir "golden.snap") (first_snapshot Ace_harness.Scheme.Hotspot);
  write
    (Filename.concat dir "golden_bbv.snap")
    (first_snapshot ~resilient:true ~fault_rate:0.01
       ~sample:Ace_sample.Sample.default_config Ace_harness.Scheme.Bbv)
