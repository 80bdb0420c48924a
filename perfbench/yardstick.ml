(* A fixed host-speed probe that shares no code with the simulator.

   The host is a shared virtual machine: its speed drifts by tens of percent
   over minutes, and every layer of the simulator slows together.  The
   benchmark times this probe right before each item and reports item times
   at the probe's reference speed (weighted per workload by
   [Suite.probe_weight]), so two runs made minutes apart compare the
   simulator, not the neighbours.  The probe allocates short-lived cons
   cells and walks them through the minor heap, the simulator's dominant
   memory traffic (about one minor word per simulated instruction). *)

let run () =
  let cells = ref [] in
  for i = 1 to 3_000_000 do
    cells := (i, i) :: !cells;
    if i land 1023 = 0 then cells := []
  done;
  List.length !cells

(* The probe's time on an idle 2-CPU x86-64 host with OCaml 5.1.1.  A
   normalized time is what the item would have taken at that speed. *)
let reference_s = 0.0125

(* How much slower than the reference the host runs right now. *)
let slowdown () =
  let t0 = Assemble.now_ns () in
  ignore (run ());
  float_of_int (Assemble.now_ns () - t0) *. 1e-9 /. reference_s
