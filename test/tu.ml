(* Shared test helpers. *)

let approx ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_approx ?(eps = 1e-9) msg expected actual =
  if not (approx ~eps expected actual) then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected actual

let case name f = Alcotest.test_case name `Quick f

let slow_case name f = Alcotest.test_case name `Slow f

(* A minimal valid block. *)
let block ?(id = 0) ?(pc = 0x1000) ?(instrs = 100) ?(loads = 10) ?(stores = 5)
    ?(pattern = Ace_isa.Pattern.Random_in { base = 0; extent = 4096 })
    ?(ilp = 2.0) ?(mispredict_rate = 0.01) () =
  {
    Ace_isa.Block.id;
    pc;
    instrs;
    loads;
    stores;
    pattern;
    ilp;
    mispredict_rate;
  }

(* A minimal two-method program: main calls one worker [reps] times. *)
let tiny_program ?(reps = 10) ?(worker_instrs = 1000) () =
  let worker_block =
    block ~id:0 ~pc:0x1000 ~instrs:worker_instrs
      ~loads:(worker_instrs / 10) ~stores:(worker_instrs / 20) ()
  in
  {
    Ace_isa.Program.name = "tiny";
    methods =
      [|
        {
          Ace_isa.Program.id = 0;
          name = "worker";
          code_base = 0x1000;
          code_bytes = 4 * worker_instrs;
          body = [ Ace_isa.Program.Exec (worker_block, 1) ];
        };
        {
          Ace_isa.Program.id = 1;
          name = "main";
          code_base = 0x9000;
          code_bytes = 64;
          body = [ Ace_isa.Program.Call (0, reps) ];
        };
      |];
    entry = 1;
    data_bytes = 1 lsl 20;
  }

(* A nested program exercising hotspot size classes: leaf (~1K), middle
   (~100K: L1D class), outer (~600K: L2 class), invoked [outer_reps] times. *)
let nested_program ?(outer_reps = 40) () =
  let k = Ace_workloads.Kit.create ~name:"nested" ~seed:7 in
  let region = Ace_workloads.Kit.data_region k ~kb:4 in
  let leaf_block =
    Ace_workloads.Kit.block k ~instrs:1000 ~mem_frac:0.25
      ~access:(Ace_workloads.Kit.Uniform region) ()
  in
  let leaf =
    Ace_workloads.Kit.meth k ~name:"leaf" [ Ace_workloads.Kit.exec leaf_block 1 ]
  in
  let middle =
    Ace_workloads.Kit.meth k ~name:"middle" [ Ace_workloads.Kit.call leaf 100 ]
  in
  let outer =
    Ace_workloads.Kit.meth k ~name:"outer" [ Ace_workloads.Kit.call middle 6 ]
  in
  let main =
    Ace_workloads.Kit.meth k ~name:"main" [ Ace_workloads.Kit.call outer outer_reps ]
  in
  (Ace_workloads.Kit.finish k ~entry:main, `Leaf 0, `Middle 1, `Outer 2)

let qcheck = QCheck_alcotest.to_alcotest

(* Hostile bytes: bit flips in, or a truncation of, an encoding.  Offsets
   are drawn uniformly and reduced modulo the encoding's size. *)
type mutation = Flip of int list | Truncate of int

let mutate payload = function
  | Truncate len -> String.sub payload 0 (len mod String.length payload)
  | Flip bits ->
      let b = Bytes.of_string payload in
      List.iter
        (fun bit ->
          let bit = bit mod (8 * Bytes.length b) in
          let pos = bit / 8 in
          Bytes.set b pos
            (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl (bit mod 8)))))
        bits;
      Bytes.to_string b

let mutation_gen =
  let pos = QCheck.Gen.int_bound (1 lsl 29) in
  QCheck.Gen.(
    frequency
      [
        (3, map (fun l -> Flip l) (list_size (int_range 1 3) pos));
        (1, map (fun n -> Truncate n) pos);
      ])

let mutation_to_string = function
  | Truncate n -> Printf.sprintf "truncate %d" n
  | Flip l -> "flip bits " ^ String.concat "," (List.map string_of_int l)
