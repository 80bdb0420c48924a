let () =
  Alcotest.run "ace-reproduction"
    [
      ("rng", Test_rng.suite);
      ("pool", Test_pool.suite);
      ("crc32", Test_crc32.suite);
      ("stats", Test_stats.suite);
      ("table", Test_table.suite);
      ("pattern", Test_pattern.suite);
      ("program", Test_program.suite);
      ("builder", Test_builder.suite);
      ("cache", Test_cache.suite);
      ("mem", Test_mem.suite);
      ("cpu+power", Test_cpu_power.suite);
      ("vm", Test_vm.suite);
      ("faults", Test_faults.suite);
      ("core", Test_core_lib.suite);
      ("framework", Test_framework.suite);
      ("predictor", Test_predictor.suite);
      ("bbv", Test_bbv.suite);
      ("next-phase", Test_next_phase.suite);
      ("workloads", Test_workloads.suite);
      ("harness", Test_harness.suite);
      ("parallel", Test_parallel.suite);
      ("run-variants", Test_run_variants.suite);
      ("invariants", Test_invariants.suite);
      ("ckpt", Test_ckpt.suite);
      ("sample", Test_sample.suite);
      ("obs", Test_obs.suite);
      ("cli", Test_cli.suite);
      ("serve", Test_serve.suite);
      ("torture", Test_torture.suite);
    ]
