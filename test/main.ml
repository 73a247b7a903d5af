(* Aggregated test runner: one suite per module area. *)

let () =
  Alcotest.run "snet_sac"
    [
      ("shape", Test_shape.suite);
      ("nd", Test_nd.suite);
      ("with_loop", Test_with_loop.suite);
      ("builtins", Test_builtins.suite);
      ("scheduler", Test_scheduler.suite);
      ("streams", Test_streams.suite);
      ("record", Test_record.suite);
      ("rectype", Test_rectype.suite);
      ("pattern", Test_pattern.suite);
      ("filter_box", Test_filter_box.suite);
      ("net", Test_net.suite);
      ("optimize", Test_optimize.suite);
      ("sync", Test_sync.suite);
      ("engines", Test_engines.suite);
      ("actor_options", Test_engines.actor_options_suite);
      ("trace", Test_trace.suite);
      ("random_nets", Test_random_nets.suite);
      ("detmerge", Test_detmerge.suite);
      ("stress", Test_stress.suite);
      ("coverage", Test_coverage.suite);
      ("source_files", Test_source_files.suite);
      ("lang", Test_lang.suite);
      ("saclang", Test_saclang.suite);
      ("sac_sudoku", Test_sac_sudoku.suite);
      ("sac_check", Test_sac_check.suite);
      ("sac_prelude", Test_sac_prelude.suite);
      ("sudoku", Test_sudoku.suite);
      ("networks", Test_networks.suite);
      ("propagate", Test_propagate.suite);
      ("faults", Test_faults.suite);
      ("obsv", Test_obsv.suite);
      ("jsonx", Test_jsonx.suite);
      ("dist", Test_dist.suite @ Test_coord.step_suite);
      ("elastic", Test_elastic.suite);
      ("serve", Test_serve.suite);
      ("detcheck", Test_detcheck.suite @ Test_coord.explore_suite);
      ("durable", Test_durable.suite);
      (* Last: it fills the process-wide record intern table. *)
      ("intern_cap", Test_record.cap_suite);
    ]
