let () =
  Alcotest.run "draconis"
    [
      ("heap", Test_heap.suite);
      ("calendar", Test_calendar.suite);
      ("sim", Test_sim.suite);
      ("trace", Test_trace.suite);
      ("stats", Test_stats.suite);
      ("net", Test_net.suite);
      ("p4", Test_p4.suite);
      ("layout", Test_layout.suite);
      ("proto", Test_proto.suite);
      ("table", Test_table.suite);
      ("param-fetch", Test_param_fetch.suite);
      ("circular-queue", Test_circular_queue.suite);
      ("wraparound", Test_wraparound.suite);
      ("switch-program", Test_switch_program.suite);
      ("policy", Test_policy.suite);
      ("pifo", Test_pifo.suite);
      ("client-executor", Test_client_executor.suite);
      ("cluster", Test_cluster.suite);
      ("baselines", Test_baselines.suite);
      ("fault-tolerance", Test_fault_tolerance.suite);
      ("fault", Test_fault.suite);
      ("workload", Test_workload.suite);
      ("trace-file", Test_trace_file.suite);
      ("harness", Test_harness.suite);
      ("pool", Test_pool.suite);
      ("sharded-cluster", Test_sharded_cluster.suite);
      ("shard", Test_shard.suite);
      ("obs", Test_obs.suite);
      ("int-telemetry", Test_int_telemetry.suite);
      ("attribution", Test_attribution.suite);
      ("fuzz", Test_fuzz.suite);
      ("milestones", Test_milestones.suite);
      ("alloc", Test_alloc.suite);
    ]
