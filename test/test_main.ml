let () =
  Alcotest.run "cdbs"
    [
      ("lp", Test_lp.suite);
      ("sql", Test_sql.suite);
      ("storage", Test_storage.suite);
      ("stats-index", Test_stats_index.suite);
      ("core-model", Test_core_model.suite);
      ("allocation", Test_allocation.suite);
      ("dense", Test_dense.suite);
      ("physical", Test_physical.suite);
      ("ksafety", Test_ksafety.suite);
      ("faults", Test_faults.suite);
      ("cluster", Test_cluster.suite);
      ("migration", Test_migration.suite);
      ("protocol", Test_protocol.suite);
      ("workloads", Test_workloads.suite);
      ("tpch-sql", Test_tpch_sql.suite);
      ("timeseries", Test_timeseries.suite);
      ("segmented-memetic", Test_segmented.suite);
      ("autoscale", Test_autoscale.suite);
      ("analysis", Test_analysis.suite);
      ("monitor", Test_monitor.suite);
      ("experiments", Test_experiments.suite);
      ("paper-examples", Test_paper_examples.suite);
      ("resilience", Test_resilience.suite);
      ("telemetry", Test_telemetry.suite);
      ("partition", Test_partition.suite);
      ("control", Test_control.suite);
      ("golden", Test_golden.suite);
    ]
