let () =
  Prop.announce ();
  Alcotest.run "polyflow"
    (Test_cfg.suite @ Test_isa.suite @ Test_mini.suite @ Test_predict.suite
   @ Test_cache.suite @ Test_trace.suite @ Test_core.suite @ Test_uarch.suite
   @ Test_readyq.suite @ Test_wakeq.suite @ Test_obs.suite @ Test_workloads.suite
   @ Test_report.suite @ Test_serve.suite @ Test_golden.suite
   @ Test_skip.suite @ Test_batch.suite @ Test_trace_store.suite
   @ Test_fuzz.suite)
