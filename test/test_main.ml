let () =
  Alcotest.run "demaq"
    [
      ("xml", Test_xml.suite);
      ("bxml", Test_bxml.suite);
      ("value", Test_value.suite);
      ("xquery", Test_xquery.suite);
      ("xquery-ext", Test_xquery_ext.suite);
      ("fusion", Test_fusion.suite);
      ("store", Test_store.suite);
      ("btree", Test_btree.suite);
      ("heap-file", Test_heap_file.suite);
      ("locks", Test_locks.suite);
      ("net", Test_net.suite);
      ("wsdl", Test_wsdl.suite);
      ("mq", Test_mq.suite);
      ("lang", Test_lang.suite);
      ("plan", Test_plan.suite);
      ("engine", Test_engine.suite);
      ("crash", Test_crash.suite);
      ("procurement", Test_procurement.suite);
      ("baseline", Test_baseline.suite);
      ("evolution", Test_evolution.suite);
      ("time", Test_time.suite);
      ("robustness", Test_robustness.suite);
      ("prefilter", Test_prefilter.suite);
      ("obs", Test_obs.suite);
      ("adaptive", Test_adaptive.suite);
      ("http", Test_http.suite);
      ("sim", Test_sim.suite);
      ("inert", Test_inert.suite);
      ("rid-table", Test_rid_table.suite);
      ("writer", Test_writer.suite);
    ]
