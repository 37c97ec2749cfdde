(* Aggregated test entry point: one suite per module area. *)

let () =
  Alcotest.run "routing-indices"
    [
      Test_prng.suite;
      Test_stats.suite;
      Test_sampling.suite;
      Test_vecf.suite;
      Test_text_table.suite;
      Test_graph.suite;
      Test_topology.suite;
      Test_content.suite;
      Test_summary.suite;
      Test_compression.suite;
      Test_placement.suite;
      Test_estimator.suite;
      Test_store.suite;
      Test_cost_model.suite;
      Test_cri.suite;
      Test_hri.suite;
      Test_eri.suite;
      Test_scheme.suite;
      Test_message.suite;
      Test_network.suite;
      Test_query.suite;
      Test_update.suite;
      Test_churn.suite;
      Test_fault.suite;
      Test_recovery.suite;
      Test_paper_examples.suite;
      Test_pool.suite;
      Test_json.suite;
      Test_obs.suite;
      Test_sketch.suite;
      Test_provenance.suite;
      Test_sim.suite;
      Test_traffic.suite;
      Test_growth.suite;
      Test_experiments.suite;
      Test_extensions.suite;
      Test_invariants.suite;
      Test_golden.suite;
      Test_taxonomy.suite;
    ]
