let () =
  Alcotest.run "eventual-consensus"
    [
      ("prng", Test_prng.suite);
      ("event-queue", Test_event_queue.suite);
      ("packed-queue", Test_packed_queue.suite);
      ("domain-pool", Test_domain_pool.suite);
      ("clock", Test_clock.suite);
      ("network", Test_network.suite);
      ("fault", Test_fault.suite);
      ("trace", Test_trace.suite);
      ("numfmt", Test_numfmt.suite);
      ("sim-misc", Test_misc_sim.suite);
      ("engine", Test_engine.suite);
      ("consensus-lib", Test_consensus_lib.suite);
      ("dgl (modified paxos)", Test_dgl.suite);
      ("baselines", Test_baselines.suite);
      ("b-consensus", Test_bconsensus.suite);
      ("properties", Test_properties.suite);
      ("conformance", Test_conformance.suite);
      ("smr", Test_smr.suite);
      ("wire", Test_wire.suite);
      ("serve", Test_serve.suite);
      ("model-check", Test_mcheck.suite);
      ("model-check-engine", Test_explore.suite);
      ("model-check-bc", Test_bc_model.suite);
      ("realtime", Test_realtime.suite);
      ("harness", Test_harness.suite);
      ("invariants", Test_invariants.suite);
      ("alloc", Test_alloc.suite);
      ("lint", Test_lint.suite);
      ("fuzz", Test_fuzz.suite);
      ("chaos", Test_chaos.suite);
    ]
