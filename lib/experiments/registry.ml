type experiment = {
  id : string;
  title : string;
  run : base:Ri_sim.Config.t -> spec:Ri_sim.Runner.spec -> Report.t;
}

let all =
  [
    { id = Fig13_schemes.id; title = Fig13_schemes.title; run = Fig13_schemes.run };
    { id = Fig14_results.id; title = Fig14_results.title; run = Fig14_results.run };
    {
      id = Fig15_compression.id;
      title = Fig15_compression.title;
      run = Fig15_compression.run;
    };
    { id = Fig16_cycles.id; title = Fig16_cycles.title; run = Fig16_cycles.run };
    { id = Fig17_topology.id; title = Fig17_topology.title; run = Fig17_topology.run };
    { id = Fig18_updates.id; title = Fig18_updates.title; run = Fig18_updates.run };
    {
      id = Fig19_update_cycles.id;
      title = Fig19_update_cycles.title;
      run = Fig19_update_cycles.run;
    };
    {
      id = Fig20_crossover.id;
      title = Fig20_crossover.title;
      run = Fig20_crossover.run;
    };
    { id = Flooding.id; title = Flooding.title; run = Flooding.run };
  ]

let extensions =
  [
    { id = Abl_hybrid.id; title = Abl_hybrid.title; run = Abl_hybrid.run };
    { id = Abl_horizon.id; title = Abl_horizon.title; run = Abl_horizon.run };
    { id = Abl_decay.id; title = Abl_decay.title; run = Abl_decay.run };
    { id = Abl_errors.id; title = Abl_errors.title; run = Abl_errors.run };
    { id = Abl_parallel.id; title = Abl_parallel.title; run = Abl_parallel.run };
    { id = Abl_batch.id; title = Abl_batch.title; run = Abl_batch.run };
    { id = Abl_storage.id; title = Abl_storage.title; run = Abl_storage.run };
    { id = Fig_faults.id; title = Fig_faults.title; run = Fig_faults.run };
    {
      id = Fig_recovery.id;
      title = Fig_recovery.title;
      run = Fig_recovery.run;
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) (all @ extensions)

let ids = List.map (fun e -> e.id) all

let extension_ids = List.map (fun e -> e.id) extensions
