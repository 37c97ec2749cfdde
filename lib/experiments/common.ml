open Ri_sim

let query_messages cfg ~spec =
  Runner.run spec (fun ~trial ->
      float_of_int (Trial.run_query cfg ~trial).Trial.messages)

let update_messages cfg ~spec =
  Runner.run spec (fun ~trial ->
      float_of_int (Trial.run_update cfg ~trial).Trial.update_messages)

let ri_searches cfg =
  [
    ("CRI", Config.Ri Config.cri);
    ("HRI", Config.Ri (Config.hri cfg));
    ("ERI", Config.Ri (Config.eri cfg));
  ]

let all_searches cfg = ri_searches cfg @ [ ("No-RI", Config.No_ri) ]
