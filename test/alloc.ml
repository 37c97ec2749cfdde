(* Allocation counting shared by the allocation tests. *)

(* Words [f] allocates: minor words plus the words it allocates
   directly in the major heap (blocks too large for the minor heap).
   Minor words come from [Gc.minor_words], which is exact between
   collections; [Gc.counters] undercounts them. *)
let words_allocated f =
  let direct () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let minor0 = Gc.minor_words () and direct0 = direct () in
  f ();
  let direct1 = direct () in
  Gc.minor_words () -. minor0 +. (direct1 -. direct0)
