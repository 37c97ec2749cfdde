(* NaN is rejected explicitly: it fails every comparison, so [v >= min]
   alone would admit it nowhere and the message would blame the range. *)
let check_float ?(min = 0.) ?(max = infinity) ~what v =
  if Float.is_nan v then Error (Printf.sprintf "%s must be a number, got nan" what)
  else if v >= min && v <= max then Ok v
  else Error (Printf.sprintf "%s must be in [%g, %g], got %g" what min max v)
