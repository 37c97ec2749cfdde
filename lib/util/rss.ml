(* Peak resident-set sampling for the ledger: GC stats only see the
   OCaml heap, while the runtime's own allocations and malloc'd
   bigarrays live outside it.  On Linux, /proc/self/status VmHWM is the
   lifetime peak, read in a handful of syscalls.  Elsewhere the probe
   returns [None] and callers fall back to GC numbers. *)

(* procfs files report length 0; [In_channel.input_all] reads to EOF
   regardless. *)
let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

(* "VmHWM:    123456 kB" somewhere in /proc/self/status. *)
let peak_mb () =
  match read_file "/proc/self/status" with
  | None -> None
  | Some s ->
      String.split_on_char '\n' s
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.sub line 0 i = "VmHWM" ->
                 let rest = String.sub line (i + 1) (String.length line - i - 1) in
                 (* The value is tab/space padded: "VmHWM:\t  123 kB". *)
                 let fields =
                   String.split_on_char ' ' rest
                   |> List.concat_map (String.split_on_char '\t')
                   |> List.map String.trim
                   |> List.filter (fun f -> f <> "" && f <> "kB")
                 in
                 (match fields with
                 | kb :: _ -> (
                     match int_of_string_opt (String.trim kb) with
                     | Some v when v >= 0 -> Some (float_of_int v /. 1e3)
                     | _ -> None)
                 | [] -> None)
             | _ -> None)
