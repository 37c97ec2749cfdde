(* Resident-set sampling for the scale experiment: GC stats only see the
   OCaml heap, while the runtime's own allocations and malloc'd
   bigarrays live outside it.  On Linux, /proc/self/statm column 2 is the resident
   page count and /proc/self/status VmHWM is the lifetime peak; both
   reads are a handful of syscalls.  Elsewhere both probes return [None]
   and callers fall back to GC numbers. *)

let page_bytes =
  (* getpagesize(2) without the C stub: the kernel's page size is 4096
     on every platform this tree targets; statm is Linux-only anyway. *)
  4096.

(* procfs files report length 0, so read until EOF with a hard cap
   rather than trusting [in_channel_length]. *)
let read_file path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let buf = Buffer.create 256 in
        let chunk = Bytes.create 4096 in
        let rec go () =
          if Buffer.length buf < 65536 then begin
            let k = input ic chunk 0 (Bytes.length chunk) in
            if k > 0 then begin
              Buffer.add_subbytes buf chunk 0 k;
              go ()
            end
          end
        in
        go ();
        Some (Buffer.contents buf))
  with _ -> None

let resident_mb () =
  match read_file "/proc/self/statm" with
  | None -> None
  | Some s -> (
      match String.split_on_char ' ' (String.trim s) with
      | _ :: resident :: _ -> (
          match int_of_string_opt resident with
          | Some pages when pages >= 0 ->
              Some (float_of_int pages *. page_bytes /. 1e6)
          | _ -> None)
      | _ -> None)

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
