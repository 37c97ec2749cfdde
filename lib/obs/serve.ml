(* Live observability endpoint: a dependency-free Unix HTTP server on
   its own domain, serving /metrics (Prometheus text), /progress
   (JSON), /traffic (JSON traffic-observatory snapshot) and /healthz
   while a run executes.

   The server never touches simulation state: every handler reads only
   atomic Progress fields and registry snapshots taken under their own
   locks (Metrics render, Gcprof stats), so it cannot perturb the
   deterministic pipeline.  What /metrics renders is passed in as a
   closure so this module stays independent of the CLI layering.

   One connection is handled at a time — the consumers are a human with
   curl or a single scraper, and a sequential loop keeps the domain
   count and failure modes trivial.  Binds 127.0.0.1 unless told
   otherwise: the endpoint is diagnostics, not a public surface. *)

module Progress = struct
  (* Writers are the run loop (one store per wave / sweep point);
     readers are server handlers on their own domain.  Individual
     atomics, no cross-field consistency needed — a /progress snapshot
     that straddles a wave boundary is still meaningful. *)
  let run_label = Atomic.make ""

  let started = Atomic.make 0.

  let trials_done = Atomic.make 0

  let trials_total = Atomic.make 0

  let begin_run ?label ~total () =
    (match label with Some l -> Atomic.set run_label l | None -> ());
    Atomic.set started (Unix.gettimeofday ());
    Atomic.set trials_done 0;
    Atomic.set trials_total total

  let set_label l = Atomic.set run_label l

  let set_trials n = Atomic.set trials_done n

  let json () =
    let t0 = Atomic.get started in
    let elapsed = if t0 > 0. then Unix.gettimeofday () -. t0 else 0. in
    let done_ = Atomic.get trials_done and total = Atomic.get trials_total in
    let eta =
      if done_ > 0 && total > done_ then
        Printf.sprintf "%.3f" (elapsed /. float_of_int done_ *. float_of_int (total - done_))
      else "null"
    in
    Printf.sprintf
      "{\"phase\":\"%s\",\"label\":\"%s\",\"trials_done\":%d,\"trials_total\":%d,\"elapsed_s\":%.3f,\"eta_s\":%s,\"sketches\":%s}"
      (Ri_util.Json.escape (Phase.current ()))
      (Ri_util.Json.escape (Atomic.get run_label))
      done_ total elapsed eta (Metrics.render_json ())
end

module Traffic = struct
  (* The traffic driver renders one JSON snapshot per finished sweep
     point and publishes it whole; handlers only ever read a complete
     string, so a scrape racing a publish still sees valid JSON.  The
     empty-state body is itself valid JSON so /traffic is always
     parseable. *)
  let empty = "{\"points\": [], \"knee_qps\": null}"

  let state = Atomic.make empty

  let publish s = Atomic.set state s

  let clear () = Atomic.set state empty

  let json () = Atomic.get state
end

type t = {
  sock : Unix.file_descr;
  port : int;
  stopping : bool Atomic.t;
  dom : unit Domain.t;
}

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  (try
     while !off < n do
       off := !off + Unix.write_substring fd s !off (n - !off)
     done
   with Unix.Unix_error _ -> ())

let respond fd status ctype body =
  write_all fd
    (Printf.sprintf
       "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
       status ctype (String.length body) body)

(* Read until the header terminator (we only care about the request
   line) with a small cap and a receive timeout, so a stalled client
   cannot wedge the serving domain for long. *)
let read_request fd =
  let buf = Bytes.create 4096 in
  let data = Buffer.create 256 in
  let rec go () =
    if Buffer.length data < 16384 then begin
      let n = try Unix.read fd buf 0 (Bytes.length buf) with Unix.Unix_error _ -> 0 in
      if n > 0 then begin
        Buffer.add_subbytes data buf 0 n;
        let s = Buffer.contents data in
        if
          not
            (String.length s >= 4
            && String.sub s (String.length s - 4) 4 = "\r\n\r\n")
        then go ()
      end
    end
  in
  go ();
  Buffer.contents data

let route metrics path =
  match path with
  | "/metrics" -> Some ("text/plain; version=0.0.4; charset=utf-8", metrics ())
  | "/progress" -> Some ("application/json", Progress.json ())
  | "/traffic" -> Some ("application/json", Traffic.json ())
  | "/healthz" -> Some ("text/plain; charset=utf-8", "ok\n")
  | _ -> None

let handle metrics fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
  let req = read_request fd in
  match String.split_on_char ' ' (List.hd (String.split_on_char '\r' req)) with
  | meth :: path :: _ when meth = "GET" || meth = "HEAD" -> (
      match route metrics path with
      | Some (ctype, body) ->
          respond fd "200 OK" ctype (if meth = "HEAD" then "" else body)
      | None -> respond fd "404 Not Found" "text/plain" "not found\n")
  | _ :: _ :: _ -> respond fd "405 Method Not Allowed" "text/plain" "GET only\n"
  | _ -> ()

let rec accept_loop sock stopping metrics =
  if not (Atomic.get stopping) then
    match Unix.accept sock with
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
        accept_loop sock stopping metrics
    | exception Unix.Unix_error (_, _, _) ->
        (* listening socket shut down (or broken beyond repair): exit *)
        ()
    | fd, _ ->
        (try handle metrics fd with _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        accept_loop sock stopping metrics

let start ?(bind = "127.0.0.1") ~port ~metrics () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string bind, port));
     Unix.listen sock 16
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  (* port 0 asks the kernel for an ephemeral port (tests); read back
     the one actually bound *)
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let stopping = Atomic.make false in
  let dom = Domain.spawn (fun () -> accept_loop sock stopping metrics) in
  { sock; port; stopping; dom }

let port t = t.port

let stop t =
  Atomic.set t.stopping true;
  (* a blocked accept does not observe the flag; wake it with a dummy
     connection, with shutdown as the fallback for non-loopback binds *)
  (try
     let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
     (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port))
      with Unix.Unix_error _ -> ());
     try Unix.close fd with Unix.Unix_error _ -> ()
   with Unix.Unix_error _ -> ());
  (try Unix.shutdown t.sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Domain.join t.dom;
  try Unix.close t.sock with Unix.Unix_error _ -> ()
