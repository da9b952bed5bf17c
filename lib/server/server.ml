module Metrics = Paradb_telemetry.Metrics

let m_bytes_in = Metrics.counter "server.bytes_in"
let m_bytes_out = Metrics.counter "server.bytes_out"
let m_internal = Metrics.counter "server.internal_errors"
let m_oversize = Metrics.counter "server.rejected.oversize"
let m_idle_closed = Metrics.counter "server.idle_closed"
let m_accept_retries = Metrics.counter "server.accept.retries"
let m_drained = Metrics.counter "server.shutdown.drained"
let m_aborted = Metrics.counter "server.shutdown.aborted"

type handler = Frontend.handler = {
  on_line : string -> Protocol.response option * [ `Continue | `Quit ];
  on_close : unit -> unit;
}

type t = {
  listen_fd : Unix.file_descr;
  bound_port : int;
  workers : unit Domain.t array;
  stopping : bool Atomic.t;
  conns : (Unix.file_descr, unit) Hashtbl.t; (* in-flight connections *)
  conns_lock : Mutex.t;
  stopped : Mutex.t; (* serializes [stop] so joins happen once *)
  mutable joined : bool;
}

let port t = t.bound_port

let send oc response =
  let lines = Protocol.response_to_lines response in
  Metrics.incr ~by:(Protocol.wire_bytes lines) m_bytes_out;
  Fault.write_delay ();
  Protocol.write_lines oc lines

(* One connection: line in, framed response out, until QUIT/EOF/idle.
   The bounded reader enforces [max_line]; [SO_RCVTIMEO] enforces
   [idle_timeout]; a catch-all around the dispatcher turns any escaped
   exception into [ERR internal] instead of a dead worker.  Socket-level
   write failures (peer gone) end the loop. *)
let serve_connection ~limits make_handler stopping fd =
  (* request/response is strictly ping-pong, so Nagle only adds delayed-ACK
     stalls on the response's final partial segment *)
  (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
  (match limits.Guard.idle_timeout with
  | Some seconds -> (
      try Unix.setsockopt_float fd SO_RCVTIMEO seconds
      with Unix.Unix_error _ | Invalid_argument _ -> ())
  | None -> ());
  let oc = Unix.out_channel_of_descr fd in
  let reader = Guard.reader ~max_line:limits.Guard.max_line fd in
  let handler = make_handler () in
  let rec loop () =
    match Guard.read_line reader with
    | Guard.Closed -> ()
    | Guard.Idle ->
        Metrics.incr m_idle_closed;
        send oc (Protocol.Err "idle timeout; closing connection")
    | Guard.Too_long ->
        Metrics.incr m_oversize;
        send oc
          (Protocol.Err
             (Printf.sprintf "request line exceeds %d bytes"
                limits.Guard.max_line));
        continue ()
    | Guard.Line line when String.trim line = "" -> loop ()
    | Guard.Line line -> (
        Metrics.incr ~by:(String.length line + 1) m_bytes_in;
        match handler.on_line line with
        | exception e ->
            (* the dispatcher answers [Err] itself for every expected
               failure; anything arriving here is a server bug (or an
               injected fault) — answer, count, survive *)
            Metrics.incr m_internal;
            send oc (Protocol.Err ("internal: " ^ Printexc.to_string e));
            continue ()
        | None, _ ->
            (* a response is withheld only mid-BULK; keep reading *)
            loop ()
        | Some response, verdict ->
            if Fault.disconnect_now () then (
              try Unix.shutdown fd SHUTDOWN_ALL with Unix.Unix_error _ -> ())
            else begin
              send oc response;
              match verdict with `Continue -> continue () | `Quit -> ()
            end)
  and continue () =
    (* graceful shutdown: finish the request in flight, then close *)
    if Atomic.get stopping then Metrics.incr m_drained else loop ()
  in
  Fun.protect
    ~finally:(fun () -> try handler.on_close () with _ -> ())
    (fun () -> try loop () with Sys_error _ | End_of_file -> ())

let worker_loop stopping ~limits make_handler conns conns_lock listen_fd () =
  let register fd =
    Mutex.protect conns_lock (fun () -> Hashtbl.replace conns fd ())
  in
  let unregister fd =
    Mutex.protect conns_lock (fun () -> Hashtbl.remove conns fd)
  in
  let rec loop backoff =
    if not (Atomic.get stopping) then begin
      match Unix.accept ~cloexec:true listen_fd with
      | exception Unix.Unix_error ((EBADF | EINVAL | ECONNABORTED), _, _) ->
          (* EBADF/EINVAL: [stop] closed the listening socket under us;
             ECONNABORTED: the peer vanished between accept queuing and
             now — only the latter leaves the socket usable. *)
          if not (Atomic.get stopping) then loop 0
      | exception Unix.Unix_error (EINTR, _, _) -> loop 0
      | exception
          Unix.Unix_error ((EMFILE | ENFILE | ENOBUFS | ENOMEM), _, _) ->
          (* descriptor/buffer exhaustion is transient: back off and
             retry rather than letting the exception kill the domain *)
          Metrics.incr m_accept_retries;
          Unix.sleepf (Guard.accept_backoff backoff);
          loop (backoff + 1)
      | fd, _peer ->
          register fd;
          Fun.protect
            ~finally:(fun () ->
              unregister fd;
              try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              (* belt and braces: nothing may kill the worker domain *)
              try serve_connection ~limits make_handler stopping fd
              with _ -> ());
          loop 0
    end
  in
  loop 0

let start_handler ?(host = "127.0.0.1") ?(limits = Guard.default_limits) ~port
    ~workers ~handler () =
  if workers < 1 then invalid_arg "Server.start: need at least one worker";
  (* a peer that disconnects mid-response must surface as EPIPE, not
     kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let addr = Unix.inet_addr_of_string host in
  let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd SO_REUSEADDR true;
     Unix.bind fd (ADDR_INET (addr, port));
     Unix.listen fd 64
   with e ->
     Unix.close fd;
     raise e);
  let bound_port =
    match Unix.getsockname fd with
    | ADDR_INET (_, p) -> p
    | ADDR_UNIX _ -> assert false
  in
  let stopping = Atomic.make false in
  let conns = Hashtbl.create 64 in
  let conns_lock = Mutex.create () in
  let pool =
    Array.init workers (fun _ ->
        Domain.spawn (worker_loop stopping ~limits handler conns conns_lock fd))
  in
  {
    listen_fd = fd;
    bound_port;
    workers = pool;
    stopping;
    conns;
    conns_lock;
    stopped = Mutex.create ();
    joined = false;
  }

(* Attach before binding: a corrupt store must fail startup, not the
   first query ([Segment.Corrupt] propagates, no socket is opened). *)
let start ?host ~port ~workers (shared : Session.shared) =
  ignore (Catalog.attach shared.Session.catalog);
  start_handler ?host ~limits:shared.Session.limits ~port ~workers
    ~handler:(fun () ->
      let s = Session.create shared in
      { on_line = Session.handle_line s; on_close = ignore })
    ()

let join_all t =
  Mutex.protect t.stopped (fun () ->
      if not t.joined then begin
        Array.iter Domain.join t.workers;
        t.joined <- true
      end)

let active_connections t =
  Mutex.protect t.conns_lock (fun () -> Hashtbl.length t.conns)

let stop ?(grace = 0.5) t =
  Atomic.set t.stopping true;
  (* [shutdown] — not [close] — wakes workers blocked in [accept] (they
     get EINVAL); the fd is closed only after every worker has exited,
     so its number cannot be recycled under a racing accept. *)
  (try Unix.shutdown t.listen_fd SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (* drain: sessions notice [stopping] after their in-flight request and
     close; past the grace period, shut the stragglers' sockets so their
     blocked reads return and the workers can exit. *)
  let deadline = Unix.gettimeofday () +. Float.max 0.0 grace in
  let rec drain () =
    if active_connections t > 0 then
      if Unix.gettimeofday () >= deadline then
        Mutex.protect t.conns_lock (fun () ->
            Hashtbl.iter
              (fun fd () ->
                Metrics.incr m_aborted;
                try Unix.shutdown fd SHUTDOWN_ALL with Unix.Unix_error _ -> ())
              t.conns)
      else begin
        Unix.sleepf 0.01;
        drain ()
      end
  in
  drain ();
  join_all t;
  try Unix.close t.listen_fd with Unix.Unix_error _ -> ()

let wait = join_all
