(** The resident TCP server: a listening socket drained by a pool of
    worker {!Domain}s.

    Each worker accepts connections directly off the shared listening
    socket (the kernel serializes [accept]) and runs one blocking
    session at a time, so up to [workers] sessions progress in parallel.
    Parallelism across queries comes from the pool alone: each query,
    the fpt engine's colorings included, runs on its worker's domain.

    Safety of concurrent sessions rests on three facts: database
    snapshots are immutable (see {!Catalog}), the plan cache and stats
    are mutex-protected, and plans pre-intern query constants per the
    dictionary's concurrency contract.

    Robustness: request lines are read by {!Guard}'s bounded reader
    (oversized lines answer [ERR] without unbounded buffering), idle
    connections are reaped via [SO_RCVTIMEO], any exception escaping the
    dispatcher answers [ERR internal] and leaves the worker alive, and
    transient [accept] failures ([EMFILE], [ENFILE], ...) retry with
    exponential backoff instead of killing the domain.  Each condition
    has a counter: [server.internal_errors], [server.rejected.oversize],
    [server.idle_closed], [server.accept.retries]. *)

type t

(** One accepted connection's request processor — a {!Frontend.handler},
    re-exported.  [on_line] receives each non-blank request line and
    returns the response to frame ([None] withholds the response — the
    mid-[BULK] convention) plus the keep/close verdict; [on_close] runs
    exactly once when the connection ends (any path: QUIT, EOF, idle,
    error), so handlers owning upstream sockets — the cluster
    coordinator's shard pool — can release them. *)
type handler = Frontend.handler = {
  on_line : string -> Protocol.response option * [ `Continue | `Quit ];
  on_close : unit -> unit;
}

(** [start_handler ?host ?limits ~port ~workers ~handler ()] binds and
    listens (port [0] picks an ephemeral port — see {!port}) and spawns
    the worker pool; each accepted connection talks to [handler ()]
    (called once per connection).  This is the one connection path:
    bounded reader, idle reaping, catch-all and graceful drain, for a
    single node ({!start}) and the cluster coordinator alike.  [host]
    defaults to ["127.0.0.1"]; [limits] to {!Guard.default_limits} —
    the loop applies its line and idle limits. *)
val start_handler :
  ?host:string ->
  ?limits:Guard.limits ->
  port:int ->
  workers:int ->
  handler:(unit -> handler) ->
  unit ->
  t

(** [start ?host ~port ~workers shared] — a single node: every
    connection is a fresh {!Session} over [shared], served under
    [shared.limits].  Every segment store under the catalog's data dir
    is attached ({!Catalog.attach}) before the socket opens, so a
    corrupt store raises {!Paradb_storage.Segment.Corrupt} out of
    [start] — the server never comes up over bad data. *)
val start : ?host:string -> port:int -> workers:int -> Session.shared -> t

(** The actual bound port (useful after [~port:0]). *)
val port : t -> int

(** Connections currently being served (tests, shutdown progress). *)
val active_connections : t -> int

(** [stop ?grace t] shuts down gracefully: stops accepting, lets
    in-flight sessions finish their current request (counted in
    [server.shutdown.drained]), and after [grace] seconds (default 0.5)
    forcibly shuts the sockets of any stragglers (counted in
    [server.shutdown.aborted]) so every worker can be joined.
    Idempotent. *)
val stop : ?grace:float -> t -> unit

(** Block until every worker has exited (i.e. until {!stop} is called
    from a signal handler or another domain). *)
val wait : t -> unit
