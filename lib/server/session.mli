(** One client session: request dispatch over the shared server state.

    A session owns no socket — the server (or a test) feeds it parsed
    {!Protocol.request}s and writes the returned {!Protocol.response}s
    wherever it likes.  All catalog/cache/stats state lives in
    {!shared}; a session adds only its private counters, reported by
    [STATS] next to the server-wide ones. *)

type shared = {
  catalog : Catalog.t;
  cache : Plan_cache.t;
  stats : Stats.t;  (** server-wide *)
  family : Paradb_core.Hashing.family option;
      (** fpt-engine hash family override; [None] = deterministic sweep *)
  limits : Guard.limits;
      (** resource governance: per-request deadline, result-row cap (the
          server loop applies the line and idle limits) *)
}

(** [limits] defaults to {!Guard.default_limits} (governance off).
    [data_dir] makes the catalog persist every [LOAD]/[FACT] to segment
    stores under it (see {!Catalog}); existing stores are attached by
    {!Server.start}, or explicitly via {!Catalog.attach}. *)
val make_shared :
  ?family:Paradb_core.Hashing.family ->
  ?limits:Guard.limits ->
  ?data_dir:string -> cache_capacity:int -> unit -> shared

type t

(** Registers the connection in the server-wide counters. *)
val create : shared -> t

(** [handle session req] — dispatch one request.  [`Quit] is returned
    for [QUIT] (after its farewell response); every error is an [Err]
    response, never an exception — except for deliberately injected
    {!Fault.Injected} faults, which propagate so the server loop's
    catch-all can be exercised.  An [EVAL]/[GATHER]/[SHIP] that outlives
    [limits.deadline_ns] answers [ERR deadline-exceeded after <ns>ns]
    and bumps [server.deadline_exceeded]; a result wider than
    [limits.max_rows] is truncated, marked by [truncated=true] in the
    summary (the [rows=] field keeps the full cardinality).

    The response is [None] exactly while a [BULK] frame is open: a
    [BULK db n] header with [n > 0] arms fact-collection mode and the
    batch is answered once, on its [n]-th fact line. *)
val handle :
  t -> Protocol.request -> Protocol.response option * [ `Continue | `Quit ]

(** [row_cap ~limits rows] — for an answer of [rows] rows: the line
    limit to render under [limits.max_rows] ([None]: all of them), and
    whether the answer is truncated.  Shared with the coordinator. *)
val row_cap : limits:Guard.limits -> int -> int option * bool

(** [fact_lines ?limit r] — [r]'s rows as sorted fact lines
    [name(v1, v2).], cells in source syntax
    ({!Paradb_query.Fact_format.value_to_syntax}), in
    {!Paradb_relational.Tuple.compare} order; with [limit], only the
    first [limit].  The GATHER payload and the DIGEST checksum input;
    built by {!Encode.lines}. *)
val fact_lines : ?limit:int -> Paradb_relational.Relation.t -> string list

(** [ship_answer ~limits ~cache ~ns result] — the [SHIP] response for an
    evaluated [result]: one payload line holding its segment in hex
    ({!Paradb_storage.Segment.encode}, {!Paradb_storage.Segment.to_hex}),
    or, when [result] has more than [limits.max_rows] rows, no payload
    and [truncated=true] in the summary — a shipped answer is never
    partial.  Shared by sessions and the cluster coordinator. *)
val ship_answer :
  limits:Guard.limits -> cache:string -> ns:int ->
  Paradb_relational.Relation.t -> Protocol.response

(** Convenience for tests and the server loop: parse a raw line and
    dispatch it ([Err] on parse failure).  Mid-[BULK] the line is
    consumed as a fact line instead of being parsed as a request. *)
val handle_line :
  t -> string -> Protocol.response option * [ `Continue | `Quit ]
