(** One client session: the single node's verbs over the shared server
    state.

    A session owns no socket — the server (or a test) feeds it request
    lines and writes the returned {!Protocol.response}s wherever it
    likes.  Line parsing, [BULK] framing, [QUIT], the per-verb span and
    histogram and the fault hook are the {!Frontend}'s; a session
    supplies its verb function and its [BULK]-batch function.  All
    catalog/cache/stats state lives in {!shared}; a session adds only
    its private counters, reported by [STATS] next to the server-wide
    ones. *)

type shared = {
  catalog : Catalog.t;
  cache : Plan_cache.t;
  stats : Stats.t;  (** server-wide *)
  limits : Guard.limits;
      (** resource governance: per-request deadline, result-row cap (the
          server loop applies the line and idle limits) *)
}

(** [limits] defaults to {!Guard.default_limits} (governance off).
    [data_dir] makes the catalog persist every [LOAD]/[FACT] to segment
    stores under it (see {!Catalog}); existing stores are attached by
    {!Server.start}, or explicitly via {!Catalog.attach}. *)
val make_shared :
  ?limits:Guard.limits ->
  ?data_dir:string -> cache_capacity:int -> unit -> shared

type t

(** Registers the connection in the server-wide counters. *)
val create : shared -> t

(** [with_query ~engine ~query k] — the query verbs' prelude: [k kind q]
    for a known engine name and a parsed query, otherwise the [ERR] a
    single node answers.  Shared with the coordinator. *)
val with_query :
  engine:string -> query:string ->
  (Plan.engine_kind -> Paradb_query.Cq.t -> Protocol.response) ->
  Protocol.response

(** ["count-overflow"]: the [ERR] message of a COUNT whose answer does
    not fit a native int ({!Paradb_relational.Semiring.Count_overflow}).
    The coordinator forwards a shard's as is. *)
val count_overflow : string

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

(** [gather_answer ~limits ~cache ~ns result] — the [GATHER] response
    for an evaluated [result]: its rows as {!fact_lines}, the first
    [limits.max_rows] of them when it has more, marked [truncated=true]
    in the summary ([rows=] keeps the full count).  Shared by sessions
    and the cluster coordinator. *)
val gather_answer :
  limits:Guard.limits -> cache:string -> ns:int ->
  Paradb_relational.Relation.t -> Protocol.response

(** [ship_answer ~limits ~cache ~ns result] — the [SHIP] response for an
    evaluated [result]: one payload line holding its segment in hex
    ({!Paradb_storage.Segment.encode}, {!Paradb_storage.Segment.to_hex}),
    or, when [result] has more than [limits.max_rows] rows, no payload
    and [truncated=true] in the summary — a shipped answer is never
    partial.  [snap] (a shard's {!Catalog.snap} of the snapshot the
    answer was evaluated on) ends the summary as [snap=<snap>]; the
    coordinator, which has no snapshot of its own, omits it.  Shared by
    sessions and the cluster coordinator. *)
val ship_answer :
  ?snap:string -> limits:Guard.limits -> cache:string -> ns:int ->
  Paradb_relational.Relation.t -> Protocol.response

(** [check query] — the [CHECK] answer: the paper's cost parameters
    (size q, variables v), acyclicity, the planner's class and width,
    the join tree, the [!=]-partition k and the recommended engine.
    Static analysis, so the cluster coordinator answers it with this
    same function. *)
val check : string -> Protocol.response

(** [explain query] — the [EXPLAIN] answer: the planner's plan lines
    ({!Paradb_planner.Planner.explain}).  Shared with the coordinator. *)
val explain : string -> Protocol.response

(** The [METRICS] answer: one payload line holding the process-wide
    telemetry snapshot as JSON.  Shared with the coordinator. *)
val metrics : unit -> Protocol.response

(** [handle_line session line] — answer one request line through the
    session's {!Frontend}: [None] exactly while a [BULK] frame is open,
    [`Quit] after [QUIT]'s farewell.  Every error is an [Err] response
    (counted in the session's and the server's [errors]), never an
    exception — except for deliberately injected {!Fault.Injected}
    faults, which propagate so the server loop's catch-all can be
    exercised.  An [EVAL]/[COUNT]/[GATHER]/[SHIP] that outlives
    [limits.deadline_ns] answers [ERR deadline-exceeded after <ns>ns]
    and bumps [server.deadline_exceeded]; a result wider than
    [limits.max_rows] is truncated, marked by [truncated=true] in the
    summary (the [rows=] field keeps the full cardinality). *)
val handle_line :
  t -> string -> Protocol.response option * [ `Continue | `Quit ]
