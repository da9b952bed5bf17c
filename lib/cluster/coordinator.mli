(** The cluster coordinator: scatter-gather evaluation over [N] shard
    servers, each an ordinary [paradb serve] speaking the line
    protocol.

    {2 Data placement}

    [LOAD] parses the fact file locally, hash-partitions every
    relation on its first column over the consistent-hashing {!Ring},
    and ships slice [s] to shard [s] as one [BULK] frame per entry —
    plus one copy per replica rank [r] to shard [(s + r) mod N] under
    the entry name [db@r<r>].  Shards hold opaque slices; only the
    coordinator knows the full relation-name set, which is why it
    prechecks every query against its own catalog and treats a
    shard-side "missing relation" (an empty slice was never shipped —
    [BULK] carries no lines for an empty relation) as an empty
    contribution.

    {2 Evaluation}

    [EVAL]/[GATHER]/[SHIP] pick a strategy from
    {!Paradb_planner.Planner.shard_choice}:

    - {e scatter} (co-partitioned: every atom starts with the same
      variable) — one round; each shard evaluates the original query
      over its slice via [SHIP] and the coordinator unions the decoded
      segments.  Correct because every answer's witness tuples all
      carry the same first value, hence live on one shard.
    - {e exchange} (general) — two rounds.  Round 1 gathers per-atom
      {e reducer relations} [gx<i>]: the atom's matching tuples,
      semijoin-reduced shard-side against co-partitioned partner atoms
      and locally-decidable constraints.  Each reducer is a [Cq.t]
      shipped as {!Paradb_query.Cq.to_string}; reducers with the same
      {!Paradb_query.Cq.cache_key} are gathered once per request and
      aliased ([cluster.exchange.reducers_reused]).  Round 2 joins the
      reducers at the coordinator with every atom renamed to its
      reducer, under the original head and constraints.  Reducers are
      selections and semijoins, so the paper's linear-time class
      survives distribution.

    Every shard read ([SHIP]) answers a hex segment
    ({!Paradb_storage.Segment}) that the coordinator validates and
    decodes straight into code rows — no text render, no fact parse.  A
    payload that fails validation answers
    [ERR shard payload invalid: ...]; a shard answer marked
    [truncated=true] answers [ERR] too, since a partial union would be
    silently wrong.

    Gathers outlive the request.  Per database and reducer
    {!Paradb_query.Cq.cache_key} the coordinator holds each slice's
    last segment with the shard's [snap=] token, and asks
    [SHIP <entry> if=<snap>] next time; an [unchanged] answer reuses
    the segment, and the union is rebuilt only when some token changed.
    The exchange re-join's compiled plan is cached under the gathers'
    tokens.  Any write to a shard entry, through the coordinator or
    not, and any shard restart changes its token.  An [unchanged]
    answer to a request that offered no token, or naming another one,
    is [ERR shard payload invalid: ...].  Both caches hold at most 128
    entries ([cluster.ship.shipped], [cluster.ship.unchanged]).

    Results are rendered with the same canonical serialization as a
    single node ([Plan.sorted_tuples] / fact lines), so answers are
    bit-for-bit identical — the property the differential oracle's
    "cluster" engine fuzzes.

    [COUNT] follows the same strategy choice: under scatter each shard
    answers its own [COUNT] and the coordinator sums the partial counts
    (co-partitioning puts every satisfying valuation on exactly one
    shard); under exchange the round-1 reducers are gathered as for
    [EVAL] — semijoin reduction is count-preserving — and the exact
    count is computed locally.  The payload is the same single
    bare-count line a single node answers.  A query with no body atom
    contacts no shard: its reducer round is empty and the coordinator
    runs it on the empty database like a single node.

    [CHECK], [EXPLAIN] and [METRICS] are answered locally by the single
    node's own builders ({!Paradb_server.Session.check},
    [explain], [metrics]), so they are byte-identical to a shard's.

    {2 Failure semantics}

    Per-connection shard sockets are pooled; a transport error redials
    once (counted in [cluster.redial]), then walks the replica ranks
    (counted in [cluster.failover]); with no replica left the request
    answers a clean [ERR] naming the dead shard.  Writes ([LOAD],
    [BULK], [FACT]) never fail over: a dead or refusing primary answers
    the same clean [ERR].  The Guard deadline is owned by the
    coordinator and re-armed as a socket timeout on every sub-request
    with whatever budget remains; [max_inflight] admission-limits
    concurrent [EVAL]s on top.  [PARADB_FAULTS] [shard_loss] /
    [straggler_delay] inject pooled-connection loss and sub-request
    stalls here. *)

(** {2 Replica self-healing}

    Writes fan out to every replica rank, but only a {e primary}
    (rank 0) failure fails the request; a missed replica copy counts on
    [cluster.write.replica_miss], logs a warning, and — with
    [hints_dir] set — is journaled as a per-target-shard hint frame
    ({!Hints}) replayed in order before the next write reaches that
    shard (hinted handoff).  [DIGEST <db>] compares per-slice replica
    content fingerprints (the shards' DIGEST lines) and reports
    divergence; [REPAIR <db>] replays hints, then re-ships every
    still-divergent slice with the set union of all readable ranks'
    content — correct under monotone writes, see DESIGN.md §16.
    Divergence and repair work surface as [cluster.replica.divergent]
    and [cluster.repair.*]. *)

type config = {
  addrs : (string * int) array;  (** shard servers, index = shard id *)
  replicas : int;  (** copies per slice, in [[1, shards]] *)
  timeout : float option;  (** per-sub-request socket timeout, seconds *)
  retries : int;  (** connect retries per dial *)
  limits : Paradb_server.Guard.limits;
      (** coordinator-side limits: deadline, row cap, line cap, idle *)
  max_inflight : int option;  (** admission cap on concurrent EVALs *)
  hints_dir : string option;
      (** hinted-handoff journal directory; [None] disables journaling
          (missed replica writes are still counted and logged) *)
}

(** 1 replica, 30s timeout, 2 retries, default Guard limits, no
    admission cap, no hints dir. *)
val default_config : (string * int) list -> config

type t

(** Raises [Invalid_argument] on zero shards, a replica count outside
    [[1, shards]], [max_inflight = Some n] with [n < 1], or [timeout =
    Some s] with [s <= 0]. *)
val create : config -> t

val shards : t -> int

(** One accepted client connection's request processor; give this to
    {!Paradb_server.Server.start_handler}.  It is a
    {!Paradb_server.Frontend} over the coordinator's verbs, so line
    parsing, [BULK] framing, [QUIT], the [server.<verb>] span and the
    [server.verb.<verb>.ns] histogram are exactly a single node's.
    Each connection owns its own pool of shard sockets, released by
    [on_close]. *)
val handler : t -> unit -> Paradb_server.Server.handler

(** [serve ?host t ~port ~workers] — a listening front end wired to
    {!handler} via {!Paradb_server.Server.start_handler}. *)
val serve :
  ?host:string -> t -> port:int -> workers:int -> Paradb_server.Server.t
