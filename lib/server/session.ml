module Cq = Paradb_query.Cq
module Source = Paradb_query.Source
module Database = Paradb_relational.Database
module Relation = Paradb_relational.Relation
module Join_tree = Paradb_hypergraph.Join_tree
module Planner = Paradb_planner.Planner
module Metrics = Paradb_telemetry.Metrics
module Export = Paradb_telemetry.Export
module Clock = Paradb_telemetry.Clock
module Budget = Paradb_telemetry.Budget

let m_deadline = Metrics.counter "server.deadline_exceeded"

(* Warm-path accounting: how often an EVAL ran a cached compiled
   pipeline, vs. how often it fell back to an interpreted engine. *)
let m_compiled_hits = Metrics.counter "planner.compiled.cache_hits"
let m_interp_fallback = Metrics.counter "planner.fallback.interpreter"

type shared = {
  catalog : Catalog.t;
  cache : Plan_cache.t;
  stats : Stats.t;
  limits : Guard.limits;
}

let make_shared ?(limits = Guard.default_limits) ?data_dir
    ~cache_capacity () =
  {
    catalog = Catalog.create ?data_dir ();
    cache = Plan_cache.create ~capacity:cache_capacity ();
    stats = Stats.create ();
    limits;
  }

(* What the verbs see of a session: the server-wide state and this
   session's own counters. *)
type session = { shared : shared; stats : Stats.t }

type t = { session : session; front : Frontend.handler }

let ok ?(payload = []) summary = Protocol.Ok_ { summary; payload }

let now_ns = Clock.now_ns

(* ------------------------------------------------------------------ *)

(* [Store.load_database] accepts both text fact files and segment
   directories; the catalog persists deltas when it owns a data dir. *)
let do_load s ~db ~path =
  match Paradb_storage.Store.load_database path with
  | Error e -> Protocol.Err e
  | Ok database -> (
      match Catalog.load s.shared.catalog db database with
      | Error e -> Protocol.Err e
      | Ok (merged, mode) ->
          ok
            (Printf.sprintf "loaded %s mode=%s relations=%d tuples=%d" db
               (match mode with
               | `Replaced -> "replace"
               | `Appended -> "append"
               | `Created -> "create")
               (List.length (Database.relations merged))
               (Database.size merged)))

let do_fact s ~db ~fact =
  match Catalog.add_fact s.shared.catalog db fact with
  | Error e -> Protocol.Err e
  | Ok database ->
      ok (Printf.sprintf "%s tuples=%d" db (Database.size database))

let do_bulk s ~db text =
  match Catalog.bulk_set s.shared.catalog db text with
  | Error e -> Protocol.Err e
  | Ok database ->
      ok
        (Printf.sprintf "bulk %s relations=%d tuples=%d" db
           (List.length (Database.relations database))
           (Database.size database))

(* The EVAL/COUNT/GATHER/SHIP prelude: a known engine and a parsed
   query, or ERR. *)
let with_query ~engine ~query k =
  match Plan.engine_kind_of_string engine with
  | None -> Protocol.Err (Printf.sprintf "unknown engine %s" engine)
  | Some kind -> (
      match Source.parse_query query with
      | Error e -> Protocol.Err e
      | Ok q -> k kind q)

let count_overflow = "count-overflow"

(* The one query runner: resolve the snapshot, arm the budget, look the
   plan up under [key] (building it with [prepare] on a miss), run it
   with [exec], record stats, and [render] the result.  EVAL, GATHER and
   SHIP pass [Plan.scoped_key]/[Plan.prepare]/[Plan.evaluate]; COUNT
   passes the counting triple, whose keyspace never aliases EVAL's. *)
let run s ~db ~kind q ~key
    ~(prepare :
       ?budget:Budget.t -> Plan.t -> Database.t -> generation:int -> Plan.t)
    ~(exec : ?budget:Budget.t -> Plan.t -> Database.t -> Cq.t -> 'a) render =
  match Catalog.find s.shared.catalog db with
  | None -> Protocol.Err (Printf.sprintf "no database %s (use LOAD or FACT)" db)
  | Some (database, generation) -> (
      (* Scoped by snapshot generation: a LOAD/FACT that swapped
         the snapshot makes every older entry unreachable, so a
         compiled pipeline is never reused against data it was
         not compiled for. *)
      let key = key ~db ~generation kind q in
      let budget =
        Option.map
          (fun deadline_ns -> Budget.start ~deadline_ns)
          s.shared.limits.Guard.deadline_ns
      in
      let t0 = now_ns () in
      match
        (* The budget covers the whole request: planning and
           pipeline compilation on a miss, then evaluation. *)
        let plan, outcome =
          Plan_cache.find_or_build ~scope:(db, generation) s.shared.cache
            ~key (fun () ->
              prepare ?budget (Plan.analyze kind q) database ~generation)
        in
        (plan, outcome, exec ?budget plan database q)
      with
      | exception
          ( Paradb_yannakakis.Yannakakis.Cyclic_query
          | Paradb_core.Engine.Cyclic_query ) ->
          Protocol.Err "the query hypergraph is cyclic; use engine naive"
      | exception Invalid_argument msg -> Protocol.Err msg
      | exception Not_found ->
          Protocol.Err
            (Printf.sprintf "query names a relation missing from %s" db)
      | exception Budget.Exhausted { elapsed_ns; _ } ->
          Metrics.incr m_deadline;
          Protocol.Err
            (Printf.sprintf "deadline-exceeded after %dns" elapsed_ns)
      | exception Paradb_relational.Semiring.Count_overflow ->
          Protocol.Err count_overflow
      | plan, outcome, result ->
          let ns = now_ns () - t0 in
          let hit = outcome = `Hit in
          (if plan.Plan.engine = Plan.E_compiled then begin
             if hit then Metrics.incr m_compiled_hits
           end
           else Metrics.incr m_interp_fallback);
          let engine = Plan.engine_name plan.Plan.engine in
          Stats.record s.shared.stats ~engine ~hit ~ns;
          Stats.record s.stats ~engine ~hit ~ns;
          render plan ~cache:(if hit then "hit" else "miss") ~ns result)

let evaluated s ~db ~kind q render =
  run s ~db ~kind q ~key:Plan.scoped_key ~prepare:Plan.prepare
    ~exec:(Plan.evaluate ?family:None) render

(* The [--max-rows] cap on an answer of [rows] rows: how many lines to
   render, and whether the answer is cut short. *)
let row_cap ~limits rows =
  match limits.Guard.max_rows with
  | Some m when rows > m -> (Some m, true)
  | _ -> (None, false)

let do_eval s ~db ~engine ~query =
  with_query ~engine ~query @@ fun kind q ->
  evaluated s ~db ~kind q @@ fun plan ~cache ~ns result ->
  let rows = Relation.cardinality result in
  let limit, truncated = row_cap ~limits:s.shared.limits rows in
  ok
    ~payload:(Plan.sorted_tuples ?limit result)
    (Printf.sprintf "engine=%s cache=%s rows=%d ns=%d%s"
       (Plan.engine_name plan.Plan.engine)
       cache rows ns
       (if truncated then " truncated=true" else ""))

(* COUNT: like EVAL, but the answer is a single number — the summary
   carries [count=<n>] and the payload is one line holding the bare
   count, so both a human and the coordinator's partial-sum gather can
   read it without parsing the summary. *)
let do_count s ~db ~engine ~query =
  with_query ~engine ~query @@ fun kind q ->
  run s ~db ~kind q ~key:Plan.scoped_count_key ~prepare:Plan.prepare_count
    ~exec:Plan.count
  @@ fun plan ~cache ~ns n ->
  ok
    ~payload:[ string_of_int n ]
    (Printf.sprintf "engine=%s cache=%s count=%d ns=%d"
       (Plan.engine_name plan.Plan.engine)
       cache n ns)

(* GATHER: evaluate like EVAL (engine auto) but answer the rows as fact
   lines [head(v1, v2).] — sorted, and in the one line format whose
   values survive a round-trip through [Source.parse_facts].  It is the
   human- and script-readable gather; the coordinator itself reads SHIP
   (below).  Truncation keeps EVAL's explicit [truncated=true] marker. *)
let fact_lines ?limit r =
  Encode.lines ?limit
    ~quote:(fun s -> Paradb_query.Fact_format.value_to_syntax (Str s))
    ~left:(Relation.name r ^ "(") ~right:")." r

(* GATHER and SHIP: evaluate with engine auto, then [render] the plan
   and the result. *)
let gathered s ~db ~query render =
  with_query ~engine:"auto" ~query @@ fun kind q ->
  evaluated s ~db ~kind q render

let gather_answer ~limits ~cache ~ns result =
  let rows = Relation.cardinality result in
  let limit, truncated = row_cap ~limits rows in
  ok
    ~payload:(fact_lines ?limit result)
    (Printf.sprintf "gathered %s cache=%s rows=%d ns=%d%s"
       (Relation.name result) cache rows ns
       (if truncated then " truncated=true" else ""))

let do_gather s ~db ~query =
  gathered s ~db ~query (fun _plan -> gather_answer ~limits:s.shared.limits)

(* SHIP: evaluate exactly like GATHER, but answer the result relation as
   one payload line — its segment ([Segment.encode], checksummed) in hex.
   No sort and no per-row text: the coordinator decodes codes straight
   into its union.  An answer over [--max-rows] is never shipped in part:
   the summary keeps the [truncated=true] marker and the payload is
   empty, so the coordinator refuses it exactly as it refuses a
   truncated GATHER.  [snap], when given, ends the summary as
   [snap=<token>]. *)
let ship_answer ?snap ~limits ~cache ~ns result =
  let rows = Relation.cardinality result in
  let _, truncated = row_cap ~limits rows in
  ok
    ~payload:
      (if truncated then []
       else [ Paradb_storage.Segment.(to_hex (encode result)) ])
    (Printf.sprintf "shipped %s cache=%s rows=%d ns=%d%s%s"
       (Relation.name result) cache rows ns
       (if truncated then " truncated=true" else "")
       (match snap with Some t -> " snap=" ^ t | None -> ""))

(* A shard's SHIP names the snapshot it was evaluated on: the generation
   is the plan's, which [run] prepared (or found cached) under the same
   [Catalog.find] that produced the answer — a token read afterwards
   could name a newer snapshot than the rows.  [if=<snap>] still
   matching the entry's current token answers [shipped unchanged]
   before any parse, plan or run: the asker already holds those rows. *)
let do_ship s ~db ~query ~if_snap =
  let catalog = s.shared.catalog in
  match if_snap with
  | Some snap
    when Paradb_telemetry.Mutate.enabled "ship_stale_snapshot"
         || Catalog.current_snap catalog db = Some snap ->
      ok ("shipped unchanged snap=" ^ snap)
  | _ ->
      gathered s ~db ~query @@ fun plan ->
      ship_answer
        ~snap:(Catalog.snap catalog ~generation:plan.Plan.generation)
        ~limits:s.shared.limits

(* DIGEST: a content fingerprint of one catalog entry, built for
   replica comparison — one [relation <name> <arity> <rows> <crc32hex>]
   line per relation, sorted by name, with the checksum taken over the
   relation's fact lines in sorted-tuple order.  Two stores holding the
   same logical rows answer bit-identically regardless of segment
   layout, insertion order, or interning history; the arity rides along
   so a repairer can build the full-scan GATHER that re-ships a
   divergent relation without knowing the schema. *)
let do_digest s db =
  match Catalog.find s.shared.catalog db with
  | None -> Protocol.Err (Printf.sprintf "no database %s (use LOAD or FACT)" db)
  | Some (database, generation) ->
      let payload =
        Database.relations database
        |> List.map (fun r ->
               let crc =
                 List.fold_left
                   (fun c line ->
                     Paradb_storage.Crc32.(
                       feed_byte (feed_string c line) (Char.code '\n')))
                   Paradb_storage.Crc32.init (fact_lines r)
                 |> Paradb_storage.Crc32.finish
               in
               Printf.sprintf "relation %s %d %d %08x" (Relation.name r)
                 (Relation.arity r)
                 (Relation.cardinality r) crc)
        |> List.sort compare
      in
      ok ~payload
        (Printf.sprintf "digest %s generation=%d relations=%d" db generation
           (List.length payload))

let check query =
  match Source.parse_query query with
  | Error e -> Protocol.Err e
  | Ok q ->
      let plan = Plan.analyze Plan.Auto q in
      let pplan = plan.Plan.pplan in
      let payload =
        [
          Printf.sprintf "query: %s" (Cq.to_string q);
          Printf.sprintf "size %d vars %d" (Cq.size q) (Cq.num_vars q);
          Printf.sprintf "acyclic: %b"
            (pplan.Planner.classification = Planner.Acyclic);
          Printf.sprintf "class: %s"
            (Planner.classification_name pplan.Planner.classification);
          Printf.sprintf "width: %d" pplan.Planner.width;
          Printf.sprintf "join_tree: %s"
            (match (pplan.Planner.components, pplan.Planner.tree) with
            | [], Some t -> Printf.sprintf "%d nodes" (Join_tree.n_nodes t)
            | [], None -> "none"
            | cs, _ ->
                Printf.sprintf "forest of %d components" (List.length cs));
          Printf.sprintf "neq_partition_k: %d" plan.Plan.neq_k;
          Printf.sprintf "recommended_engine: %s"
            (Plan.engine_name plan.Plan.engine);
        ]
      in
      ok ~payload (Printf.sprintf "checked size=%d" (Cq.size q))

let explain query =
  match Source.parse_query query with
  | Error e -> Protocol.Err e
  | Ok q ->
      let pplan = Planner.plan q in
      ok
        ~payload:(Planner.explain pplan)
        (Printf.sprintf "plan class=%s width=%d steps=%d"
           (Planner.classification_name pplan.Planner.classification)
           pplan.Planner.width
           (List.fold_left
              (fun n p -> n + List.length p.Planner.steps)
              0
              (Planner.connected_plans pplan)))

let do_stats s =
  let cache = Plan_cache.counters s.shared.cache in
  let payload =
    Stats.report ~prefix:"session." s.stats
    @ Stats.report ~prefix:"server." s.shared.stats
    @ [
        Printf.sprintf "server.cache.size %d" cache.Plan_cache.size;
        Printf.sprintf "server.cache.capacity %d"
          (Plan_cache.capacity s.shared.cache);
        Printf.sprintf "server.cache.evictions %d" cache.Plan_cache.evictions;
        Printf.sprintf "server.cache.superseded %d" cache.Plan_cache.superseded;
      ]
    @ List.concat_map
        (fun e ->
          Printf.sprintf "db.%s %d" e.Catalog.name e.Catalog.tuples
          :: Printf.sprintf "db.%s.generation %d" e.Catalog.name
               e.Catalog.generation
          ::
          (match e.Catalog.segments with
          | Some k -> [ Printf.sprintf "db.%s.segments %d" e.Catalog.name k ]
          | None -> []))
        (Catalog.entries_stats s.shared.catalog)
    @ Export.to_table ~prefix:"telemetry." (Metrics.snapshot ())
  in
  ok ~payload "stats"

let metrics () = ok ~payload:[ Export.to_json (Metrics.snapshot ()) ] "metrics"

let verb s = function
  | Protocol.Load { db; path } -> do_load s ~db ~path
  | Protocol.Fact { db; fact } -> do_fact s ~db ~fact
  | Protocol.Eval { db; engine; query } -> do_eval s ~db ~engine ~query
  | Protocol.Count { db; engine; query } -> do_count s ~db ~engine ~query
  | Protocol.Gather { db; query } -> do_gather s ~db ~query
  | Protocol.Ship { db; query; if_snap } -> do_ship s ~db ~query ~if_snap
  | Protocol.Check query -> check query
  | Protocol.Explain query -> explain query
  | Protocol.Digest db -> do_digest s db
  | Protocol.Repair _ ->
      (* repair compares replicas across shards; only the coordinator
         has the vantage point to do it *)
      Protocol.Err "REPAIR is a coordinator verb"
  | Protocol.Stats -> do_stats s
  | Protocol.Metrics -> metrics ()
  | Protocol.Bulk _ | Protocol.Quit ->
      invalid_arg "Session.verb: BULK and QUIT are framed by Frontend"

let create (shared : shared) =
  Stats.incr_connections shared.stats;
  let s = { shared; stats = Stats.create () } in
  Stats.incr_connections s.stats;
  { session = s; front = Frontend.handler ~verb:(verb s) ~bulk:(do_bulk s) () }

(* Every ERR a session answers, whichever verb (or the front end's
   parse) produced it, counts once, server-wide and per session. *)
let handle_line t line =
  let r = t.front.Frontend.on_line line in
  (match r with
  | Some (Protocol.Err _), _ ->
      Stats.incr_errors t.session.shared.stats;
      Stats.incr_errors t.session.stats
  | _ -> ());
  r
