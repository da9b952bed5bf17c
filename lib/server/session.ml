module Cq = Paradb_query.Cq
module Source = Paradb_query.Source
module Database = Paradb_relational.Database
module Relation = Paradb_relational.Relation
module Hypergraph = Paradb_hypergraph.Hypergraph
module Join_tree = Paradb_hypergraph.Join_tree
module Planner = Paradb_planner.Planner
module Metrics = Paradb_telemetry.Metrics
module Trace = Paradb_telemetry.Trace
module Export = Paradb_telemetry.Export
module Clock = Paradb_telemetry.Clock
module Budget = Paradb_telemetry.Budget

let m_deadline = Metrics.counter "server.deadline_exceeded"

(* Warm-path accounting: how often an EVAL ran a cached compiled
   pipeline, vs. how often it fell back to an interpreted engine. *)
let m_compiled_hits = Metrics.counter "planner.compiled.cache_hits"
let m_interp_fallback = Metrics.counter "planner.fallback.interpreter"

(* Per-verb latency histograms, prebuilt so the hot path is one assoc
   lookup over a short fixed list.  "invalid" times unparseable lines. *)
let verb_hist =
  List.map
    (fun v -> (v, Metrics.histogram (Printf.sprintf "server.verb.%s.ns" v)))
    [
      "load"; "fact"; "bulk"; "eval"; "count"; "gather"; "ship"; "check";
      "explain"; "digest"; "repair"; "stats"; "metrics"; "quit"; "invalid";
    ]

let observe_verb verb ns =
  match List.assoc_opt verb verb_hist with
  | Some h -> Metrics.observe h ns
  | None -> ()

type shared = {
  catalog : Catalog.t;
  cache : Plan_cache.t;
  stats : Stats.t;
  family : Paradb_core.Hashing.family option;
  limits : Guard.limits;
}

let make_shared ?family ?(limits = Guard.default_limits) ?data_dir
    ~cache_capacity () =
  {
    catalog = Catalog.create ?data_dir ();
    cache = Plan_cache.create ~capacity:cache_capacity ();
    stats = Stats.create ();
    family;
    limits;
  }

(* In-flight BULK framing: after a [BULK db n] header the next [n]
   lines are fact lines, collected here and applied as one batch (one
   generation bump) when the count runs out. *)
type bulk = { bulk_db : string; mutable remaining : int; buf : Buffer.t }

type t = {
  shared : shared;
  stats : Stats.t; (* this session only *)
  mutable bulk : bulk option;
}

let create (shared : shared) =
  Stats.incr_connections shared.stats;
  let stats = Stats.create () in
  Stats.incr_connections stats;
  { shared; stats; bulk = None }

let err s msg =
  Stats.incr_errors s.shared.stats;
  Stats.incr_errors s.stats;
  Protocol.Err msg

let ok ?(payload = []) summary = Protocol.Ok_ { summary; payload }

let now_ns = Clock.now_ns

(* ------------------------------------------------------------------ *)

(* [Store.load_database] accepts both text fact files and segment
   directories; the catalog persists deltas when it owns a data dir. *)
let do_load s ~db ~path =
  match Paradb_storage.Store.load_database path with
  | Error e -> err s e
  | Ok database -> (
      match Catalog.load s.shared.catalog db database with
      | Error e -> err s e
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
  | Error e -> err s e
  | Ok database ->
      ok (Printf.sprintf "%s tuples=%d" db (Database.size database))

(* Shared EVAL/GATHER core: resolve the snapshot, arm the budget, hit
   the plan cache, evaluate, record stats.  Only the payload rendering
   differs between the two verbs. *)
let run_eval s ~db ~kind q =
  match Catalog.find s.shared.catalog db with
  | None -> Error (Printf.sprintf "no database %s (use LOAD or FACT)" db)
  | Some (database, generation) -> (
      (* Scoped by snapshot generation: a LOAD/FACT that swapped
         the snapshot makes every older entry unreachable, so a
         compiled pipeline is never reused against data it was
         not compiled for. *)
      let key = Plan.scoped_key ~db ~generation kind q in
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
              Plan.prepare ?budget (Plan.analyze kind q) database ~generation)
        in
        ( plan,
          outcome,
          Plan.evaluate ?budget ?family:s.shared.family plan database q )
      with
      | exception
          ( Paradb_yannakakis.Yannakakis.Cyclic_query
          | Paradb_core.Engine.Cyclic_query ) ->
          Error "the query hypergraph is cyclic; use engine naive"
      | exception Invalid_argument msg -> Error msg
      | exception Not_found ->
          Error (Printf.sprintf "query names a relation missing from %s" db)
      | exception Budget.Exhausted { elapsed_ns; _ } ->
          Metrics.incr m_deadline;
          Error (Printf.sprintf "deadline-exceeded after %dns" elapsed_ns)
      | plan, outcome, result ->
          let ns = now_ns () - t0 in
          let hit = outcome = `Hit in
          (if plan.Plan.engine = Plan.E_compiled then begin
             if hit then Metrics.incr m_compiled_hits
           end
           else Metrics.incr m_interp_fallback);
          Stats.record s.shared.stats
            ~engine:(Plan.engine_name plan.Plan.engine) ~hit ~ns;
          Stats.record s.stats
            ~engine:(Plan.engine_name plan.Plan.engine) ~hit ~ns;
          Ok (plan, hit, result, ns))

(* COUNT twin of [run_eval]: same catalog/budget/cache/stats discipline,
   but builds and runs the counting pipeline, cached under the COUNT
   keyspace ([Plan.scoped_count_key]). *)
let run_count s ~db ~kind q =
  match Catalog.find s.shared.catalog db with
  | None -> Error (Printf.sprintf "no database %s (use LOAD or FACT)" db)
  | Some (database, generation) -> (
      let key = Plan.scoped_count_key ~db ~generation kind q in
      let budget =
        Option.map
          (fun deadline_ns -> Budget.start ~deadline_ns)
          s.shared.limits.Guard.deadline_ns
      in
      let t0 = now_ns () in
      match
        let plan, outcome =
          Plan_cache.find_or_build ~scope:(db, generation) s.shared.cache
            ~key (fun () ->
              Plan.prepare_count ?budget (Plan.analyze kind q) database
                ~generation)
        in
        (plan, outcome, Plan.count ?budget plan database q)
      with
      | exception
          ( Paradb_yannakakis.Yannakakis.Cyclic_query
          | Paradb_core.Engine.Cyclic_query ) ->
          Error "the query hypergraph is cyclic; use engine naive"
      | exception Invalid_argument msg -> Error msg
      | exception Not_found ->
          Error (Printf.sprintf "query names a relation missing from %s" db)
      | exception Budget.Exhausted { elapsed_ns; _ } ->
          Metrics.incr m_deadline;
          Error (Printf.sprintf "deadline-exceeded after %dns" elapsed_ns)
      | plan, outcome, n ->
          let ns = now_ns () - t0 in
          let hit = outcome = `Hit in
          (if plan.Plan.engine = Plan.E_compiled then begin
             if hit then Metrics.incr m_compiled_hits
           end
           else Metrics.incr m_interp_fallback);
          Stats.record s.shared.stats
            ~engine:(Plan.engine_name plan.Plan.engine) ~hit ~ns;
          Stats.record s.stats
            ~engine:(Plan.engine_name plan.Plan.engine) ~hit ~ns;
          Ok (plan, hit, n, ns))

(* The [--max-rows] cap on an answer of [rows] rows: how many lines to
   render, and whether the answer is cut short. *)
let row_cap ~limits rows =
  match limits.Guard.max_rows with
  | Some m when rows > m -> (Some m, true)
  | _ -> (None, false)

let do_eval s ~db ~engine ~query =
  match Plan.engine_kind_of_string engine with
  | None -> err s (Printf.sprintf "unknown engine %s" engine)
  | Some kind -> (
      match Source.parse_query query with
      | Error e -> err s e
      | Ok q -> (
          match run_eval s ~db ~kind q with
          | Error e -> err s e
          | Ok (plan, hit, result, ns) ->
              let rows = Relation.cardinality result in
              let limit, truncated = row_cap ~limits:s.shared.limits rows in
              ok
                ~payload:(Plan.sorted_tuples ?limit result)
                (Printf.sprintf "engine=%s cache=%s rows=%d ns=%d%s"
                   (Plan.engine_name plan.Plan.engine)
                   (if hit then "hit" else "miss")
                   rows ns
                   (if truncated then " truncated=true" else ""))))

(* COUNT: like EVAL, but the answer is a single number — the summary
   carries [count=<n>] and the payload is one line holding the bare
   count, so both a human and the coordinator's partial-sum gather can
   read it without parsing the summary. *)
let do_count s ~db ~engine ~query =
  match Plan.engine_kind_of_string engine with
  | None -> err s (Printf.sprintf "unknown engine %s" engine)
  | Some kind -> (
      match Source.parse_query query with
      | Error e -> err s e
      | Ok q -> (
          match run_count s ~db ~kind q with
          | Error e -> err s e
          | Ok (plan, hit, n, ns) ->
              ok
                ~payload:[ string_of_int n ]
                (Printf.sprintf "engine=%s cache=%s count=%d ns=%d"
                   (Plan.engine_name plan.Plan.engine)
                   (if hit then "hit" else "miss")
                   n ns)))

(* GATHER: evaluate like EVAL (engine auto) but answer the rows as fact
   lines [head(v1, v2).] — sorted, and in the one line format whose
   values survive a round-trip through [Source.parse_facts].  It is the
   human- and script-readable gather; the coordinator itself reads SHIP
   (below).  Truncation keeps EVAL's explicit [truncated=true] marker. *)
let fact_lines ?limit r =
  Encode.lines ?limit ~left:(Relation.name r ^ "(")
    ~cell:Paradb_query.Fact_format.value_to_syntax ~right:")." r

(* GATHER and SHIP: evaluate with engine auto, then [render] the result. *)
let gathered s ~db ~query render =
  match Source.parse_query query with
  | Error e -> err s e
  | Ok q -> (
      match run_eval s ~db ~kind:Plan.Auto q with
      | Error e -> err s e
      | Ok (_plan, hit, result, ns) ->
          render ~cache:(if hit then "hit" else "miss") ~ns result)

let do_gather s ~db ~query =
  gathered s ~db ~query @@ fun ~cache ~ns result ->
  let rows = Relation.cardinality result in
  let limit, truncated = row_cap ~limits:s.shared.limits rows in
  ok
    ~payload:(fact_lines ?limit result)
    (Printf.sprintf "gathered %s cache=%s rows=%d ns=%d%s"
       (Relation.name result) cache rows ns
       (if truncated then " truncated=true" else ""))

(* SHIP: evaluate exactly like GATHER, but answer the result relation as
   one payload line — its segment ([Segment.encode], checksummed) in hex.
   No sort and no per-row text: the coordinator decodes codes straight
   into its union.  An answer over [--max-rows] is never shipped in part:
   the summary keeps the [truncated=true] marker and the payload is
   empty, so the coordinator refuses it exactly as it refuses a
   truncated GATHER. *)
let ship_answer ~limits ~cache ~ns result =
  let rows = Relation.cardinality result in
  let _, truncated = row_cap ~limits rows in
  ok
    ~payload:
      (if truncated then []
       else [ Paradb_storage.Segment.(to_hex (encode result)) ])
    (Printf.sprintf "shipped %s cache=%s rows=%d ns=%d%s"
       (Relation.name result) cache rows ns
       (if truncated then " truncated=true" else ""))

let do_ship s ~db ~query =
  gathered s ~db ~query (ship_answer ~limits:s.shared.limits)

let finish_bulk s b =
  match Catalog.bulk_set s.shared.catalog b.bulk_db (Buffer.contents b.buf) with
  | Error e -> err s e
  | Ok db ->
      ok
        (Printf.sprintf "bulk %s relations=%d tuples=%d" b.bulk_db
           (List.length (Database.relations db))
           (Database.size db))

let do_bulk s ~db ~count =
  if count = 0 then (Some (finish_bulk s { bulk_db = db; remaining = 0; buf = Buffer.create 0 }), `Continue)
  else begin
    s.bulk <- Some { bulk_db = db; remaining = count; buf = Buffer.create (count * 16) };
    (None, `Continue)
  end

let bulk_line s b line =
  Buffer.add_string b.buf line;
  Buffer.add_char b.buf '\n';
  b.remaining <- b.remaining - 1;
  if b.remaining = 0 then begin
    s.bulk <- None;
    (Some (finish_bulk s b), `Continue)
  end
  else (None, `Continue)

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
  | None -> err s (Printf.sprintf "no database %s (use LOAD or FACT)" db)
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

let do_check s query =
  match Source.parse_query query with
  | Error e -> err s e
  | Ok q ->
      let plan = Plan.analyze Plan.Auto q in
      let pplan = plan.Plan.pplan in
      let payload =
        [
          Printf.sprintf "query: %s" (Cq.to_string q);
          Printf.sprintf "size %d vars %d" (Cq.size q) (Cq.num_vars q);
          Printf.sprintf "acyclic: %b" plan.Plan.acyclic;
          Printf.sprintf "class: %s"
            (Planner.classification_name pplan.Planner.classification);
          Printf.sprintf "width: %d" pplan.Planner.width;
          Printf.sprintf "join_tree: %s"
            (match plan.Plan.tree with
            | Some t -> Printf.sprintf "%d nodes" (Join_tree.n_nodes t)
            | None -> "none");
          Printf.sprintf "neq_partition_k: %d" plan.Plan.neq_k;
          Printf.sprintf "recommended_engine: %s"
            (Plan.engine_name plan.Plan.engine);
        ]
      in
      ok ~payload (Printf.sprintf "checked size=%d" (Cq.size q))

let do_explain s query =
  match Source.parse_query query with
  | Error e -> err s e
  | Ok q ->
      let pplan = Planner.plan q in
      ok
        ~payload:(Planner.explain pplan)
        (Printf.sprintf "plan class=%s width=%d steps=%d"
           (Planner.classification_name pplan.Planner.classification)
           pplan.Planner.width
           (List.length pplan.Planner.steps))

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

let do_metrics () =
  ok ~payload:[ Export.to_json (Metrics.snapshot ()) ] "metrics"

let dispatch s req =
  match req with
  | Protocol.Load { db; path } -> (Some (do_load s ~db ~path), `Continue)
  | Protocol.Fact { db; fact } -> (Some (do_fact s ~db ~fact), `Continue)
  | Protocol.Bulk { db; count } -> do_bulk s ~db ~count
  | Protocol.Eval { db; engine; query } ->
      (Some (do_eval s ~db ~engine ~query), `Continue)
  | Protocol.Count { db; engine; query } ->
      (Some (do_count s ~db ~engine ~query), `Continue)
  | Protocol.Gather { db; query } -> (Some (do_gather s ~db ~query), `Continue)
  | Protocol.Ship { db; query } -> (Some (do_ship s ~db ~query), `Continue)
  | Protocol.Check query -> (Some (do_check s query), `Continue)
  | Protocol.Explain query -> (Some (do_explain s query), `Continue)
  | Protocol.Digest db -> (Some (do_digest s db), `Continue)
  | Protocol.Repair _ ->
      (* repair compares replicas across shards; only the coordinator
         has the vantage point to do it *)
      (Some (err s "REPAIR is a coordinator verb"), `Continue)
  | Protocol.Stats -> (Some (do_stats s), `Continue)
  | Protocol.Metrics -> (Some (do_metrics ()), `Continue)
  | Protocol.Quit -> (Some (ok "bye"), `Quit)

let handle s req =
  let verb = Protocol.verb_name req in
  Trace.with_span ("server." ^ verb) @@ fun () ->
  (* deliberately outside the dispatcher's error handling: exercises the
     server loop's catch-all (chaos tests) *)
  Fault.injected_raise ();
  let t0 = now_ns () in
  let r = dispatch s req in
  observe_verb verb (now_ns () - t0);
  r

let handle_line s line =
  let t0 = now_ns () in
  match s.bulk with
  | Some b ->
      (* mid-BULK: the raw line is a fact line, not a request *)
      let r = bulk_line s b line in
      observe_verb "bulk" (now_ns () - t0);
      r
  | None -> (
      match Protocol.parse_request line with
      | Error e ->
          let r = (Some (err s e), `Continue) in
          observe_verb "invalid" (now_ns () - t0);
          r
      | Ok req -> handle s req)
