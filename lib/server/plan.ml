module Cq = Paradb_query.Cq
module Atom = Paradb_query.Atom
module Term = Paradb_query.Term
module Database = Paradb_relational.Database
module Relation = Paradb_relational.Relation
module Dictionary = Paradb_relational.Dictionary
module Engine = Paradb_core.Engine
module Ineq = Paradb_core.Ineq
module Planner = Paradb_planner.Planner
module Compile = Paradb_eval.Compile
module Metrics = Paradb_telemetry.Metrics
module Clock = Paradb_telemetry.Clock

type engine_kind = Auto | Naive | Yannakakis | Fpt | Compiled

type engine = E_naive | E_yannakakis | E_fpt | E_compiled

type t = {
  query : Cq.t;
  engine : engine;
  neq_k : int;
  pplan : Planner.t;
  exec : Compile.exec option;
  count_exec : Compile.count_exec option;
  generation : int;
}

let m_compile_ns = Metrics.histogram "planner.compile_ns"

let engine_kind_of_string s =
  match String.lowercase_ascii s with
  | "auto" -> Some Auto
  | "naive" -> Some Naive
  | "yannakakis" -> Some Yannakakis
  | "fpt" -> Some Fpt
  | "compiled" -> Some Compiled
  | _ -> None

let engine_kind_name = function
  | Auto -> "auto"
  | Naive -> "naive"
  | Yannakakis -> "yannakakis"
  | Fpt -> "fpt"
  | Compiled -> "compiled"

let engine_name = function
  | E_naive -> "naive"
  | E_yannakakis -> "yannakakis"
  | E_fpt -> "fpt"
  | E_compiled -> "compiled"

let cannot_count engine =
  Printf.sprintf
    "COUNT: engine %s cannot count (use auto, naive, yannakakis, or compiled)"
    (engine_name engine)

let cache_key kind q =
  engine_kind_name kind ^ "|" ^ Cq.cache_key q

(* Compiled pipelines are bound to one catalog snapshot, so their cache
   entries must be too: scope the key by database name and snapshot
   generation.  Interpreted plans would be reusable across snapshots, but
   one keying discipline for every entry keeps the invalidation story
   trivially auditable. *)
let scoped_key ~db ~generation kind q =
  Printf.sprintf "%s#%d|%s" db generation (cache_key kind q)

(* COUNT plans carry a different compiled artifact (the counting
   pipeline), so they live under their own keyspace — an EVAL and a
   COUNT of the same query never alias. *)
let scoped_count_key ~db ~generation kind q =
  Printf.sprintf "%s#%d|count|%s" db generation (cache_key kind q)

(* Constraint constants are left out: the compiled checks look them up
   ([!=]) or place them in the order index ([<], [<=]), so an absent one
   never grows the dictionary. *)
let constants q =
  List.concat_map Atom.constants q.Cq.body
  @ List.filter_map
      (function Term.Const v -> Some v | Term.Var _ -> None)
      q.Cq.head

let analyze requested q =
  let nq = Cq.alpha_normalize q in
  let pplan = Planner.plan nq in
  let engine =
    match requested with
    | Naive -> E_naive
    | Yannakakis -> E_yannakakis
    | Fpt -> E_fpt
    | Compiled -> E_compiled
    | Auto -> E_compiled
  in
  let neq_k =
    if engine = E_fpt && Cq.neq_only nq then (Ineq.partition nq).Ineq.k else 0
  in
  (* Pre-intern the query's constants: evaluation then only reads the
     dictionary, which is the discipline the engine's parallel trials
     already rely on (Dictionary's concurrency contract). *)
  List.iter (fun v -> ignore (Dictionary.intern Dictionary.global v)) (constants q);
  {
    query = nq;
    engine;
    neq_k;
    pplan;
    exec = None;
    count_exec = None;
    generation = -1;
  }

(* [prepare plan db ~generation] binds an [E_compiled] plan to a snapshot
   by compiling the pipeline now (other engines pass through).  The
   server calls this inside the cache-build closure, so a warm hit skips
   planning and compilation entirely. *)
let prepare ?budget plan db ~generation =
  match plan.engine with
  | E_compiled ->
      let t0 = Clock.now_ns () in
      let exec = Compile.compile ?budget plan.pplan db in
      Metrics.observe m_compile_ns (Clock.now_ns () - t0);
      { plan with exec = Some exec; generation }
  | _ -> plan

(* [prepare_count] is [prepare] for the counting pipeline. *)
let prepare_count ?budget plan db ~generation =
  match plan.engine with
  | E_compiled ->
      let t0 = Clock.now_ns () in
      let count_exec = Compile.compile_count ?budget plan.pplan db in
      Metrics.observe m_compile_ns (Clock.now_ns () - t0);
      { plan with count_exec = Some count_exec; generation }
  | _ -> plan

let evaluate ?budget ?family plan db q =
  match plan.engine with
  | E_naive -> Paradb_eval.Cq_naive.evaluate ?budget db q
  | E_yannakakis -> Paradb_yannakakis.Yannakakis.evaluate ?budget db q
  | E_fpt -> Engine.evaluate ?budget ?family db q
  | E_compiled -> (
      match plan.exec with
      | Some exec -> Compile.run ?budget exec
      | None ->
          (* Unprepared plan (one-shot CLI, tests): compile on the fly
             against the database at hand. *)
          Compile.run ?budget (Compile.compile ?budget plan.pplan db))

let count ?budget plan db q =
  match plan.engine with
  | E_naive -> Paradb_eval.Cq_naive.count ?budget db q
  | E_yannakakis -> Paradb_yannakakis.Yannakakis.count ?budget db q
  | E_compiled -> (
      match plan.count_exec with
      | Some cexec -> Compile.run_count ?budget cexec
      | None ->
          Compile.run_count ?budget (Compile.compile_count ?budget plan.pplan db))
  | E_fpt -> invalid_arg (cannot_count plan.engine)

let sorted_tuples ?limit r = Encode.lines ?limit ~left:"(" ~right:")" r
