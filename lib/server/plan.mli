(** Query plans: the parameter-dependent part of evaluation (PAPER.md,
    Theorem 2's f(k) preprocessing), computed once per normalized query
    and cached by {!Plan_cache}.

    A plan fixes the engine dispatch decision, the structural
    classification ({!Paradb_planner.Planner.t}: class, width, join
    order, semijoin program), the I1/I2 inequality partition's hash range
    [k] — and, for the compiled engine, the fused pipeline itself.
    {!analyze} is database-independent; {!prepare} binds an [E_compiled]
    plan to one catalog snapshot by compiling the pipeline, which is why
    the server keys cache entries on the snapshot generation
    ({!scoped_key}). *)

module Cq = Paradb_query.Cq
module Database = Paradb_relational.Database
module Relation = Paradb_relational.Relation

type engine_kind = Auto | Naive | Yannakakis | Fpt | Compiled

type engine = E_naive | E_yannakakis | E_fpt | E_compiled

type t = {
  query : Cq.t;  (** the alpha-normalized query the plan was built from *)
  engine : engine;  (** resolved dispatch decision *)
  neq_k : int;  (** [|V1|] of the Ineq partition; 0 unless [E_fpt] *)
  pplan : Paradb_planner.Planner.t;  (** physical plan and classification *)
  exec : Paradb_eval.Compile.exec option;
      (** compiled pipeline; [Some] only after {!prepare} *)
  count_exec : Paradb_eval.Compile.count_exec option;
      (** compiled counting pipeline; [Some] only after {!prepare_count} *)
  generation : int;
      (** catalog generation [exec] was compiled against; [-1] when
          unprepared *)
}

val engine_kind_of_string : string -> engine_kind option
val engine_kind_name : engine_kind -> string
val engine_name : engine -> string

(** [cannot_count engine] — the one refusal text for a [COUNT] the
    engine cannot answer ({!count} raises it; the coordinator and the
    CLI print it), e.g. ["COUNT: engine fpt cannot count (use auto,
    naive, yannakakis, or compiled)"]. *)
val cannot_count : engine -> string

(** [cache_key kind q] — the database-independent part of the plan-cache
    key: the requested engine's name and [Cq.cache_key q]. *)
val cache_key : engine_kind -> Cq.t -> string

(** [scoped_key ~db ~generation kind q] — the full plan-cache key the
    server uses: {!cache_key} scoped by database name and catalog
    snapshot generation, so no cache entry (in particular no compiled
    pipeline) survives a snapshot swap. *)
val scoped_key : db:string -> generation:int -> engine_kind -> Cq.t -> string

(** [scoped_count_key] — same discipline for COUNT plans, under a
    distinct keyspace so an EVAL and a COUNT of the same query never
    share a cache entry (they carry different compiled artifacts). *)
val scoped_count_key :
  db:string -> generation:int -> engine_kind -> Cq.t -> string

(** [analyze kind q] resolves the dispatch ([Auto] and [Compiled] go to
    the compiled pipeline engine; the named interpreters are forced by
    name) and precomputes the cacheable, database-independent analysis,
    including the {!Paradb_planner.Planner} classification.  The
    constants of [q]'s atoms and head are interned into the global
    dictionary here; constraint constants are not (compiled checks look
    them up or place them in the dictionary's order index). *)
val analyze : engine_kind -> Cq.t -> t

(** [prepare plan db ~generation] compiles an [E_compiled] plan against
    the snapshot [db], recording the compile time in the
    [planner.compile_ns] histogram; other engines pass through
    unchanged.  Raises [Not_found] if [db] lacks a relation the query
    names, and {!Paradb_telemetry.Budget.Exhausted} if [budget] expires
    mid-compile. *)
val prepare :
  ?budget:Paradb_telemetry.Budget.t -> t -> Database.t -> generation:int -> t

(** [prepare_count] — {!prepare} for the counting pipeline. *)
val prepare_count :
  ?budget:Paradb_telemetry.Budget.t -> t -> Database.t -> generation:int -> t

(** [evaluate plan db q] runs the plan's engine on [q] — which must be
    alpha-equivalent to [plan.query]; the fresh parse is used directly so
    head attribute names are preserved.  [E_compiled] plans run their
    prepared pipeline (compiling on the fly against [db] when
    unprepared); the fpt engine runs its deterministic sweep family.
    [budget] is threaded into whichever engine runs; expiry raises
    {!Paradb_telemetry.Budget.Exhausted}.  Raises the engines' exceptions
    ([Cyclic_query], [Invalid_argument]) unchanged. *)
val evaluate :
  ?budget:Paradb_telemetry.Budget.t -> t -> Database.t -> Cq.t -> Relation.t

(** [count plan db q] — the exact answer count (number of satisfying
    valuations of the body variables, Nat-semiring semantics).
    [E_compiled] plans run their prepared counting pipeline (compiling
    on the fly when unprepared); [E_naive] and [E_yannakakis] dispatch
    to their interpreters' counting entry points.  Raises
    [Invalid_argument (cannot_count E_fpt)] — the fpt engine's
    randomized trials only witness satisfiability and cannot produce
    exact multiplicities. *)
val count :
  ?budget:Paradb_telemetry.Budget.t -> t -> Database.t -> Cq.t -> int

(** [sorted_tuples ?limit r] — the result rows rendered one per line as
    [(v1, v2)] ({!Paradb_relational.Tuple.to_string}), sorted with
    {!Paradb_relational.Tuple.compare}; with [limit], only the first
    [limit] lines.  This is the canonical answer-set serialization:
    identical relations always print identically, whatever the
    row-store iteration order.  Built by {!Encode.lines} from the code
    rows, without decoding a tuple. *)
val sorted_tuples : ?limit:int -> Relation.t -> string list
