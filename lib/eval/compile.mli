(** Compiled push-based evaluation of planner plans.

    [compile] lowers a {!Paradb_planner.Planner.t} against one database
    snapshot into a pipeline of fused OCaml closures over the
    dictionary-encoded code rows: plain atoms are views of the base
    relations (sharing their memoized key indexes), atoms with constants
    are index-probe selections, acyclic plans are fully semijoin-reduced (the
    Yannakakis guarantee: enumeration from the root never dead-ends), and
    each plan step becomes a scan / hash-probe / membership closure
    writing variable codes into a flat register file.  One step builder
    serves both sinks (Bool rows and Nat counts); they differ only in the
    barrier policy and the terminal.  Running the compiled pipeline does
    no planning, no [Value.t] decoding on the join path and no per-tuple
    variant dispatch, and it allocates only what the sink keeps — a new
    output row or a new barrier/memo key — the warm-path contract the
    server's plan cache relies on.  Past the plan's first-witness cut
    ({!Paradb_planner.Planner.t.cut}) the Bool pipeline stops at the
    first witness of each head row; a Boolean query stops at its first
    witness.

    A join forest ({!Paradb_planner.Planner.t.components}) compiles one
    pipeline per component, each reduced over its own tree.  EVAL runs
    the head-free components first, each stopping at its first witness,
    and answers empty if one has none; then the components that carry
    the head run, and several are combined into head order.  COUNT is
    the product of every component's count.

    The compiled value is bound to the snapshot it was compiled against;
    the server keys its cache on the catalog generation so a stale
    pipeline is never reused after LOAD/FACT.

    Budget discipline matches the interpreted engines: [compile] polls
    while materializing and reducing, and the pipeline polls at a strided
    checkpoint ({!Paradb_telemetry.Budget.Exhausted} propagates). *)

type exec

(** [compile plan db] materializes and reduces the per-atom relations and
    fuses the pipeline.  Raises [Invalid_argument] if the database lacks
    a relation named in the query (the interpreters' behaviour). *)
val compile :
  ?budget:Paradb_telemetry.Budget.t ->
  Paradb_planner.Planner.t -> Paradb_relational.Database.t -> exec

(** [run exec] executes the pipeline and returns the result relation
    (head schema [a0..an], name = query name), deduplicated.  Safe to
    call concurrently from several domains: all per-run state is local. *)
val run : ?budget:Paradb_telemetry.Budget.t -> exec -> Paradb_relational.Relation.t

(** [evaluate db q] = plan, compile, run — the one-shot convenience used
    by the CLI and the differential oracle. *)
val evaluate :
  ?budget:Paradb_telemetry.Budget.t ->
  Paradb_relational.Database.t -> Paradb_query.Cq.t -> Paradb_relational.Relation.t

(** {2 Counting}

    The same plan lowered to a counting sink: the number of satisfying
    valuations of the body variables (Nat-semiring semantics — matches
    {!Paradb_eval.Cq_naive.count}, not the cardinality of the
    deduplicated output).  Where the Bool pipeline dedups at a
    dead-variable barrier, the counting pipeline memoizes the downstream
    count per live register prefix, so counting stays within the same
    complexity envelope as deduplicated enumeration. *)

type count_exec

(** [compile_count plan db] compiles counting pipelines per term of
    {!Paradb_planner.Planner.count_terms}[ plan] (the plan itself, or
    the [!=]-free quotients whose signed counts sum to its count): one
    per connected component of the term, head-free ones included. *)
val compile_count :
  ?budget:Paradb_telemetry.Budget.t ->
  Paradb_planner.Planner.t -> Paradb_relational.Database.t -> count_exec

(** [run_count cexec] runs every term's pipelines and returns the
    signed sum of the terms' counts, each the product of its
    components' counts.  Each count, product and sum is
    overflow-checked: an intermediate past the int range raises
    {!Paradb_relational.Semiring.Count_overflow} even when the final
    count would fit.  Safe to call concurrently from several domains:
    all per-run state is local. *)
val run_count : ?budget:Paradb_telemetry.Budget.t -> count_exec -> int

(** [count db q] = plan, compile, run — one-shot counting. *)
val count :
  ?budget:Paradb_telemetry.Budget.t ->
  Paradb_relational.Database.t -> Paradb_query.Cq.t -> int
