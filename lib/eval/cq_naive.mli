(** Naive conjunctive-query evaluation by backtracking over atoms — the
    [n^{O(q)}] baseline whose exponent Theorem 1 says is inherent.

    Constraint atoms ([≠], [<], [≤]) are checked as soon as both sides are
    bound, so this evaluator also serves as the reference semantics for
    the Theorem-2 and Theorem-3 query classes. *)

(** Number of atom-tuple probes made since creation — the work measure
    used by the scaling benchmarks.  Every search also adds its probes
    to the [naive.probes] telemetry counter, once, when it ends. *)
type stats = { mutable probes : int }

val new_stats : unit -> stats

(** All satisfying instantiations of the query's variables.
    [order_atoms] (default [true]) greedily picks the next atom with the
    most bound variables; set it to [false] for the strict left-to-right
    baseline.  [budget], when given, is polled every 1024 probes — this
    evaluator is the [n^{O(q)}] worst case Theorem 1 promises, so it is
    the one most in need of a deadline
    ({!Paradb_telemetry.Budget.Exhausted} propagates to the caller). *)
val all_bindings :
  ?budget:Paradb_telemetry.Budget.t -> ?stats:stats -> ?order_atoms:bool ->
  Paradb_relational.Database.t -> Paradb_query.Cq.t ->
  Paradb_query.Binding.t list

(** The output relation [Q(d)], with positional attributes
    ["a0", "a1", ...]. *)
val evaluate :
  ?budget:Paradb_telemetry.Budget.t -> ?stats:stats -> ?order_atoms:bool ->
  Paradb_relational.Database.t -> Paradb_query.Cq.t ->
  Paradb_relational.Relation.t

(** Exact answer count: the number of satisfying valuations of the body
    variables (Nat-semiring semantics — NOT the cardinality of the
    deduplicated output unless the head retains every variable).  The
    enumeration visits each valuation exactly once, so this is the
    brute-force counting reference the differential oracle trusts. *)
val count :
  ?budget:Paradb_telemetry.Budget.t -> ?stats:stats -> ?order_atoms:bool ->
  Paradb_relational.Database.t -> Paradb_query.Cq.t -> int

(** Emptiness of the output (for Boolean queries: truth). *)
val is_satisfiable :
  ?budget:Paradb_telemetry.Budget.t -> ?stats:stats -> ?order_atoms:bool ->
  Paradb_relational.Database.t -> Paradb_query.Cq.t -> bool

(** The decision problem: [t ∈ Q(d)]?  Implemented as the paper
    prescribes, by substituting [t]'s constants into the query. *)
val decide :
  ?budget:Paradb_telemetry.Budget.t -> ?stats:stats -> ?order_atoms:bool ->
  Paradb_relational.Database.t -> Paradb_query.Cq.t ->
  Paradb_relational.Tuple.t -> bool
