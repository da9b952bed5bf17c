(** Comparison-constraint preprocessing (Section 5, "Comparison
    Constraints").

    Before asking whether a query with [<] / [≤] atoms is acyclic, one
    must check the constraint system for consistency and collapse the
    implied equalities (Klug's method, as the paper prescribes): build the
    digraph on the variables and constants of the comparisons, with an arc
    per constraint (and the fixed order among the constants); the system
    is consistent (over a dense order) iff no strong component contains a
    strict arc; all members of a strong component are equal and get
    collapsed.

    Theorem 3 shows the collapsed acyclic class is W[1]-complete, so
    there is no FPT engine to dispatch to: {!evaluate} falls back to the
    naive evaluator when genuine comparisons remain. *)

type outcome =
  | Inconsistent
      (** the constraints (or a [≠] atom between identified terms) are
          unsatisfiable: [Q(d) = ∅] for every [d] *)
  | Collapsed of Paradb_query.Cq.t
      (** equalities collapsed; the remaining comparison graph is acyclic *)

val preprocess : Paradb_query.Cq.t -> outcome

(** Is the query acyclic *in the paper's sense* for comparison queries:
    after collapsing, is the hypergraph of the relational atoms acyclic? *)
val is_acyclic_with_comparisons : Paradb_query.Cq.t -> bool

(** Best-effort evaluation: preprocess; use the Theorem-2 engine when
    only [≠] constraints remain on an acyclic body; otherwise fall back
    to naive evaluation (inherently [n^{O(q)}]: Theorem 3). *)
val evaluate :
  ?budget:Paradb_telemetry.Budget.t ->
  Paradb_relational.Database.t -> Paradb_query.Cq.t ->
  Paradb_relational.Relation.t

val is_satisfiable :
  ?budget:Paradb_telemetry.Budget.t ->
  Paradb_relational.Database.t -> Paradb_query.Cq.t -> bool
