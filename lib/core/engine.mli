(** The Theorem-2 engine: fixed-parameter tractable evaluation of acyclic
    conjunctive queries with [≠] inequalities.

    Pipeline, following Section 5 of the paper:
    + partition the [≠] atoms into [I1] (variables never co-occurring in a
      relational atom) and [I2] (pushed into the per-atom selections);
    + for each hash function [h : D → [1..k]] from a family
      (see {!Hashing}), extend the per-atom relations with shadow
      attributes [x' = h(x)] for the [I1] variables;
    + run Algorithm 1 — a bottom-up pass over a join tree computing
      [P_u := σ_F (P_u ⋈ π_{Y_j ∩ Y_u} P_j)], where the [Y_j] attribute
      sets (Lemma 1) carry each shadow attribute exactly from its variable's
      subtree up to the meeting point with its inequality partners, and
      the selection [F] checks [x' ≠ y'] at that meeting point;
    + (evaluation) run Algorithm 2 — a top-down semijoin pass followed by
      a bottom-up join-and-project pass, output-sensitive;
    + take the union of [Q_h(d)] over the family.

    The same machinery implements the Section-5 extension where an
    arbitrary monotone Boolean formula [φ] of [≠] atoms accompanies the
    conjunction: [φ]'s variables keep their shadow attributes all the way
    to the root, where [φ] is evaluated on colors (sound because
    [h x ≠ h y] implies [x ≠ y] and [φ] is monotone; complete whenever
    [h] separates the relevant values, which the family guarantees). *)

exception Cyclic_query

type stats = {
  mutable trials : int;      (** hash functions actually run *)
  mutable successes : int;   (** trials with [Q_h(d) ≠ ∅] *)
  mutable peak_rows : int;
      (** largest intermediate relation built across all colorings — the
          observable counterpart of the paper's [q·k^k·n] bound *)
}

val new_stats : unit -> stats

(** [is_satisfiable db q] — is [Q(d)] nonempty?  [q]'s constraints must
    all be [≠] and its hypergraph acyclic ([Cyclic_query] otherwise).
    [family] defaults to the deterministic {!Hashing.Multiplicative_sweep}
    (exact); pass a [Random_trials] family for the paper's randomized
    one-sided-error driver.

    Colorings run one at a time, and the first successful one ends
    the sweep.  [budget] (here and on every driver below) is polled
    before each coloring and inside the task build's semijoin passes;
    expiry raises {!Paradb_telemetry.Budget.Exhausted}. *)
val is_satisfiable :
  ?budget:Paradb_telemetry.Budget.t ->
  ?prereduce:bool -> ?family:Hashing.family -> ?stats:stats ->
  Paradb_relational.Database.t -> Paradb_query.Cq.t -> bool

(** Full evaluation [Q(d)] (union of [Q_h(d)] over the family).  A
    Boolean head (no head variables) stops at the first successful
    coloring, since every witness yields the same single row.
    [prereduce] (default true) runs one h-independent semijoin reducer
    pass over the base relations before any coloring — dangling tuples
    never contribute to any [Q_h], so this is sound and pays for itself
    whenever the family runs more than a few colorings. *)
val evaluate :
  ?budget:Paradb_telemetry.Budget.t ->
  ?prereduce:bool -> ?family:Hashing.family -> ?stats:stats ->
  Paradb_relational.Database.t -> Paradb_query.Cq.t ->
  Paradb_relational.Relation.t

(** [t ∈ Q(d)]? *)
val decide :
  ?budget:Paradb_telemetry.Budget.t ->
  ?family:Hashing.family -> ?stats:stats ->
  Paradb_relational.Database.t -> Paradb_query.Cq.t ->
  Paradb_relational.Tuple.t -> bool

(** {1 The Boolean-formula extension}

    The query's own [≠] constraints are handled as above; the extra
    formula [φ] (monotone in [≠] atoms, over the query's variables) is
    enforced at the root.  The hash range grows to
    [|V1 ∪ vars φ| + |consts φ|], exactly as in the paper. *)

val is_satisfiable_formula :
  ?budget:Paradb_telemetry.Budget.t ->
  ?family:Hashing.family -> ?stats:stats ->
  Paradb_relational.Database.t -> Paradb_query.Cq.t ->
  Paradb_query.Ineq_formula.t -> bool

val evaluate_formula :
  ?budget:Paradb_telemetry.Budget.t ->
  ?family:Hashing.family -> ?stats:stats ->
  Paradb_relational.Database.t -> Paradb_query.Cq.t ->
  Paradb_query.Ineq_formula.t -> Paradb_relational.Relation.t

(** Split a formula's top-level conjunction into [x ≠ c] atoms (which the
    parameter-[v] variant pushes into the relation selections, keeping the
    hash range bounded by [v]) and the residual formula. *)
val split_constant_conjuncts :
  Paradb_query.Ineq_formula.t ->
  Paradb_query.Constr.t list * Paradb_query.Ineq_formula.t

(** The paper's parameter-[v] variant of the extension: top-level
    conjunctive [x ≠ c] atoms are pushed into the per-atom selections
    (joining the query's own [I2]) before the residual formula is
    root-checked, so the hash range stays bounded by the variable count
    whenever the residual formula is constant-free. *)
val evaluate_formula_v :
  ?budget:Paradb_telemetry.Budget.t ->
  ?family:Hashing.family -> ?stats:stats ->
  Paradb_relational.Database.t -> Paradb_query.Cq.t ->
  Paradb_query.Ineq_formula.t -> Paradb_relational.Relation.t

val is_satisfiable_formula_v :
  ?budget:Paradb_telemetry.Budget.t ->
  ?family:Hashing.family -> ?stats:stats ->
  Paradb_relational.Database.t -> Paradb_query.Cq.t ->
  Paradb_query.Ineq_formula.t -> bool

(** {1 Single-coloring runs (exposed for tests and benchmarks)} *)

(** [satisfiable_with db q h] — is [Q_h(d)] nonempty for this specific
    coloring? *)
val satisfiable_with :
  Paradb_relational.Database.t -> Paradb_query.Cq.t -> Hashing.fn -> bool

(** [evaluate_with db q h] — [Q_h(d)]. *)
val evaluate_with :
  Paradb_relational.Database.t -> Paradb_query.Cq.t -> Hashing.fn ->
  Paradb_relational.Relation.t
