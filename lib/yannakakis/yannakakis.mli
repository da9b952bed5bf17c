(** Yannakakis' algorithm for acyclic conjunctive queries (VLDB 1981) —
    the "major exception" of Section 5 that Theorem 2 extends: evaluation
    in time polynomial in the database and the output.

    The pipeline is the one described in the paper: per-atom relations
    [S_j = π_{U_j} σ_{F_j} (R_{i_j})], a join tree from GYO, a semijoin
    full reducer, then an output-sensitive bottom-up join-and-project
    pass. *)

exception Cyclic_query

(** [atom_relation db atom] computes [S_j] for one relational atom:
    schema = the atom's distinct variables; selections enforce the
    atom's constants and repeated variables.  [filter] (used by the
    Theorem-2 engine for intra-atom [≠] atoms) additionally restricts the
    admitted variable instantiations.  [budget], here and below, is
    polled once per atom / per tree node
    ({!Paradb_telemetry.Budget.Exhausted} propagates). *)
val atom_relation :
  ?budget:Paradb_telemetry.Budget.t ->
  ?filter:(Paradb_query.Binding.t -> bool) ->
  Paradb_relational.Database.t -> Paradb_query.Atom.t ->
  Paradb_relational.Relation.t

(** [answer q rows] is [q]'s answer relation holding [rows]: named
    after [q], over the positional head schema [a0, a1, ...]. *)
val answer :
  Paradb_query.Cq.t -> Paradb_relational.Tuple.Set.t ->
  Paradb_relational.Relation.t

(** [head_rows head proj] instantiates the head terms from every row of
    [proj], a relation over (at least) the head's variables.  An empty
    body's answer is [head_rows head] of the 0-ary relation holding the
    empty row. *)
val head_rows :
  Paradb_query.Term.t list -> Paradb_relational.Relation.t ->
  Paradb_relational.Tuple.Set.t

(** [fold_up tree ~keep ~project ~join rels] — the bottom-up pass over a
    join tree, children before parents: for each child [j] with parent
    [u], [rels.(u) <- join j u rels.(u) (project (keep j u) rels.(j))].
    Returns the updated copy of [rels] (indexed by tree node); the
    answer is at [tree.root].  An exception from [join] stops the pass.
    The semijoin pass, {!evaluate}'s join-and-project, {!aggregate}'s
    ⊕-project/⊗-join and the Theorem-2 engine's Algorithms 1 and 2 are
    its instances. *)
val fold_up :
  ?budget:Paradb_telemetry.Budget.t ->
  Paradb_hypergraph.Join_tree.t ->
  keep:(int -> int -> Paradb_hypergraph.Hypergraph.String_set.t) ->
  project:(Paradb_hypergraph.Hypergraph.String_set.t -> 'r -> 'r) ->
  join:(int -> int -> 'r -> 'r -> 'r) -> 'r array -> 'r array

(** [project_onto keep r] projects [r] onto its attributes in [keep],
    in [r]'s column order: the [project] of the {!fold_up} instances over
    plain relations. *)
val project_onto :
  Paradb_hypergraph.Hypergraph.String_set.t ->
  Paradb_relational.Relation.t -> Paradb_relational.Relation.t

(** The bottom-up semijoin pass, children before parents: each parent is
    reduced by its child ([parent ⋉ child]), so every node ends reduced
    by its whole subtree.  Relations are indexed by tree node. *)
val semijoin_bottom_up :
  ?budget:Paradb_telemetry.Budget.t ->
  Paradb_hypergraph.Join_tree.t ->
  Paradb_relational.Relation.t array ->
  Paradb_relational.Relation.t array

(** The top-down semijoin pass: each child is reduced by its parent
    ([child ⋉ parent]).  The compiled pipeline runs it first, then
    {!semijoin_bottom_up}, on its plan's rooting. *)
val semijoin_top_down :
  ?budget:Paradb_telemetry.Budget.t ->
  Paradb_hypergraph.Join_tree.t ->
  Paradb_relational.Relation.t array ->
  Paradb_relational.Relation.t array

(** Bottom-up then top-down semijoin passes over the join tree; the result
    is globally consistent (every tuple participates in the full join).
    Relations are indexed by tree node. *)
val full_reducer :
  ?budget:Paradb_telemetry.Budget.t ->
  Paradb_hypergraph.Join_tree.t ->
  Paradb_relational.Relation.t array ->
  Paradb_relational.Relation.t array

(** [evaluate db q] for an acyclic [q] without constraint atoms.
    Raises [Cyclic_query] if the query hypergraph is cyclic, and
    [Invalid_argument] if [q] has constraints (use the Theorem-2 engine
    for those). *)
val evaluate :
  ?budget:Paradb_telemetry.Budget.t ->
  Paradb_relational.Database.t -> Paradb_query.Cq.t ->
  Paradb_relational.Relation.t

(** [aggregate sr db q] — semiring aggregation over the full join by
    message passing on the join tree: every atom-relation row is
    annotated (with [sr.one], or with [weight atom_index atom_rel row]
    when given), children are ⊕-projected onto their connector and
    ⊗-joined into their parent, and the result is the ⊕-total at the
    root.  Runs in time polynomial in the (semijoin-reduced) atom
    relations.  Same guards as {!evaluate}: raises [Cyclic_query] /
    [Invalid_argument] on constraints; an empty body yields [sr.one]. *)
val aggregate :
  ?budget:Paradb_telemetry.Budget.t ->
  'a Paradb_relational.Semiring.t ->
  ?weight:
    (int -> Paradb_relational.Relation.t ->
     Paradb_relational.Code_row.t -> 'a) ->
  Paradb_relational.Database.t -> Paradb_query.Cq.t -> 'a

(** [count db q] = [aggregate Semiring.nat db q]: the number of
    satisfying valuations of the body variables, matching
    {!Paradb_eval.Cq_naive.count} — in polynomial time for acyclic
    queries, where the naive reference pays the full valuation tree. *)
val count :
  ?budget:Paradb_telemetry.Budget.t ->
  Paradb_relational.Database.t -> Paradb_query.Cq.t -> int

val is_satisfiable :
  ?budget:Paradb_telemetry.Budget.t ->
  Paradb_relational.Database.t -> Paradb_query.Cq.t -> bool

val decide :
  ?budget:Paradb_telemetry.Budget.t ->
  Paradb_relational.Database.t -> Paradb_query.Cq.t ->
  Paradb_relational.Tuple.t -> bool
