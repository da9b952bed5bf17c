(** Structure-aware physical planning for conjunctive queries.

    The paper's dichotomy is structural: acyclic queries (and their
    bounded-width relatives) are tractable, everything else is not.  The
    planner makes that structure explicit {e before} any engine runs: it
    classifies the query — acyclic via the GYO {!Paradb_hypergraph.Join_tree},
    low-width cyclic via a greedy hypertree-decomposition heuristic, or
    genuinely cyclic — and produces a physical plan value (join order,
    semijoin program, per-atom selections, constraint placement,
    projection) that {!Paradb_eval} can lower to a compiled pipeline and
    the server can render through [EXPLAIN].

    Plans are database-independent: they mention atom indexes and
    variable names, never relation contents.  Classification counts are
    recorded under the [planner.class.*] telemetry counters. *)

module Cq = Paradb_query.Cq
module Constr = Paradb_query.Constr
module Join_tree = Paradb_hypergraph.Join_tree

type classification =
  | Acyclic  (** GYO succeeds; width 1 by convention *)
  | Low_width of int
      (** cyclic, but the greedy decomposition found generalized
          hypertree width [<= low_width_threshold] *)
  | Cyclic of int  (** genuinely cyclic; payload is the width estimate *)

(** Width bound separating [Low_width] from [Cyclic]. *)
val low_width_threshold : int

(** Database-independent description of one atom scan: which argument
    positions are pinned to constants, which positions must carry equal
    values (repeated variables), and the distinct variables produced, in
    first-occurrence order. *)
type scan = {
  rel : string;  (** relation name of the atom *)
  selections : (int * Paradb_relational.Value.t) list;
      (** argument position [->] required constant *)
  equalities : (int * int) list;
      (** (first occurrence, later occurrence) of a repeated variable *)
  vars : string list;  (** distinct variables, first-occurrence order *)
}

(** One node of the push-based pipeline.  [atom] indexes the query body
    (and {!scans}).  [key] lists the atom's variables already bound by
    earlier steps — the hash-probe key; [bind] the variables this step
    binds for the first time. *)
type step =
  | Scan of { atom : int }  (** first step: full scan, binds all vars *)
  | Probe of { atom : int; key : string list; bind : string list }
  | Exists of { atom : int; key : string list }
      (** all variables already bound: a pure membership check *)

type t = {
  query : Cq.t;  (** alpha-normalized *)
  classification : classification;
  width : int;  (** 1 for acyclic (0 for an empty body); the estimate otherwise *)
  tree : Join_tree.t option;
      (** present iff acyclic with a nonempty body: the GYO tree rerooted
          at the atom with the most local work (constants, repeated
          variables, constraints over its own variables).  The join order,
          the compiled semijoin reducer and [EXPLAIN] all read this one
          rooting *)
  scans : scan array;  (** one per body atom, in body order *)
  steps : step list;
      (** join order: [tree]'s [top_down] preorder when acyclic (step 0
          scans the root), greedy bound-variable order otherwise *)
  filters : (int * Constr.t) list;
      (** constraint [c] runs immediately after step index [i] — the
          earliest step at which all its variables are bound *)
  ground : Constr.t list;  (** variable-free constraints *)
  barriers : string list option array;
      (** one slot per step: [Some live] marks a dead-variable barrier
          after that step, listing the still-live bound variables in
          lexicographic order.  Past a barrier, register states agreeing
          on the live variables have identical continuations — the
          compiler dedups them under set semantics and memoizes the
          downstream count under counting semantics *)
  cut : int;
      (** first-witness cut: the first step index after which every head
          variable is bound (0 for a head without variables and for an
          empty body).  The steps after it decide only whether the head
          row already bound has a witness, so the Bool pipeline runs them
          as an existence check and emits the row once; counting ignores
          the cut.  Sound beside the barriers because the head variables
          are live at every barrier *)
}

(** [plan q] classifies and orders [q] (alpha-normalizing it first) and
    bumps the matching [planner.class.*] counter. *)
val plan : Cq.t -> t

val classification_name : classification -> string

(** [first_var atom] — the variable in [atom]'s argument position 0,
    if any: the key a first-column hash partition places the atom's
    tuples by. *)
val first_var : Paradb_query.Atom.t -> string option

(** How a cluster should distribute this plan, given relations
    hash-partitioned on their first column.  [Copartitioned v]: every
    body atom carries variable [v] in argument position 0, so each
    satisfying assignment is witnessed entirely on the shard owning
    [v]'s value — the plan can run shard-locally (scatter) and the
    answers unioned.  [Exchange]: anything else, evaluated by gathering
    per-atom reducer relations and joining them at the coordinator. *)
type shard_choice = Copartitioned of string | Exchange

val shard_choice : t -> shard_choice

(** Human-readable plan rendering, one line per element — the payload of
    the server's [EXPLAIN] verb. *)
val explain : t -> string list
