(** Conjunctive queries, optionally extended with constraint atoms.

    A query is written [name(head) :- R1(t1), ..., Rs(ts), c1, ..., cm]
    where the [ci] are [≠] / [<] / [≤] atoms.  Plain conjunctive queries
    have no constraints; Theorem 2 allows [Neq] constraints; Theorem 3
    studies comparisons.  Safety: every head variable and every constraint
    variable must occur in some relational atom. *)

type t = private {
  name : string;
  head : Term.t list;
  body : Atom.t list;
  constraints : Constr.t list;
}

(** Raises [Invalid_argument] on unsafe queries. *)
val make :
  ?name:string -> ?constraints:Constr.t list -> head:Term.t list ->
  Atom.t list -> t

(** Distinct variables, in first-occurrence order over the body then
    head. *)
val vars : t -> string list

(** The parameter [v]: number of distinct variables. *)
val num_vars : t -> int

(** The parameter [q]: query size as a symbol count (head and every atom
    contribute [1 + arity]; every constraint contributes 3). *)
val size : t -> int

val head_vars : t -> string list
val is_boolean : t -> bool
val has_constraints : t -> bool

(** All constraints are [≠]. *)
val neq_only : t -> bool

val relational_atoms : t -> Atom.t list
val neq_constraints : t -> Constr.t list
val comparison_constraints : t -> Constr.t list

(** [close_with_tuple q t] implements the paper's "substitute the constants
    of the tuple [t] in the query": head variables become the corresponding
    constants of [t] throughout the query; the result is a Boolean query.
    [None] when a head constant or a repeated head variable disagrees with
    [t]. *)
val close_with_tuple : t -> Paradb_relational.Tuple.t -> t option

val substitute : Binding.t -> t -> t

(** [rename f q] applies a variable renaming (must be injective on
    [vars q] to preserve meaning; not checked). *)
val rename : (string -> string) -> t -> t

(** [alpha_normalize q] renames the variables to the canonical
    [V0, V1, ...] in first-occurrence order over the body then head
    (the order of {!vars}).  Two queries that differ only by an injective
    variable renaming have equal normal forms; the canonical names
    re-parse as variables, so
    [parse_cq (to_string (alpha_normalize q)) = alpha_normalize q]. *)
val alpha_normalize : t -> t

(** [cache_key q = to_string (alpha_normalize q)] — the renaming-invariant
    key the server's plan cache uses. *)
val cache_key : t -> string

(** [head_tuple binding q] instantiates the head under a satisfying
    binding. *)
val head_tuple : Binding.t -> t -> Paradb_relational.Tuple.t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Source syntax without the final period: constants print as
    {!Term.value_to_syntax} writes them, so [parse_cq (to_string q)]
    equals [q] for any query with parser-legal names — the form the
    cluster ships reducers in. *)
val to_string : t -> string
