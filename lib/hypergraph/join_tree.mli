(** Rooted join trees for acyclic queries.

    Nodes are the hyperedges (= relational atoms, by body position) of the
    query hypergraph; for every variable, the nodes containing it form a
    connected subtree (the running-intersection property the paper's
    Lemma 1 leans on). *)

module String_set = Hypergraph.String_set

type t = {
  node_vars : String_set.t array;  (** [U_j]: variables of atom [j] *)
  parent : int array;              (** [-1] at the root *)
  children : int list array;
  root : int;
  bottom_up : int array;           (** every node; children before parents *)
  top_down : int array;            (** reverse of [bottom_up] *)
  subtree_vars : String_set.t array;  (** [at(T[j])]: variables in the subtree *)
}

(** [None] if the hypergraph is cyclic or has no edges. *)
val of_hypergraph : Hypergraph.t -> t option

(** Join tree of the relational atoms of a query. *)
val of_cq : Paradb_query.Cq.t -> t option

(** [reroot t r] — the same tree rooted at node [r]: each node's children
    are its neighbours other than the one towards [r], its old children
    first, then its old parent.  [t] itself when [r] is already the
    root. *)
val reroot : t -> int -> t

val n_nodes : t -> int

(** Check the running-intersection property (used by tests and by
    qcheck properties). *)
val is_valid : t -> bool

val pp : Format.formatter -> t -> unit

(** GraphViz rendering (nodes labelled by their variable sets). *)
val to_dot : t -> string
