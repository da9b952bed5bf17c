(** Constraint atoms between terms: the paper's inequality atoms [x ≠ y],
    [x ≠ c] (Theorem 2) and comparison atoms [x < y], [x ≤ y]
    (Theorem 3 / Klug). *)

type op =
  | Neq  (** [≠] — the tractable extension of Theorem 2 *)
  | Lt   (** [<] — strict comparison; W[1]-hard by Theorem 3 *)
  | Le   (** [≤] — weak comparison *)

type t = { op : op; lhs : Term.t; rhs : Term.t }

val make : op -> Term.t -> Term.t -> t
val neq : Term.t -> Term.t -> t
val lt : Term.t -> Term.t -> t
val le : Term.t -> Term.t -> t
val compare : t -> t -> int
val equal : t -> t -> bool

(** Distinct variables of the constraint (0, 1 or 2). *)
val vars : t -> string list

val constants : t -> Paradb_relational.Value.t list
val is_neq : t -> bool
val is_comparison : t -> bool

(** [holds binding c] evaluates the constraint; unbound variables raise
    [Invalid_argument].  Order on values is [Value.compare] (total). *)
val holds : Binding.t -> t -> bool

(** Ground evaluation on two values. *)
val eval_op : op -> Paradb_relational.Value.t -> Paradb_relational.Value.t -> bool

(** [ground_holds c] evaluates a constraint between two constants.
    Raises [Invalid_argument] if either side is a variable. *)
val ground_holds : t -> bool

val substitute : Binding.t -> t -> t
val pp : Format.formatter -> t -> unit
val to_string : t -> string
