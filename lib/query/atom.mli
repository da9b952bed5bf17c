(** Relational atoms [R(t1, ..., tr)]. *)

type t = { rel : string; args : Term.t list }

val make : string -> Term.t list -> t
val arity : t -> int

(** Distinct variables in argument order. *)
val vars : t -> string list

val constants : t -> Paradb_relational.Value.t list
val compare : t -> t -> int
val equal : t -> t -> bool

(** [substitute bind a] replaces bound variables by constants. *)
val substitute : Binding.t -> t -> t

(** [matches a tuple] — the instantiation of [a]'s variables that maps the
    atom onto [tuple], if the constants and repeated variables are
    consistent ("consistent" in the sense of Theorem 1's 2CNF
    construction); [None] otherwise. *)
val matches : t -> Paradb_relational.Tuple.t -> Binding.t option

val pp : Format.formatter -> t -> unit
val to_string : t -> string
