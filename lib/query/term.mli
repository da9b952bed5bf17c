(** Terms: variables or domain constants. *)

type t =
  | Var of string
  | Const of Paradb_relational.Value.t

val var : string -> t
val const : Paradb_relational.Value.t -> t
val int : int -> t
val str : string -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val vars : t list -> string list

(** [apply binding t] replaces a variable by its bound value, if any. *)
val apply : (string -> Paradb_relational.Value.t option) -> t -> t

(** [value_to_syntax v] — [v] as the parser reads it back: integers
    bare, strings bare when they lex as lowercase identifiers and quoted
    otherwise (a digit-only string must not re-read as an integer). *)
val value_to_syntax : Paradb_relational.Value.t -> string

(** Constants print via {!value_to_syntax}. *)
val pp : Format.formatter -> t -> unit
val to_string : t -> string
