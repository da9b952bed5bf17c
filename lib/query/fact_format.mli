(** Serialization of databases as fact files — the inverse of
    {!Parser.parse_facts}.

    Values are written so that the parser reads them back identically:
    integers bare, strings bare when they lex as lowercase identifiers
    and quoted otherwise. *)

(** {!Term.value_to_syntax}: facts and printed queries share one
    constant syntax. *)
val value_to_syntax : Paradb_relational.Value.t -> string

(** One fact per line: [name(v1, v2).]. *)
val to_string : Paradb_relational.Database.t -> string

val print : out_channel -> Paradb_relational.Database.t -> unit

(** [roundtrip db = Parser.parse_facts (to_string db)] — exposed because
    the parser names attributes positionally, so schemas come back as
    [a0, a1, ...]; relation contents are preserved exactly. *)
val roundtrip : Paradb_relational.Database.t -> Paradb_relational.Database.t
