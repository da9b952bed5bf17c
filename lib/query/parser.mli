(** A small concrete syntax for queries, rules, formulas and fact files.

    Prolog-style lexical conventions: identifiers starting with an
    uppercase letter or [_] are variables; lowercase identifiers, integers
    and quoted strings are constants; relation names are lowercase
    identifiers.

    {v
      ans(X, Y) :- e(X, Z), e(Z, Y), X != Y, Z < 5.
      exists x y. (e(x, y) & !(x = y))
      edge(1, 2).  edge(2, 3).
    v} *)

exception Parse_error of string

(** [parse_cq s] — a conjunctive query with optional [!=], [<], [<=]
    constraint atoms, with or without the trailing dot. *)
val parse_cq : string -> Cq.t

(** [parse_rule s] — a pure Datalog rule (no constraints). *)
val parse_rule : string -> Rule.t

(** [parse_program s ~goal] — a dot-separated list of rules. *)
val parse_program : string -> goal:string -> Program.t

(** [parse_fo s] — a first-order formula.  Operators by increasing
    binding strength: [exists]/[forall] (lowest, extend right), [->],
    [|], [&], [!].  Atoms: [r(t, ...)], [t = t], [t != t]. ([!=] is sugar
    for negated equality.) *)
val parse_fo : string -> Fo.t

(** [parse_facts s] — a list of ground facts [r(c, ...).]; builds a
    database (relation schemas get positional attribute names
    ["a0", "a1", ...]; each relation keeps its facts in file order, as
    the streaming loader does).  ['%' ...] comments run to end of
    line. *)
val parse_facts : string -> Paradb_relational.Database.t

(** [parse_ground_fact s] — exactly one ground fact [r(c, ...).]; the
    per-clause unit of the streaming fact loader ({!Source}).  Rejects
    rule bodies and variables with the same messages as
    {!parse_facts}. *)
val parse_ground_fact : string -> string * Paradb_relational.Tuple.t
