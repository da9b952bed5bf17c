(** Seeded random (query, database) instances for the differential
    oracle, layered on {!Paradb_workload.Generators}.

    Case classes follow the case index deterministically (every tenth
    case is [order-mixed], the case five before it alternates between
    [join-tree] and [join-tree-neq], the others cycle through the rest)
    so every run of [n] cases covers the same mix: acyclic CQs (bare,
    with [<>], with comparisons, mixed), far-apart-[<>] chain queries
    (I1-rich, the Theorem-2 core), cyclic CQs, closed positive FO
    sentences, Boolean [<>] queries, anchored CQs (constants in argument
    0, ground atoms, absent constants, constants beside repeated
    variables), [order-mixed] CQs ([<], [<=] over a mixed Int/Str domain
    interned in shuffled order, so code order is not value order;
    constants present, absent from the data, and absent from the
    dictionary), and join-tree CQs (acyclic with multi-variable join
    keys, constraint-free for [join-tree] and [!=]-only for
    [join-tree-neq], so the interpreted Yannakakis and fpt engines take
    every one). *)

type shape = Query of Paradb_query.Cq.t | Sentence of Paradb_query.Fo.t

type instance = {
  seed : int;
  index : int;
  label : string;  (** case class, one of {!classes} *)
  db : Paradb_relational.Database.t;
  shape : shape;
}

val classes : string list

(** [instance ~seed ~index ~max_vars ~max_tuples] — deterministic in
    [(seed, index)]; every case draws from an independent RNG, so case
    [i] is reproducible without generating cases [0..i-1]. *)
val instance :
  seed:int -> index:int -> max_vars:int -> max_tuples:int -> instance

val pp_shape : Format.formatter -> shape -> unit
val shape_to_string : shape -> string

(** Relational atoms of the query ([0] for sentences) — the shrink
    target's size unit. *)
val atoms : shape -> int

(** Total tuples across the database. *)
val tuple_count : instance -> int
