(** Relations with named attributes and set semantics.

    A relation is a set of tuples over a schema (an ordered list of distinct
    attribute names).  All relational-algebra operators used in the paper
    are provided: selection, projection, renaming, natural join, semijoin,
    union, difference, intersection, product, and column extension (used by
    the Theorem-2 engine to add hashed shadow attributes).

    Internally rows are dictionary-encoded (see {!Dictionary}): each cell
    is a dense int code of {!Dictionary.global}, the one dictionary of the
    process, and the row store is a hash set of flat [int array]s, so
    membership, joins and semijoins never compare boxed values.  Key
    indexes (from key-position vectors to hash indexes) are built lazily
    per relation and memoized, so repeated joins/semijoins against the
    same relation reuse them.  The [Value.t]-level API below
    encodes/decodes at the boundary; the [_codes] API exposes the raw
    code rows for performance-critical callers. *)

type t

(** [create ~name ~schema rows] builds a relation.  Raises
    [Invalid_argument] if attribute names repeat or a row has the wrong
    arity.  Duplicate rows are merged (set semantics).  Values are
    interned in {!Dictionary.global}, so the codes of any two relations
    are comparable and binary operators never re-encode. *)
val create : ?name:string -> schema:string list -> Tuple.t list -> t

val of_set : ?name:string -> schema:string list -> Tuple.Set.t -> t

val name : t -> string
val with_name : string -> t -> t
val schema : t -> string array
val schema_list : t -> string list
val arity : t -> int
val cardinality : t -> int
val is_empty : t -> bool
val mem : Tuple.t -> t -> bool
val tuples : t -> Tuple.t list
val tuple_set : t -> Tuple.Set.t
val iter : (Tuple.t -> unit) -> t -> unit
val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val add : Tuple.t -> t -> t

(** [position r attr] is the column index of [attr].  Raises [Not_found]
    if absent. *)
val position : t -> string -> int

val positions : t -> string list -> int array
val has_attr : t -> string -> bool

(** [common_attrs r1 r2] lists attributes present in both, in [r1]'s
    schema order. *)
val common_attrs : t -> t -> string list

(** [project attrs r] keeps exactly [attrs] (which may reorder columns);
    duplicates rows are merged. *)
val project : string list -> t -> t

(** [rename pairs r] renames attributes according to the association list
    [(old, new)].  Unmentioned attributes are kept. *)
val rename : (string * string) list -> t -> t

(** [rename_positional new_schema r] replaces the whole schema. *)
val rename_positional : string list -> t -> t

val select : (Tuple.t -> bool) -> t -> t

(** [restrict r attr pred] selects rows whose [attr] value satisfies
    [pred]. *)
val restrict : t -> string -> (Value.t -> bool) -> t

(** [natural_join r s] hash-joins on the common attributes; result schema
    is [r]'s attributes followed by [s]'s non-common ones.  [keep], when
    given, filters output code rows before they are stored (a fused
    join-then-select). *)
val natural_join : ?keep:(Code_row.t -> bool) -> t -> t -> t

(** [sort_merge_join r s] — same result as {!natural_join}, computed by
    sorting both sides on the common attributes and merging (the
    [|P| log |P|] implementation the paper's accounting assumes). *)
val sort_merge_join : t -> t -> t

(** [semijoin r s] is [r ⋉ s]: the rows of [r] that join with some row of
    [s] on their common attributes.  With no common attributes this
    degenerates to the cartesian guard: [r] itself when [s] is nonempty
    (including 0-ary [s] holding the empty tuple), the empty relation over
    [r]'s schema when [s] is empty.

    The result holds exactly the rows of [r] that match, in [r]'s row
    order ({!rows}).  When no row of [r] is dropped it is [r] itself
    (physically), so [r]'s memoized key indexes serve later probes.
    Otherwise the kept rows form a sealed row store (no dedup hashing;
    the probe table is built on a first [mem]/[add]) and a fresh index
    memo.

    Two sides compute it.  When [s] has at most a quarter of [r]'s rows,
    each distinct join key of [s] walks [r]'s memoized index on the
    common columns (built and memoized on first use, and shared by
    views of a base), and the matched row ids are put back in [r]'s
    order: |s| + |result| work once the index exists, not |r|.
    Otherwise every row of [r] probes [s]'s index.  Either way [r] and
    [s] are only read densely and through their locked index memos, so
    both may be shared across domains.  The counters
    [relation.semijoin.probe] and [relation.semijoin.scan] record which
    side each semijoin with common attributes took. *)
val semijoin : t -> t -> t

val union : t -> t -> t
val diff : t -> t -> t
val inter : t -> t -> t

(** [product r s] requires disjoint schemas. *)
val product : t -> t -> t

(** [extend attr f r] appends a column [attr] computed from each row. *)
val extend : string -> (Tuple.t -> Value.t) -> t -> t

(** [set_equal r s] — same attribute set and same tuples (column order may
    differ). *)
val set_equal : t -> t -> bool

(** Active domain of the relation. *)
val domain : t -> Value.Set.t

(** {2 Code-level API}

    Raw access to the dictionary-encoded rows, for hot paths (the
    Theorem-2 engine's per-coloring loop).  Code rows handed to callbacks
    are the stored arrays: do not mutate them. *)

val fold_codes : (Code_row.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter_codes : (Code_row.t -> unit) -> t -> unit

(** [rows r] is the stored row array, shared, not copied: entry [i] for
    [0 <= i < cardinality r] is the row with id [i] — the ids
    {!iter_codes} visits in order and the probe cursor yields.  Entries
    past [cardinality r] are padding.  Do not mutate it. *)
val rows : t -> Code_row.t array

(** [select_codes pred r] keeps the rows whose code row satisfies [pred].
    Code equality coincides with value equality: every relation is over
    {!Dictionary.global}. *)
val select_codes : (Code_row.t -> bool) -> t -> t

(** [extend_codes attrs f r] appends the code cells computed by [f] under
    the new attributes [attrs].  The returned cells must be codes of
    {!Dictionary.global}. *)
val extend_codes : string list -> (Code_row.t -> int array) -> t -> t

(** [decode_value c] is the value behind code [c] in
    {!Dictionary.global}. *)
val decode_value : int -> Value.t

(** [of_codes ~schema rows] builds a relation directly from code rows.
    Every cell must already be a code of {!Dictionary.global}; no
    encoding or validation beyond arity is performed.  Duplicate rows are
    merged.  The rows are copied into a fresh store, so the sequence may
    reuse buffers.  [size_hint] presizes the store (bulk loaders pass the
    known row count to skip growth doublings). *)
val of_codes :
  ?name:string -> ?size_hint:int -> schema:string list -> Code_row.t Seq.t -> t

(** [of_unique_codes ~schema rows] — the trusted bulk constructor.
    Takes ownership of [rows], whose entries must be pairwise-distinct
    code rows over {!Dictionary.global}; no dedup hashing happens here,
    and the row store's probe table is built lazily on first
    [mem]/[add].  This is the segment store's cold-open path: a mmap'd
    segment decodes straight into the relation at memory speed, because
    the writer already guaranteed set semantics. *)
val of_unique_codes :
  ?name:string -> schema:string list -> Code_row.t array -> t

(** {2 Probe API}

    Direct access to the memoized per-relation key indexes, for compiled
    pipelines that probe the same relation many times.  A [hash_index] is
    built (or fetched from the memo table) once per key-position vector
    and is valid for the relation's lifetime — relations are immutable. *)

type hash_index

(** [hash_index r positions] is the hash index of [r] keyed on the column
    [positions].  The positions array is captured; do not mutate it. *)
val hash_index : t -> int array -> hash_index

(** [probe_first r idx probe key] is the id ({!rows}) of the first row of
    [r] whose cells at the index's key columns equal, positionally,
    [probe]'s cells at [key], or [-1] if none does; [probe_next r idx
    probe key i] is the next matching id after [i].  A cursor walk
    allocates nothing — the compiled pipelines' probe loop. *)
val probe_first : t -> hash_index -> Code_row.t -> int array -> int

val probe_next : t -> hash_index -> Code_row.t -> int array -> int -> int

(** [probe_iter r idx probe key f] calls [f row] for every row of [r]
    whose cells at the index's key columns equal, positionally, [probe]'s
    cells at [key].  [probe] can be any code row — e.g. a register
    file — and is read, never retained.  Same rows, same order as the
    cursor. *)
val probe_iter : t -> hash_index -> Code_row.t -> int array -> (Code_row.t -> unit) -> unit

(** [probe_mem r idx probe key] — does any row of [r] match? *)
val probe_mem : t -> hash_index -> Code_row.t -> int array -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
