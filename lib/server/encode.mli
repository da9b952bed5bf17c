(** The answer encoder: a relation's rows as sorted text lines, straight
    from the dictionary codes.

    Lines come out in {!Paradb_relational.Tuple.compare} order (value
    order, column by column), each rendered as [left], the cells joined
    by [", "], then [right].  No row is decoded to a tuple, no value is
    compared and no [Format] printer runs: ranks and text come from the
    dictionary's order index ({!Paradb_relational.Dictionary.order}),
    extended first only if the answer holds a code it does not cover.
    Answers with at least D/8 cells (D the index size) are radix-sorted
    on ranks; smaller ones sort row ids by rank tuples, so a small answer
    never pays O(D).  Each line is one string allocation.  This is the
    one sort behind EVAL, GATHER and DIGEST, on a shard and at the
    coordinator. *)

module Relation = Paradb_relational.Relation
module Value = Paradb_relational.Value

(** [lines ?limit ?quote ~left ~right r] — the first [limit] (default:
    all) lines of [r]'s sorted rendering.  A cell's text is its value's
    {!Value.to_string}, except that with [quote] a [Str s] cell renders
    as [quote s] (called per cell).  A negative [limit] renders
    nothing. *)
val lines :
  ?limit:int -> ?quote:(string -> string) -> left:string -> right:string ->
  Relation.t -> string list
