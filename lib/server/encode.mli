(** The answer encoder: a relation's rows as sorted text lines, straight
    from the dictionary codes.

    Lines come out in {!Paradb_relational.Tuple.compare} order (value
    order, column by column), each rendered as [left], the cells joined
    by [", "], then [right].  No row is decoded to a tuple and no
    [Format] printer runs: every distinct code is decoded, ranked and
    rendered once per answer, the rows are radix-sorted on the ranks,
    and each line is one string allocation.  This is the one sort behind
    EVAL, GATHER and DIGEST, on a shard and at the coordinator. *)

module Relation = Paradb_relational.Relation
module Value = Paradb_relational.Value

(** [lines ?limit ~left ~cell ~right r] — the first [limit] (default:
    all) lines of [r]'s sorted rendering, [cell] giving each value's
    text.  A negative [limit] renders nothing. *)
val lines :
  ?limit:int -> left:string -> cell:(Value.t -> string) -> right:string ->
  Relation.t -> string list
