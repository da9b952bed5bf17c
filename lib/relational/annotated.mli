(** Semiring-annotated relations (K-relations).

    An annotated relation maps each (dictionary-encoded) row to an
    annotation in a {!Semiring}.  Projection ⊕-sums the annotations of
    rows that merge; natural join ⊗-multiplies the annotations of joined
    rows.  Under
    {!Semiring.nat} with all base annotations 1, the total annotation of
    a query's answer is its number of satisfying valuations; under
    {!Semiring.tropical} it is the minimum cost over witnesses.

    The Bool engine never uses this module: [Relation.t]'s set semantics
    {e is} the Bool semiring, so the trusted fast path stays on the plain
    kernel and annotated evaluation is an opt-in layer (see DESIGN.md
    §17). *)

type 'a t

val schema : 'a t -> string list
val cardinality : 'a t -> int
val find : 'a t -> Code_row.t -> 'a option

(** [of_relation sr rel] annotates every row of [rel] — with [sr.one], or
    with [weight row] when given (rows are [rel]'s stored code rows; use
    [Relation.decode_value] to look at values). *)
val of_relation :
  'a Semiring.t -> ?weight:(Code_row.t -> 'a) -> Relation.t -> 'a t

(** [of_rows sr ~schema pairs] builds directly from [(code_row,
    annotation)] pairs; duplicate rows ⊕-merge.  Raises
    [Invalid_argument] on arity mismatch or repeated attributes. *)
val of_rows :
  'a Semiring.t -> schema:string list ->
  (Code_row.t * 'a) list -> 'a t

(** [project sr attrs t] keeps exactly [attrs] (which may reorder
    columns); rows that collide ⊕-sum their annotations.  Raises
    [Not_found] if an attribute is absent. *)
val project : 'a Semiring.t -> string list -> 'a t -> 'a t

(** [natural_join sr a b] hash-joins on the common attributes; the output
    schema is [a]'s attributes followed by [b]'s non-common ones, and
    each output row carries [a_ann ⊗ b_ann] (⊕-summed should outputs
    collide). *)
val natural_join : 'a Semiring.t -> 'a t -> 'a t -> 'a t

(** [total sr t] ⊕-sums every annotation; [sr.zero] when empty. *)
val total : 'a Semiring.t -> 'a t -> 'a
