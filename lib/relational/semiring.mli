(** Commutative semirings for annotated relations (K-relations in the
    provenance-semiring sense).

    A semiring [(K, ⊕, ⊗, 0, 1)] annotates each row of a relation with an
    element of [K]; projection ⊕-sums the annotations of rows that merge,
    natural join ⊗-multiplies the annotations of joined rows.  Three
    instances cover the engine's scenarios:

    - {!bool} — ∨/∧: set semantics, exactly today's engine.  The plain
      [Relation] kernel *is* this semiring (dedup = ⊕, semijoin survival
      = ⊗), so the Bool path never goes through this module.
    - {!nat} — +/×: answer counting.  The total annotation of a query's
      (deduplicated) answer is its number of satisfying valuations.
    - {!tropical} — min/+ with [max_int] as +∞: min-cost witness. *)

type 'a t = {
  name : string;
  zero : 'a;  (** ⊕ identity; annotation of an absent row. *)
  one : 'a;  (** ⊗ identity; default annotation of a base-table row. *)
  plus : 'a -> 'a -> 'a;  (** ⊕: combine alternative derivations. *)
  times : 'a -> 'a -> 'a;  (** ⊗: combine joint derivations. *)
  equal : 'a -> 'a -> bool;
  to_string : 'a -> string;
}

val bool : bool t

(** A count left the native [int] range.  Counts grow like n^|vars|, so
    this is the normal outcome at scale; no path answers a wrapped
    number.  The server answers it as [ERR count-overflow]. *)
exception Count_overflow

(** [checked_add a b] / [checked_mul a b] — [a + b] / [a * b], raising
    {!Count_overflow} where the native result would wrap. *)
val checked_add : int -> int -> int
val checked_mul : int -> int -> int

(** +/× on native ints, overflow-checked ({!checked_add},
    {!checked_mul}). *)
val nat : int t

(** [tropical ()] is min-plus over [int] with [max_int] = +∞ and
    saturating ⊗.  A constructor rather than a value because it reads the
    [sum_instead_of_max] mutation hook once at construction time. *)
val tropical : unit -> int t
