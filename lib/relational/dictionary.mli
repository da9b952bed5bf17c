(** Value interning (dictionary encoding).

    A dictionary assigns every distinct {!Value.t} a dense integer code in
    [0 .. size - 1].  Relations store their rows as arrays of codes, so the
    hot relational operators (join, semijoin, projection) work on immediate
    integers: equality is [(=)] on ints, hashing never touches a boxed
    value, and a code row fits in one flat [int array].

    Codes are only comparable within one dictionary.  {!global} is the
    process's one dictionary: every relation, segment decode and compiled
    plan is over it.  {!create} makes a standalone one, for exercising a
    dictionary itself (its order index at a chosen size); no relation can
    be built over it.

    Concurrency contract: {!intern} is serialized by an internal mutex and
    is safe against concurrent {!intern} calls.  {!value} is safe against
    concurrent interning (codes are never reassigned and the backing array
    is replaced wholesale on growth).  {!code_opt} is safe against
    concurrent interning too: its lock-free hash-table read can miss a
    present value while an [intern] resizes the table, so a miss is
    confirmed under the mutex (a hit is exact and never locks).

    {2 Order index}

    Codes are assigned in first-seen order, not value order.  {!order}
    gives the value order on codes: every covered code's dense rank in
    {!Value.compare} order and its {!Value.to_string} text, so [<]
    filters compare two ints and the answer encoder sorts and renders
    without decoding.  The index is built lazily, the first time a
    caller needs a code it does not cover, and then extended by merging
    the codes interned since (O(D + k log D) for k new codes among D),
    never re-sorted from scratch.  One extension runs at a time; each
    result is a fresh immutable index published atomically, so readers
    never lock and an index in hand stays valid (for the codes it
    covers) however the dictionary grows. *)
type t

val create : ?size_hint:int -> unit -> t

(** The process-wide dictionary every relation is over. *)
val global : t

(** Number of codes assigned so far. *)
val size : t -> int

(** [intern d v] returns the code of [v], assigning the next free code on
    first sight. *)
val intern : t -> Value.t -> int

(** [code_opt d v] is the code of [v] if it has been interned, without
    interning it. *)
val code_opt : t -> Value.t -> int option

(** [value d c] decodes a code.  Raises [Invalid_argument] on a code never
    returned by [intern d]. *)
val value : t -> int -> Value.t

(** A published order index: the codes [0 .. covered - 1] in value
    order.  Read-only; the arrays are shared with every other reader. *)
type order = private {
  covered : int;  (** codes [0 .. covered - 1] are indexed *)
  sorted : int array;  (** the covered codes in {!Value.compare} order *)
  rank : int array;  (** code -> its position in [sorted] *)
  text : string array;  (** code -> {!Value.to_string} of its value *)
}

(** [order d ~covering] is an index covering at least the codes
    [0 .. covering - 1] — the current one if it does, else one extended
    to every code interned so far.  Counted on
    [dictionary.order.builds] (the first, from nothing) and
    [dictionary.order.extends].  Raises [Invalid_argument] if [covering]
    exceeds {!size}. *)
val order : t -> covering:int -> order

(** [bounds d o v] is [(lo, hi)]: [lo] covered values are below [v] and
    [hi] are at or below it ([hi = lo + 1] iff [v] is covered).  So a
    covered code [c] has [v < c] iff [rank.(c) >= hi], and [c <= v] iff
    [rank.(c) < hi] — a constant need not be interned to be compared. *)
val bounds : t -> order -> Value.t -> int * int
