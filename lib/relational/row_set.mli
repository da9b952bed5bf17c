(** Hash-backed sets of code rows: the relation row store.

    Replaces the former AVL-tree [Tuple.Set] store on the hot path: an
    open-addressing table of indexes into a dense row array, so
    [add]/[mem] are expected O(1) with no per-entry allocation and
    [cardinal] is O(1).  Sets are mutable during construction; relational
    operators treat a set as frozen once its relation is built (they
    always build a fresh set rather than mutating a published one). *)

type t

val create : int -> t

(** [of_unique_array rows size] takes ownership of [rows] (whose first
    [size] entries must be pairwise-distinct code rows) and wraps it as
    a set WITHOUT building the probe table: the table and cached hashes
    are materialized lazily on the first [add]/[mem]/[equal].  Dense
    iteration ([get]/[iter]/[fold]) never needs them, so a bulk loader
    whose consumers only scan pays nothing beyond the array itself.
    The uniqueness precondition is the caller's to uphold — the segment
    reader derives it from the writer's set semantics. *)
val of_unique_array : Code_row.t array -> int -> t

(** [get s i] is the [i]th row in insertion order, [0 <= i < cardinal s].
    Do not mutate the returned array. *)
val get : t -> int -> Code_row.t

(** [rows s] is the dense row store itself: entry [i] is [get s i] for
    [0 <= i < cardinal s].  Shared, not copied — do not mutate it, and do
    not hold it across an [add], which may replace it.  For hot loops
    that index rows by id without a call per row. *)
val rows : t -> Code_row.t array

(** [add s row] inserts [row], deduplicating. *)
val add : t -> Code_row.t -> unit

val mem : t -> Code_row.t -> bool

(** [add_sub s row pos] is the id ({!get}) of the key
    [Code_row.sub row pos], inserting the key first if it is absent: the
    key was new iff the id equals the cardinal before the call.  The key
    is hashed and compared in place, in one probe pass; only an inserted
    key is copied out of [row]. *)
val add_sub : t -> Code_row.t -> int array -> int

(** [find_sub s row pos] is the insertion-order id ({!get}) of the key
    [Code_row.sub row pos], or [-1] if it is absent.  Allocates nothing
    once the probe table exists. *)
val find_sub : t -> Code_row.t -> int array -> int

val cardinal : t -> int
val is_empty : t -> bool

(** [to_array s] — the rows in insertion order, in a fresh array that
    shares the (immutable) rows themselves. *)
val to_array : t -> Code_row.t array

val iter : (Code_row.t -> unit) -> t -> unit
val fold : (Code_row.t -> 'a -> 'a) -> t -> 'a -> 'a
val copy : t -> t

(** [equal a b] — same rows. *)
val equal : t -> t -> bool
