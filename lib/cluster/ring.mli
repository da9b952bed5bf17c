(** Consistent hashing over [N] shards with virtual nodes.

    Each shard contributes {!default_vnodes} points to the ring (hashes of
    ["vnode:<shard>:<i>"]); a value is owned by the shard of the first
    point clockwise from the value's hash.  Virtual nodes smooth the
    load split and keep reassignment local when the shard count
    changes.  The hash is FNV-1a over the value's tagged bytes —
    deliberately process-independent, so every coordinator and every
    test computes the same partitioning for the same data. *)

type t

(** Ring points per shard.  A constant, not a setting: placement is a
    function of the shard count alone, so a restarted coordinator
    routes every value to the shard that already holds it. *)
val default_vnodes : int

(** Raises [Invalid_argument] unless [shards >= 1]. *)
val create : shards:int -> t

val shards : t -> int

(** Stable nonnegative hash of a domain value ([Int] and [Str] never
    alias). *)
val hash_value : Paradb_relational.Value.t -> int

(** [owner t h] — the shard owning ring position [h]. *)
val owner : t -> int -> int

(** [owner_of_value t v] = [owner t (hash_value v)]. *)
val owner_of_value : t -> Paradb_relational.Value.t -> int

(** [replica_shard t ~shard ~rank] — where replica [rank] (1, 2, ...)
    of [shard]'s slice lives: the [rank]-th successor shard.  Rank 0 is
    the shard itself. *)
val replica_shard : t -> shard:int -> rank:int -> int
