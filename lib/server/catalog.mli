(** The catalog: named databases shared by every session, optionally
    backed by on-disk segment stores.

    {!Paradb_relational.Database.t} values are immutable, so the catalog
    is just a mutex-protected table from names to the current snapshot.
    Mutations ([LOAD], [FACT]) replace the binding; an evaluation that
    already fetched a snapshot keeps running on the database it saw —
    readers never block writers and answers are always computed against
    one consistent database value.

    Every snapshot carries a {e generation}: a catalog-wide counter
    bumped on each mutation.  A (name, generation) pair denotes one
    immutable snapshot, which is what the server's plan cache keys
    compiled pipelines on — a reload can never be served a pipeline
    compiled against superseded data.

    With a [data_dir], each entry also owns the segment directory
    [data_dir/<name>]: a mutation first persists the delta as immutable
    segment files (the first [LOAD] compacts a fresh store, later ones
    append delta segments), then swaps the in-memory snapshot under a
    fresh generation.  A failed persist leaves both the entry and the
    old generation untouched — memory never claims more than the disk
    holds. *)

module Database = Paradb_relational.Database

type t

(** [create ?data_dir ()] — with [data_dir], entries persist to segment
    stores under it (see {!attach} for opening existing ones). *)
val create : ?data_dir:string -> unit -> t

val data_dir : t -> string option

(** [set cat name db] binds (or replaces) a catalog entry under a fresh
    generation.  In-memory only — persistence goes through {!load} and
    {!add_fact}. *)
val set : t -> string -> Database.t -> unit

(** [find cat name] — the current snapshot and its generation. *)
val find : t -> string -> (Database.t * int) option

(** [snap cat ~generation] — the snapshot token
    [<incarnation>.<generation>] a shard's [SHIP] answer carries.  The
    incarnation is a random nonce drawn when the catalog is created
    (once per server process), so a restarted server never reissues a
    token, even after its generations catch up. *)
val snap : t -> generation:int -> string

(** [current_snap cat name] — the token of entry [name]'s current
    snapshot, [None] if there is no such entry. *)
val current_snap : t -> string -> string option

(** [load cat name db] — the [LOAD] verb.  Without a data dir this
    replaces the entry.  With one, [db] is persisted as delta segments
    (the incremental-load path) and unioned with the existing snapshot;
    the returned tag says which happened.  Storage failures return
    [Error "storage: ..."] and leave the entry unchanged. *)
val load :
  t -> string -> Database.t ->
  (Database.t * [ `Replaced | `Appended | `Created ], string) result

(** [add_fact cat name atom] parses one ground fact (e.g. ["edge(1, 2)."])
    and adds it to the named database, creating the entry if absent.
    Returns the new snapshot, or an error message for unparsable input.
    The parse-and-replace runs under the catalog lock, so concurrent
    [FACT]s to one entry never lose updates.  With a data dir the fact
    is persisted as a delta segment before the snapshot swaps. *)
val add_fact : t -> string -> string -> (Database.t, string) result

(** [bulk_set cat name text] — the [BULK] verb: parse [text] as a fact
    file fragment and {e replace} entry [name] with it under a fresh
    generation.  In-memory only, even with a data dir: a bulk batch is
    one shard's slice of a snapshot the cluster coordinator already
    holds durably, not an independent mutation.  Errors are parse
    errors. *)
val bulk_set : t -> string -> string -> (Database.t, string) result

(** [attach cat] scans the data dir and opens every segment store found
    as a catalog entry, returning [(name, tuples)] per database loaded.
    Raises {!Paradb_storage.Segment.Corrupt} if any store fails
    validation — callers treat that as a fatal startup error. *)
val attach : t -> (string * int) list

(** Entry names with their tuple counts, sorted by name. *)
val entries : t -> (string * int) list

(** [compact_candidates cat ~min_segments] — entries whose store holds
    at least [min_segments] live segment files and more segments than
    relations (so a freshly folded store is never a candidate and the
    sweeper converges), most-fragmented first.  What the background
    {!Compactor} polls. *)
val compact_candidates : t -> min_segments:int -> (string * int) list

(** [compact_entry cat name] folds the entry's store in place
    ({!Paradb_storage.Store.fold_in_place}) under the catalog's IO lock,
    serialized against LOAD/FACT persists but never blocking readers —
    the fold changes the disk layout, not the visible rows, so the
    in-memory snapshot and its generation stay untouched.  Returns
    (segments before, after, bytes written). *)
val compact_entry : t -> string -> (int * int * int, string) result

type entry_stats = {
  name : string;
  tuples : int;
  generation : int;  (** the snapshot generation the plan cache keys on *)
  segments : int option;
      (** live segment-file count of the entry's store — [None] without
          a data dir (or when the manifest cannot be read) *)
}

(** Per-entry operator stats, sorted by name — the payload behind the
    [db.<name>.generation] / [db.<name>.segments] STATS lines.  Each
    segment count observed is also published to the
    [store.<name>.segments] high-watermark gauge, so METRICS scrapes
    see delta accumulation between STATS calls. *)
val entries_stats : t -> entry_stats list
