(** A segment directory: one database as a set of immutable segment
    files plus a [MANIFEST] naming the live ones.

    The manifest is a text file — [paradb-segments 2] on the first line,
    one [segment <file> <relation> <rows>] line per live segment in load
    order, and an [end <count> <crc32hex>] trailer checksumming the
    entry lines, so any truncation (even one landing exactly on a line
    boundary) is detected rather than silently dropping relations.
    Version-1 manifests (no trailer) remain readable and upgrade to v2
    on their next swap.  Updates write [MANIFEST.tmp] and [Sys.rename]
    it over the old manifest, so a reader always sees a complete segment
    set: either the old one or the new one, never a half-written list.

    Durability follows the process-global {!Durability} mode: under
    [Full], segment bytes, the manifest tmp and the directory entry are
    fsynced in write order before a publish returns, so an acknowledged
    write survives power loss; [Async]/[Off] keep the same
    crash-atomicity with a wider power-loss window.

    Segment files themselves are never rewritten; incremental [LOAD]
    appends delta segments, and a relation's rows are the set union of
    its segments in manifest order.  Files a crash stranded — a stale
    [MANIFEST.tmp], segment files the live manifest does not reference —
    are quarantined into [orphans/] by {!recover}, which {!open_dir}
    runs automatically. *)

type entry = { file : string; relation : string; rows : int }

val manifest_file : string

(** Subdirectory quarantined crash debris is moved into by {!recover}. *)
val orphans_dir : string

(** [sanitize_name s] maps a relation or database name to a filesystem-
    safe token (anything outside [[A-Za-z0-9_-]] becomes ['_']). *)
val sanitize_name : string -> string

(** [is_store path] — does [path] look like a segment directory (a
    directory containing a manifest)? *)
val is_store : string -> bool

(** [entries dir] parses the manifest.  Raises {!Segment.Corrupt} on a
    malformed manifest and [Sys_error] if it cannot be read. *)
val entries : string -> entry list

(** [compact ~dir db] writes one segment per relation of [db] into
    [dir] (created if missing) and swaps in a manifest listing exactly
    those segments.  Returns the total byte size written.  Compacting
    over an existing store replaces its manifest; superseded segment
    files are left behind as orphans. *)
val compact : dir:string -> Paradb_relational.Database.t -> int

(** [append ~dir r] writes [r] as a delta segment and atomically extends
    the manifest.  The relation's visible rows become the union of all
    its segments. *)
val append : dir:string -> Paradb_relational.Relation.t -> unit

(** [fold_in_place ~dir] compacts an existing store in place: unions
    each relation's delta segments, writes one fresh segment per
    relation, atomically swaps the manifest, and removes the superseded
    files.  Crash-safe: a reader sees either the old segment set or the
    new one.  Returns (segments before, segments after, bytes written).
    Raises {!Segment.Corrupt} / [Sys_error] like {!open_dir}. *)
val fold_in_place : dir:string -> int * int * int

(** [recover dir] quarantines crash debris — a leftover [MANIFEST.tmp],
    any [.tmp] file, and segment files the live manifest does not
    reference — into [dir]/[orphans/], counting each move on the
    [storage.orphans.cleaned] metric.  Returns the number of files
    moved.  Best-effort: unmovable files are skipped, a read-only store
    recovers nothing.  Raises like {!entries} if the manifest itself is
    unreadable. *)
val recover : string -> int

(** [open_dir dir] runs {!recover}, then opens and validates every live
    segment and builds the database over the process dictionary
    {!Paradb_relational.Dictionary.global} (multi-segment relations are
    unioned with set semantics).  Raises {!Segment.Corrupt} on any
    validation failure — including a manifest/segment disagreement on
    name or row count. *)
val open_dir : string -> Paradb_relational.Database.t

(** [load_database path] — the one entry point front ends use: a
    directory is opened as a segment store, anything else is streamed as
    a text fact file via {!Paradb_query.Source.load_database}.  Storage
    failures come back as [Error ("storage: ...")], never exceptions. *)
val load_database :
  string -> (Paradb_relational.Database.t, string) result
