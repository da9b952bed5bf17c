(** The binary columnar segment: one relation's rows, dictionary-encoded
    and checksummed, in an mmap-able file.

    Layout (all integers little-endian; see DESIGN.md §14 for the byte
    diagram):

    {v
      fixed header (48 B): magic "PDBSEG1\n", version u32, arity u32,
                           rows u64, dict_count u64, dict_len u64,
                           name_len u32, schema_len u32
      name bytes, schema bytes (u16-length-prefixed attribute names)
      header crc32 (u32)                 — covers everything above
      dictionary payload (dict_len B)    — entries: tag u8 (0 = Int,
                                           1 = Str), i64 / u32 len + bytes
      dictionary crc32 (u32)
      arity x column page:
        rows x u32 local codes, then the page's crc32 (u32)
    v}

    Codes inside a segment are {e local}: the dictionary section assigns
    local code [i] to its [i]th entry, in first-seen row order.  Opening
    translates local codes to the process dictionary, so a segment file
    is position-independent — it can be copied between machines and
    opened into any process.

    Every read validates magic, version, section bounds and all four
    checksum classes before any row is decoded: a flipped byte anywhere
    in the file raises {!Corrupt} with the path and section, never a
    crash or a silently wrong relation. *)

(** Raised on any validation failure; the message names the file (or the
    [source] of an in-memory segment) and the failing section. *)
exception Corrupt of string

(** An opened, fully checksum-validated segment. *)
type t

val name : t -> string
val schema : t -> string list
val arity : t -> int
val rows : t -> int

(** [write ~path r] serializes [r] to [path] (written in full before
    this returns; the caller sequences any manifest update after).
    Returns the byte size of the file.  Raises [Sys_error] on I/O
    failure and [Invalid_argument] on an unrepresentable relation
    (name or attribute longer than the format's length fields). *)
val write : path:string -> Paradb_relational.Relation.t -> int

(** [encode r] — the bytes {!write} would put in a file, as a string. *)
val encode : Paradb_relational.Relation.t -> string

(** [openf path] maps the file and validates it.  Raises {!Corrupt} on
    any malformation and [Sys_error] if the file cannot be opened. *)
val openf : string -> t

(** [decode ~source bytes] validates an in-memory segment exactly as
    {!openf} validates a file; [source] names it in {!Corrupt}
    messages. *)
val decode : source:string -> string -> t

(** [to_hex bytes] — two lowercase hex digits per byte: no newline, no
    blank, so a segment fits one protocol payload line. *)
val to_hex : string -> string

(** [of_hex ~source s] inverts {!to_hex} (either digit case).  Raises
    {!Corrupt} naming [source] on an odd length or a non-hex digit. *)
val of_hex : source:string -> string -> string

(** [to_relation seg] decodes the segment into a relation over [dict]
    (default {!Paradb_relational.Dictionary.global}): dictionary entries
    are interned once, then column pages are translated code-for-code —
    no text parsing, no per-cell boxing. *)
val to_relation : ?dict:Paradb_relational.Dictionary.t -> t -> Paradb_relational.Relation.t

(** [rows_seq seg ~dict] — the rows as code rows over [dict].  Every
    element is the same scratch buffer, overwritten between elements;
    consumers must copy what they keep (as {!Relation.of_codes} does). *)
val rows_seq :
  t -> dict:Paradb_relational.Dictionary.t ->
  Paradb_relational.Code_row.t Seq.t
