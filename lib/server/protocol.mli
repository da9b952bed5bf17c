(** The wire protocol of [paradb serve] — a line-based text codec.

    Requests are single lines; the first whitespace-separated token is a
    case-insensitive keyword:

    {v
      LOAD <db> <path>            load a fact file into catalog entry <db>
      FACT <db> <fact>            add one ground fact, e.g. edge(1, 2).
      BULK <db> <n>               cluster exchange framing: the next <n>
                                  lines are fact lines replacing entry <db>
      EVAL <db> <engine> <query>  evaluate; engine is auto | naive |
                                  yannakakis | fpt | compiled
      COUNT <db> <engine> <query> exact answer count (satisfying
                                  valuations, Nat semiring); payload is
                                  one line holding the bare count;
                                  engine is auto | naive | yannakakis |
                                  compiled
      GATHER <db> <query>         evaluate and answer the result as fact
                                  lines (human-readable gather)
      SHIP <db> [if=<snap>] <query>
                                  evaluate like GATHER; the payload is one
                                  line, the result's segment in hex (the
                                  cluster's gather wire format)
      CHECK <query>               static analysis (no database touched)
      EXPLAIN <query>             physical plan: class, width, join order
                                  (no database touched)
      DIGEST <db>                 per-relation content fingerprint lines
                                  [relation <name> <arity> <rows> <crc32>]
                                  (replica comparison / REPAIR)
      REPAIR <db>                 coordinator-only: compare replica
                                  digests, re-ship divergent slices
      STATS                       session and server counters
      METRICS                     process telemetry snapshot as one JSON line
      QUIT                        close the session
    v}

    [BULK] is the only multi-line request: after the header line the
    session consumes exactly [n] fact lines (responses are withheld
    while collecting), then answers once for the whole batch.  The
    count is capped at {!max_payload_lines}.  [GATHER] payload lines
    are [name(v1, v2).] facts (see {!Paradb_query.Fact_format}), so
    values survive the round-trip that bare tuple lines would not.
    [SHIP] answers the same rows as one hex line of a checksummed
    segment ({!Paradb_storage.Segment.to_hex}), unsorted; an answer over
    the row limit carries [truncated=true] and no payload line.  A
    shard's [SHIP] summary ends in [snap=<incarnation>.<generation>],
    the catalog snapshot the answer was evaluated on
    ({!Catalog.snap}).  [SHIP <db> if=<snap> <query>] is conditional:
    while entry [<db>]'s current token still equals [<snap>] the shard
    answers [OK 0 shipped unchanged snap=<snap>] without parsing or
    running the query; otherwise it ships as usual.

    Responses are framed so a client never guesses where a reply ends:

    {v
      OK <n> <summary>            followed by exactly <n> payload lines
      ERR <message>               a single line
    v}

    Payload lines never start with [OK] or [ERR] (answers are tuples,
    [key value] counter pairs, or indented report lines), but the framing
    never relies on that: the [<n>] count is authoritative. *)

type request =
  | Load of { db : string; path : string }
  | Fact of { db : string; fact : string }
  | Bulk of { db : string; count : int }
  | Eval of { db : string; engine : string; query : string }
  | Count of { db : string; engine : string; query : string }
  | Gather of { db : string; query : string }
  | Ship of { db : string; query : string; if_snap : string option }
  | Check of string
  | Explain of string
  | Digest of string
  | Repair of string
  | Stats
  | Metrics
  | Quit

type response =
  | Ok_ of { summary : string; payload : string list }
  | Err of string

(** Lowercase verb keyword of a request, the label used in per-verb
    telemetry metric names ([server.verb.<verb>.ns]). *)
val verb_name : request -> string

(** [parse_request line] — [Error] carries a human-readable message
    (unknown keyword, missing operand).  Leading/trailing blanks are
    ignored. *)
val parse_request : string -> (request, string) result

(** Render a request as its wire line (inverse of {!parse_request}). *)
val request_to_line : request -> string

(** [write_response oc r] emits the framing line and the payload,
    flushing at the end. *)
val write_response : out_channel -> response -> unit

(** [write_lines oc lines] emits already-framed lines (as built by
    {!response_to_lines}), one per line, flushing at the end. *)
val write_lines : out_channel -> string list -> unit

(** Defensive ceiling on the [OK <n>] payload count accepted by
    {!read_response} and on the [BULK <n>] fact count accepted by
    {!parse_request} — far above any legitimate result, far below what
    would let a hostile peer park either side in a counted loop. *)
val max_payload_lines : int

(** [read_response ic] reads one framed response; [None] on EOF.
    Raises [Failure] on a malformed framing line — including a negative
    or implausibly large ([> 10^7]) [OK-n] payload count — and on a
    mid-frame EOF (fewer than [n] payload lines before disconnect). *)
val read_response : in_channel -> response option

val response_to_lines : response -> string list

(** [wire_bytes lines] — the bytes [lines] occupy on the wire, one
    newline each: a response as built by {!response_to_lines}, or a
    request line plus its [BULK] fact lines. *)
val wire_bytes : string list -> int
