(** A blocking client for the {!Protocol} wire format, shared by
    [paradb client], the cluster coordinator, the oracle and the
    benchmarks. *)

type t

(** [connect ?host ?timeout ?retries ?backoff ~port ()] — TCP connect;
    [host] defaults to ["127.0.0.1"].

    [timeout] (seconds) bounds the connect {e and} every subsequent
    request on the connection (via [SO_RCVTIMEO]/[SO_SNDTIMEO]);
    unbounded when omitted.  A refused/reset/timed-out connect is
    retried up to [retries] times (default 0) with exponential backoff
    starting at [backoff] seconds (default 0.05), jittered by a factor
    in [0.5, 1.5).  Raises [Unix.Unix_error] once retries are
    exhausted. *)
val connect :
  ?host:string ->
  ?timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  port:int ->
  unit ->
  t

(** [connect_any ?timeout ?retries ?backoff addrs ()] — failover
    connect over a non-empty [(host, port)] list: attempt [i] dials
    address [i mod length addrs], so a dead server is skipped instead
    of erroring the client; the jittered exponential backoff of
    {!connect} is applied once per full cycle through the list.
    [retries] bounds the total extra attempts across all addresses.
    Raises [Invalid_argument] on an empty list, [Unix.Unix_error] once
    retries are exhausted. *)
val connect_any :
  ?timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  (string * int) list ->
  unit ->
  t

(** [parse_addrs s] parses a comma-separated ["host:port,..."] list;
    a bare port means [default_host] (default 127.0.0.1). *)
val parse_addrs :
  ?default_host:string -> string -> ((string * int) list, string) result

(** [set_timeout t seconds] re-arms [SO_RCVTIMEO]/[SO_SNDTIMEO] on the
    live connection (floored at 1ms) — how the cluster coordinator
    propagates its remaining request deadline to each shard
    sub-request. *)
val set_timeout : t -> float -> unit

(** [request t req] sends one request and reads its framed response.
    Raises [Failure] if the server hangs up before responding or the
    request timeout expires. *)
val request : t -> Protocol.request -> Protocol.response

(** [request_line t line] — same over a raw command line. *)
val request_line : t -> string -> Protocol.response

(** [request_bulk t ~header lines] — send a multi-line request (the
    [BULK <db> <n>] header followed by its [n] fact lines) in one
    buffered write, then read the single batch response. *)
val request_bulk : t -> header:string -> string list -> Protocol.response

(** Sends [QUIT] (best effort) and closes the socket. *)
val close : t -> unit

(** [with_connection ?host ?timeout ?retries ?backoff ~port f] —
    connect, run, always close. *)
val with_connection :
  ?host:string ->
  ?timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  port:int ->
  (t -> 'a) ->
  'a
