(** The request front end shared by a single node ({!Session}) and the
    cluster coordinator: it turns one request line into one response.

    A front end owns everything about a line that does not depend on
    who answers it: parsing ({!Protocol.parse_request}; a malformed
    line answers [ERR <parse error>]), [BULK] framing, [QUIT], one
    [server.<verb>] trace span and one [server.verb.<verb>.ns]
    histogram observation per request ([invalid] for unparseable lines,
    [bulk] for every framed fact line), and the [raise_eval] fault hook
    ({!Fault.injected_raise}).  The caller supplies only what differs:

    - [verb] answers every request except [BULK] and [QUIT], which the
      front end frames itself and never passes on;
    - [bulk ~db text] applies one complete [BULK] batch: [text] is the
      frame's fact lines, each ended by a newline ([""] for
      [BULK db 0]).  It is called once per frame. *)

(** One connection's request processor.  [on_line] receives each
    non-blank request line and returns the response to frame — [None]
    exactly while a [BULK] frame is open, so the batch is answered
    once, on its [n]-th fact line — plus the keep/close verdict
    ([`Quit] after [QUIT]'s farewell).  [on_close] runs once when the
    connection ends, so a front end owning upstream sockets can release
    them. *)
type handler = {
  on_line : string -> Protocol.response option * [ `Continue | `Quit ];
  on_close : unit -> unit;
}

(** [handler ?on_close ~verb ~bulk ()] — a fresh front end with no
    open [BULK] frame; [on_close] defaults to doing nothing.  Exceptions
    from [verb] and [bulk] propagate out of [on_line]. *)
val handler :
  ?on_close:(unit -> unit) ->
  verb:(Protocol.request -> Protocol.response) ->
  bulk:(db:string -> string -> Protocol.response) ->
  unit ->
  handler
