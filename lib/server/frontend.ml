module Metrics = Paradb_telemetry.Metrics
module Trace = Paradb_telemetry.Trace
module Clock = Paradb_telemetry.Clock

type handler = {
  on_line : string -> Protocol.response option * [ `Continue | `Quit ];
  on_close : unit -> unit;
}

(* Per-verb latency histograms, prebuilt so the hot path is one assoc
   lookup over a short fixed list.  "invalid" times unparseable lines. *)
let verb_hist =
  List.map
    (fun v -> (v, Metrics.histogram (Printf.sprintf "server.verb.%s.ns" v)))
    [
      "load"; "fact"; "bulk"; "eval"; "count"; "gather"; "ship"; "check";
      "explain"; "digest"; "repair"; "stats"; "metrics"; "quit"; "invalid";
    ]

let observe_verb verb ns =
  match List.assoc_opt verb verb_hist with
  | Some h -> Metrics.observe h ns
  | None -> ()

(* In-flight BULK framing: after a [BULK db n] header the next [n]
   lines are fact lines, collected here and handed to [bulk] as one
   batch when the count runs out. *)
type open_bulk = { db : string; mutable remaining : int; buf : Buffer.t }

let handler ?(on_close = ignore) ~verb ~bulk () =
  let pending = ref None in
  let framed = function
    | Protocol.Quit ->
        (Some (Protocol.Ok_ { summary = "bye"; payload = [] }), `Quit)
    | Protocol.Bulk { db; count = 0 } -> (Some (bulk ~db ""), `Continue)
    | Protocol.Bulk { db; count } ->
        pending :=
          Some { db; remaining = count; buf = Buffer.create (count * 16) };
        (None, `Continue)
    | req -> (Some (verb req), `Continue)
  in
  let request req =
    let name = Protocol.verb_name req in
    Trace.with_span ("server." ^ name) @@ fun () ->
    (* deliberately outside the verb function's error handling:
       exercises the server loop's catch-all (chaos tests) *)
    Fault.injected_raise ();
    let t0 = Clock.now_ns () in
    let r = framed req in
    observe_verb name (Clock.now_ns () - t0);
    r
  in
  let on_line line =
    let t0 = Clock.now_ns () in
    match !pending with
    | Some b ->
        (* mid-BULK: the raw line is a fact line, not a request *)
        Buffer.add_string b.buf line;
        Buffer.add_char b.buf '\n';
        b.remaining <- b.remaining - 1;
        let r =
          if b.remaining > 0 then None
          else begin
            pending := None;
            Some (bulk ~db:b.db (Buffer.contents b.buf))
          end
        in
        observe_verb "bulk" (Clock.now_ns () - t0);
        (r, `Continue)
    | None -> (
        match Protocol.parse_request line with
        | Ok req -> request req
        | Error e ->
            observe_verb "invalid" (Clock.now_ns () - t0);
            (Some (Protocol.Err e), `Continue))
  in
  { on_line; on_close }
