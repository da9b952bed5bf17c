(* The traced run: a fixed prefix of each connection's request sequence
   replayed in-process, with a span around every call the benchmark
   makes into a layer's public functions.  Each request is executed by
   three independent copies of the serving state, in rotating order:
   hand-composed with spans on (the per-layer numbers), the same with
   spans off (tracing overhead), and the real [Session.handle_line]
   (what the hand composition misses).  Cluster requests go through an
   in-process [Coordinator] handler against the live shard processes. *)

module Plan = Paradb_server.Plan
module Plan_cache = Paradb_server.Plan_cache
module Catalog = Paradb_server.Catalog
module Session = Paradb_server.Session
module Protocol = Paradb_server.Protocol
module Client = Paradb_server.Client
module Coordinator = Paradb_cluster.Coordinator
module Source = Paradb_query.Source
module Database = Paradb_relational.Database
module Relation = Paradb_relational.Relation
module Store = Paradb_storage.Store
module Clock = Paradb_telemetry.Clock
module Metrics = Paradb_telemetry.Metrics

(* --- spans ------------------------------------------------------ *)

type span = {
  req : int;
  name : string;
  id : int;
  parent : int;  (** -1 for a request's root *)
  start_ns : int;
  end_ns : int;
}

type tracer = {
  mutable enabled : bool;
  mutable req_id : int;
  mutable next_id : int;
  mutable current : int;
  mutable spans : span list;  (** newest first *)
}

let tracer enabled =
  { enabled; req_id = 0; next_id = 0; current = -1; spans = [] }

let with_span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id and parent = t.current in
    t.next_id <- id + 1;
    t.current <- id;
    let start_ns = Clock.now_ns () in
    let finish () =
      t.current <- parent;
      t.spans <-
        { req = t.req_id; name; id; parent; start_ns; end_ns = Clock.now_ns () }
        :: t.spans
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(* Run [f] without recording (the replay's warm-up). *)
let quietly t f =
  let was = t.enabled in
  t.enabled <- false;
  Fun.protect ~finally:(fun () -> t.enabled <- was) f

(* --- one request, composed by hand in [Session.run_eval]'s order --- *)

let db = Served.db

type node = { tr : tracer; catalog : Catalog.t; cache : Plan_cache.t }

let get = function Ok v -> v | Error e -> failwith e

(* Returns the response (for the byte count) and the answer rows. *)
let handle node oc pool (r : Pools.request) =
  let t = node.tr in
  let write resp = with_span t "encode.write" (fun () -> Protocol.write_response oc resp) in
  with_span t "request" @@ fun () ->
  match r.verb with
  | Pools.Fact ->
      let d =
        get (with_span t "storage.add_fact" (fun () -> Catalog.add_fact node.catalog db r.fact))
      in
      let resp =
        Protocol.Ok_ { summary = Printf.sprintf "%s tuples=%d" db (Database.size d); payload = [] }
      in
      write resp;
      (resp, 0)
  | (Pools.Eval | Pools.Count) as verb ->
      let q = get (with_span t "query.parse" (fun () -> Source.parse_query (pool.(r.q).Pools.text))) in
      let database, generation = Option.get (Catalog.find node.catalog db) in
      let count = verb = Pools.Count in
      let key =
        (if count then Plan.scoped_count_key else Plan.scoped_key)
          ~db ~generation Plan.Auto q
      in
      let t0 = Clock.now_ns () in
      let plan, outcome =
        with_span t "plan_cache.find_or_build" (fun () ->
            Plan_cache.find_or_build node.cache ~key (fun () ->
                let a = with_span t "planner.analyze" (fun () -> Plan.analyze Plan.Auto q) in
                with_span t "eval.compile" (fun () ->
                    (if count then Plan.prepare_count else Plan.prepare) a database ~generation)))
      in
      let cache = if outcome = `Hit then "hit" else "miss" in
      let engine = Plan.engine_name plan.Plan.engine in
      if count then begin
        let n = with_span t "eval.count" (fun () -> Plan.count plan database q) in
        let resp =
          Protocol.Ok_
            {
              summary =
                Printf.sprintf "engine=%s cache=%s count=%d ns=%d" engine cache n
                  (Clock.now_ns () - t0);
              payload = [ string_of_int n ];
            }
        in
        write resp;
        (resp, 1)
      end
      else begin
        let result = with_span t "eval.run" (fun () -> Plan.evaluate plan database q) in
        let ns = Clock.now_ns () - t0 in
        let rows = Relation.cardinality result in
        let lines = with_span t "encode.sort" (fun () -> Plan.sorted_tuples result) in
        let resp =
          Protocol.Ok_
            {
              summary = Printf.sprintf "engine=%s cache=%s rows=%d ns=%d" engine cache rows ns;
              payload = lines;
            }
        in
        write resp;
        (resp, rows)
      end

(* --- the replay -------------------------------------------------- *)

(* Requests per connection in the replayed prefix. *)
let prefix_per_conn smoke = if smoke then 10 else 150

(* Both connections' prefixes, interleaved as the server sees them. *)
let prefix cfg w p =
  let n = prefix_per_conn cfg.Served.smoke in
  let take conn =
    let next = Pools.stream w ~seed:cfg.Served.seed ~conn ~base:p.Served.base_set p.Served.pool in
    List.init n (fun _ -> next ())
  in
  List.concat (List.map2 (fun a b -> [ a; b ]) (take 0) (take 1))

(* A pipe whose far end a domain drains, so [encode.write] pays the
   same write syscalls a socket would without the bench blocking on a
   full buffer. *)
let with_pipe f =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let drain =
    Domain.spawn (fun () ->
        let buf = Bytes.create 65536 in
        while Unix.read rd buf 0 65536 > 0 do () done;
        Unix.close rd)
  in
  let oc = Unix.out_channel_of_descr wr in
  Fun.protect
    ~finally:(fun () ->
      close_out oc;
      Domain.join drain)
    (fun () -> f oc)

let time f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, Clock.now_ns () - t0)

let response_bytes resp =
  List.fold_left (fun acc l -> acc + String.length l + 1) 0 (Protocol.response_to_lines resp)

type replay = {
  spans : span list;  (** oldest first *)
  requests : Pools.request array;
  off_ns : int list;  (** request time, spans off *)
  on_ns : int list;  (** request time, spans on *)
  session_gap_ns : int list;  (** [Session.handle_line] minus hand-composed spans *)
  parse_ns : int list;  (** [Source.parse_query] calls *)
  eval_bytes : int;  (** response bytes of EVAL answers *)
  eval_rows : int;
  extra : (string * float * string) list;  (** workload-specific layer numbers *)
}

let ms ns = float_of_int ns /. 1e6
let dur s = s.end_ns - s.start_ns

(* Rotate which state runs a request first, so no state always pays for
   whatever the previous one left warm (interned constants, caches). *)
let rotate i l =
  let n = List.length l in
  List.init n (fun k -> List.nth l ((i + k) mod n))

let single_node cfg w p requests =
  let durable = w = Pools.Durable_write_read in
  if durable then Paradb_storage.Durability.set Paradb_storage.Durability.Full;
  let data_dir name =
    if durable then Some (Filename.concat cfg.Served.dir ("replay-" ^ name)) else None
  in
  let node name enabled =
    let catalog = Catalog.create ?data_dir:(data_dir name) () in
    ignore (get (Catalog.load catalog db p.Served.base));
    { tr = tracer enabled; catalog; cache = Plan_cache.create ~capacity:128 () }
  in
  let on = node "on" true and off = node "off" false in
  let shared = Session.make_shared ?data_dir:(data_dir "session") ~cache_capacity:128 () in
  let session = Session.create shared in
  ignore (Session.handle_line session (Printf.sprintf "LOAD %s %s" db p.Served.facts));
  let on_ns = ref [] and off_ns = ref [] and gap = ref [] in
  let bytes = ref 0 and rows = ref 0 in
  with_pipe (fun oc ->
      List.iter
        (fun r ->
          ignore (quietly on.tr (fun () -> handle on oc p.Served.pool r));
          ignore (handle off oc p.Served.pool r);
          ignore (Session.handle_line session (Pools.request_line ~db p.Served.pool r)))
        (Pools.warm_set w p.Served.pool);
      Array.iteri
        (fun i r ->
          on.tr.req_id <- i;
          let run_on () =
            let (resp, n), ns = time (fun () -> handle on oc p.Served.pool r) in
            let write =
              List.find (fun s -> s.req = i && s.name = "encode.write") on.tr.spans
            in
            on_ns := ns :: !on_ns;
            if r.Pools.verb = Pools.Eval then begin
              bytes := !bytes + response_bytes resp;
              rows := !rows + n
            end;
            ns - dur write
          in
          let run_off () = off_ns := snd (time (fun () -> handle off oc p.Served.pool r)) :: !off_ns in
          let line = Pools.request_line ~db p.Served.pool r in
          let run_session () = snd (time (fun () -> Session.handle_line session line)) in
          let hand = ref 0 and real = ref 0 in
          List.iter
            (fun k ->
              match k with
              | `On -> hand := run_on ()
              | `Off -> run_off ()
              | `Session -> real := run_session ())
            (rotate i [ `On; `Off; `Session ]);
          gap := (!real - !hand) :: !gap)
        requests);
  let spans = List.rev on.tr.spans in
  let extra =
    if not durable then []
    else
      (* the stores the FACTs left behind: attach them as a restart
         would, then fold their deltas as the compactor would *)
      let stores = List.filter_map data_dir [ "on"; "off"; "session" ] in
      let stores = List.map (fun d -> Filename.concat d db) stores in
      let attach = List.map (fun d -> ms (snd (time (fun () -> Store.open_dir d)))) stores in
      let segments = List.map (fun d -> List.length (Store.entries d)) stores in
      let fold = List.map (fun d -> ms (snd (time (fun () -> Store.fold_in_place ~dir:d)))) stores in
      [
        ("storage.attach_ms", Stats.p50 attach, "ms");
        ("storage.replay_segments", Stats.p50 (List.map float_of_int segments), "count");
        ("storage.fold_ms", Stats.p50 fold, "ms");
      ]
  in
  {
    spans;
    requests;
    off_ns = List.rev !off_ns;
    on_ns = List.rev !on_ns;
    session_gap_ns = List.rev !gap;
    parse_ns = List.filter_map (fun s -> if s.name = "query.parse" then Some (dur s) else None) spans;
    eval_bytes = !bytes;
    eval_rows = !rows;
    extra;
  }

(* The full-scan reducer an exchange round gathers for [e(X, Y)]. *)
let probe_gather = "gx0(X, Y) :- e(X, Y)."

let cluster cfg p (topo : Served.topo) requests =
  let cdb = "gt" in
  let shards =
    List.filter_map
      (fun s -> if s.Procs.port = topo.Served.front then None else Some s.Procs.port)
      topo.Served.servers
  in
  let coord =
    Coordinator.create
      (Coordinator.default_config (List.map (fun port -> ("127.0.0.1", port)) shards))
  in
  let tr = tracer true in
  let parse_ns = ref [] and on_ns = ref [] and off_ns = ref [] in
  let bytes = ref 0 and rows = ref 0 in
  (* Each handler pools one connection per shard, which occupies one of
     the shard's two workers until [on_close]. *)
  let h_on = Coordinator.handler coord () and h_off = Coordinator.handler coord () in
  (Fun.protect ~finally:(fun () -> h_on.on_close (); h_off.on_close ()) @@ fun () ->
  (match h_on.on_line (Printf.sprintf "LOAD %s %s" cdb p.Served.facts) with
  | Some (Protocol.Ok_ _), _ -> ()
  | _ -> failwith "in-process coordinator: LOAD failed");
  List.iter
    (fun r ->
      let line = Pools.request_line ~db:cdb p.Served.pool r in
      ignore (h_on.on_line line);
      ignore (h_off.on_line line))
    (Pools.warm_set Pools.Cluster_exchange p.Served.pool);
  Metrics.reset ();
  with_pipe (fun oc ->
      Array.iteri
        (fun i (r : Pools.request) ->
          tr.req_id <- i;
          let text = p.Served.pool.(r.q).Pools.text in
          parse_ns := snd (time (fun () -> Source.parse_query text)) :: !parse_ns;
          let line = Pools.request_line ~db:cdb p.Served.pool r in
          let exec t h () =
            with_span t "request" (fun () ->
                match with_span t "cluster.request" (fun () -> h.Paradb_server.Server.on_line line) with
                | Some resp, _ ->
                    with_span t "encode.write" (fun () -> Protocol.write_response oc resp);
                    resp
                | None, _ -> failwith "coordinator withheld a response")
          in
          let run_on () =
            let resp, ns = time (exec tr h_on) in
            on_ns := ns :: !on_ns;
            match (r.verb, resp) with
            | Pools.Eval, (Protocol.Ok_ { payload; _ } as resp) ->
                bytes := !bytes + response_bytes resp;
                rows := !rows + List.length payload
            | _ -> ()
          in
          let run_off () = off_ns := snd (time (exec (tracer false) h_off)) :: !off_ns in
          List.iter (fun k -> if k = `On then run_on () else run_off ()) (rotate i [ `On; `Off ]))
        requests));
  let executions = 2 * Array.length requests in
  let rounds = Metrics.counter_value (Metrics.counter "cluster.rounds") in
  let gathered = Metrics.counter_value (Metrics.counter "cluster.bytes_in") in
  let round_hist = Metrics.histogram_read (Metrics.histogram "cluster.round.ns") in
  (* one shard round trip and the coordinator-side parse of its payload,
     measured directly *)
  let probes = if cfg.Served.smoke then 2 else 10 in
  let rtt = ref [] and gather_parse = ref [] in
  List.iter
    (fun port ->
      Client.with_connection ~timeout:120.0 ~port (fun c ->
          for _ = 1 to probes do
            let resp, ns =
              time (fun () -> Client.request_line c (Printf.sprintf "GATHER %s %s" cdb probe_gather))
            in
            rtt := ms ns :: !rtt;
            match resp with
            | Protocol.Ok_ { payload; _ } ->
                let _, ns = time (fun () -> get (Source.parse_facts (String.concat "\n" payload))) in
                gather_parse := ms ns :: !gather_parse
            | Protocol.Err e -> failwith ("GATHER probe: " ^ e)
          done))
    shards;
  let spans = List.rev tr.spans in
  {
    spans;
    requests;
    off_ns = List.rev !off_ns;
    on_ns = List.rev !on_ns;
    session_gap_ns = [];
    parse_ns = List.rev !parse_ns;
    eval_bytes = !bytes;
    eval_rows = !rows;
    extra =
      [
        ("cluster.rounds_per_req", float_of_int rounds /. float_of_int executions, "1/req");
        ("cluster.gather_bytes_per_req", float_of_int gathered /. float_of_int executions, "B/req");
        ("cluster.round_p50_ms", Metrics.quantile round_hist 0.5 /. 1e6, "ms");
        ("cluster.round_p95_ms", Metrics.quantile round_hist 0.95 /. 1e6, "ms");
        ("cluster.shard_rtt_ms", Stats.p50 !rtt, "ms");
        ("cluster.gather_parse_ms", Stats.p50 !gather_parse, "ms");
      ];
  }

let replay cfg w p topo =
  let requests = Array.of_list (prefix cfg w p) in
  match w with
  | Pools.Cluster_exchange -> cluster cfg p topo requests
  | _ -> single_node cfg w p requests

(* --- per-layer numbers ------------------------------------------- *)

(* Self time of every span: its duration minus its children's. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (dur s + Option.value ~default:0 (Hashtbl.find_opt children s.parent)))
    spans;
  List.map (fun s -> (s, dur s - Option.value ~default:0 (Hashtbl.find_opt children s.id))) spans

let layer_names =
  [
    "request"; "query.parse"; "plan_cache.find_or_build"; "planner.analyze";
    "eval.compile"; "eval.run"; "eval.count"; "encode.sort"; "encode.write";
    "storage.add_fact"; "cluster.request";
  ]

(* Per layer: count, self-time p50/p95 (ms) and share of request time. *)
let table rp =
  let selfs = self_times rp.spans in
  let total =
    List.fold_left (fun acc (s, _) -> if s.name = "request" then acc + dur s else acc) 0 selfs
  in
  List.map
    (fun name ->
      let mine = List.filter_map (fun (s, self) -> if s.name = name then Some self else None) selfs in
      let sum = List.fold_left ( + ) 0 mine in
      let a = Stats.sorted_array (List.map ms mine) in
      ( name,
        List.length mine,
        Stats.quantile a 0.5,
        Stats.quantile a 0.95,
        if total = 0 then 0.0 else 100.0 *. float_of_int sum /. float_of_int total ))
    layer_names

(* Share (%) of FACT request time spent in [storage.add_fact]. *)
let fact_share rp =
  let fact_reqs = Hashtbl.create 64 in
  Array.iteri (fun i (r : Pools.request) -> if r.verb = Pools.Fact then Hashtbl.replace fact_reqs i ()) rp.requests;
  let sum name =
    List.fold_left
      (fun acc s -> if s.name = name && Hashtbl.mem fact_reqs s.req then acc + dur s else acc)
      0 rp.spans
  in
  let total = sum "request" in
  if total = 0 then 0.0 else 100.0 *. float_of_int (sum "storage.add_fact") /. float_of_int total

(* Sorted durations (ms) of every span named [name]. *)
let durations rp name =
  Stats.sorted_array
    (List.filter_map (fun s -> if s.name = name then Some (ms (dur s)) else None) rp.spans)

(* The per-layer metrics reported on every workload (a layer a workload
   never enters reads 0), then the workload-specific ones, printed
   only. *)
let metrics w (served : Served.result) rp =
  let tbl = table rp in
  let share name = List.find_map (fun (n, _, _, _, s) -> if n = name then Some s else None) tbl |> Option.get in
  let c = served.Served.counter in
  let hits = c "telemetry.server.plan_cache.hits" and misses = c "telemetry.server.plan_cache.misses" in
  let facts = List.length (List.filter (fun o -> o.Served.req.Pools.verb = Pools.Fact) served.Served.obs) in
  let wire =
    List.filter_map
      (fun o ->
        if o.Served.timed && o.Served.req.Pools.verb = Pools.Eval && o.Served.srv_ns >= 0 then
          Some (ms (o.Served.lat_ns - o.Served.srv_ns))
        else None)
      served.Served.obs
  in
  let sum l = float_of_int (List.fold_left ( + ) 0 l) in
  let extra name = List.find_map (fun (n, v, _) -> if n = name then Some v else None) rp.extra in
  let eval_write =
    List.filter_map
      (fun s ->
        if s.name = "encode.write" && rp.requests.(s.req).Pools.verb = Pools.Eval then Some (ms (dur s))
        else None)
      rp.spans
  in
  let universal =
    [
      ("trace.request_p50_ms", Stats.p50 (List.map ms rp.on_ns), "ms");
      ("query.parse_us", Stats.p50 (List.map ms rp.parse_ns) *. 1000.0, "us");
      ("encode.write_ms", Stats.p50 eval_write, "ms");
      ("wire.overhead_ms", Stats.p50 wire, "ms");
      ("plan_cache.hit_ratio",
        (if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)),
        "fraction");
      ("plan_cache.evictions", float_of_int (c "telemetry.server.plan_cache.evictions"), "count");
      ("query.parse.share", share "query.parse", "%");
      ("plan_cache.share", share "plan_cache.find_or_build", "%");
      ("planner.analyze.share", share "planner.analyze", "%");
      ("eval.compile.share", share "eval.compile", "%");
      ("eval.run.share", share "eval.run" +. share "eval.count", "%");
      ("encode.sort.share", share "encode.sort", "%");
      ("encode.write.share", share "encode.write", "%");
      ("storage.add_fact.share", share "storage.add_fact", "%");
      ("cluster.request.share", share "cluster.request", "%");
      ("trace.gap_share", share "request", "%");
      ("trace.overhead_pct", 100.0 *. (sum rp.on_ns -. sum rp.off_ns) /. sum rp.off_ns, "%");
      ("storage.fsync_per_write",
        (if facts = 0 then 0.0 else float_of_int (c "telemetry.storage.fsync.calls") /. float_of_int facts),
        "1/write");
      ("storage.compaction_runs", float_of_int (c "telemetry.storage.compaction.runs"), "count");
      ("cluster.rounds_per_req", Option.value ~default:0.0 (extra "cluster.rounds_per_req"), "1/req");
      ("cluster.gather_bytes_per_req", Option.value ~default:0.0 (extra "cluster.gather_bytes_per_req"), "B/req");
      ("encode.bytes_per_row",
        (if rp.eval_rows = 0 then 0.0 else float_of_int rp.eval_bytes /. float_of_int rp.eval_rows),
        "B/row");
    ]
  in
  let timing name =
    let a = durations rp name in
    if Array.length a = 0 then []
    else [ (name ^ "_p50_ms", Stats.quantile a 0.5, "ms"); (name ^ "_p95_ms", Stats.quantile a 0.95, "ms") ]
  in
  let run = durations rp "eval.run" in
  let specific =
    List.concat_map timing
      [ "planner.analyze"; "eval.compile"; "eval.run"; "eval.count"; "encode.sort";
        "storage.add_fact"; "cluster.request" ]
    @ (if rp.eval_rows = 0 || Array.length run = 0 then []
       else
         [ ("eval.ns_per_out_row",
            1e6 *. Array.fold_left ( +. ) 0.0 run /. float_of_int rp.eval_rows, "ns/row") ])
    @ (if rp.session_gap_ns = [] then []
       else [ ("session.gap_ms", Stats.p50 (List.map ms rp.session_gap_ns), "ms") ])
    @ (if w = Pools.Durable_write_read then
         [ ("storage.add_fact.fact_share", fact_share rp, "%");
           ("storage.segments_end", float_of_int (served.Served.gauge "db.g.segments"), "count") ]
       else [])
    @ List.filter (fun (n, _, _) -> not (List.exists (fun (m, _, _) -> m = n) universal)) rp.extra
  in
  (universal, specific, tbl)

(* JSONL, one span per line. *)
let write_spans file w rp =
  Out_channel.with_open_text file (fun oc ->
      let names = Hashtbl.create 1024 in
      List.iter (fun s -> Hashtbl.replace names s.id s.name) rp.spans;
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"req\":%d,\"workload\":\"%s\",\"span\":\"%s\",\"parent\":%s,\"start_ns\":%d,\"end_ns\":%d}\n"
            s.req (Pools.name w) s.name
            (match Hashtbl.find_opt names s.parent with
            | Some n -> Printf.sprintf "\"%s\"" n
            | None -> "null")
            s.start_ns s.end_ns)
        rp.spans)
