(* The served run: real [paradb serve] / [paradb coordinator]
   subprocesses, set up several times (the median is [setup_s]), then a
   closed loop of two connections — one domain each — with no think
   time, every answer checked against an in-process reference. *)

module Client = Paradb_server.Client
module Protocol = Paradb_server.Protocol
module Plan = Paradb_server.Plan
module Source = Paradb_query.Source
module Database = Paradb_relational.Database
module Relation = Paradb_relational.Relation
module Clock = Paradb_telemetry.Clock

type config = {
  paradb : string;  (** path of the [paradb] executable *)
  dir : string;  (** this run's scratch directory *)
  seed : int;
  seconds : float;
  smoke : bool;
}

let connections = 2

(* Enough samples that p95 has ten beyond it. *)
let min_samples = 200
let db = "g"

(* --- references ------------------------------------------------- *)

let parse text =
  match Source.parse_query text with Ok q -> q | Error e -> failwith e

(* The answer a single node must give, computed in-process on a fresh
   plan: EVAL as a digest of [Plan.sorted_tuples], COUNT as [rows]. *)
let answer database verb plan q =
  match verb with
  | Pools.Count ->
      let plan = Plan.prepare_count plan database ~generation:0 in
      { Stats.rows = Plan.count plan database q; set = 0; seq = 0 }
  | _ ->
      let plan = Plan.prepare plan database ~generation:0 in
      Stats.digest (Plan.sorted_tuples (Plan.evaluate plan database q))

let reference database verb text =
  let q = parse text in
  answer database verb (Plan.analyze Plan.Auto q) q

(* References for every distinct (verb, query) in [keys], split over two
   domains once the timed loop is over.  Planning interns the queries'
   constants, so it runs first, on one domain (see the dictionary's
   concurrency contract). *)
let references database keys =
  let planned =
    List.map
      (fun (verb, text) ->
        let q = parse text in
        ((verb, text), Plan.analyze Plan.Auto q, q))
      (List.sort_uniq compare keys)
  in
  let compute part () =
    List.filter_map
      (fun (i, (key, plan, q)) ->
        if i mod 2 = part then Some (key, answer database (fst key) plan q) else None)
      (List.mapi (fun i x -> (i, x)) planned)
  in
  let other = Domain.spawn (compute 1) in
  let mine = compute 0 () in
  let table = Hashtbl.create (List.length planned) in
  List.iter (fun (k, d) -> Hashtbl.replace table k d) (mine @ Domain.join other);
  fun verb text -> Hashtbl.find table (verb, text)

(* --- topology --------------------------------------------------- *)

type topo = {
  servers : Procs.proc list;  (** every process the workload started *)
  front : int;  (** port clients talk to *)
  data_dir : string option;
}

let expect c line =
  match Client.request_line c line with
  | Protocol.Ok_ { payload; _ } -> payload
  | Protocol.Err e -> failwith (Printf.sprintf "%s: ERR %s" line e)

let with_client port f = Client.with_connection ~timeout:120.0 ~port f

let spawn cfg ~log args =
  Procs.spawn ~paradb:cfg.paradb ~log:(Filename.concat cfg.dir log) args

let serve_args = [ "serve"; "--port"; "0"; "--workers"; string_of_int connections ]

let durable_args data_dir =
  serve_args
  @ [ "--data-dir"; data_dir; "--durability"; "full"; "--compact-after"; "8";
      "--compact-interval"; "1" ]

let teardown topo = List.iter (fun p -> Procs.stop p.Procs.pid) topo.servers

let timed f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, float_of_int (Clock.now_ns () - t0) /. 1e9)

(* One set-up, timed from spawn until the server holds the data and
   answers.  [durable-write-read] times a restart that attaches the
   store its first set-up persisted. *)
let setup_once cfg w ~facts =
  match w with
  | Pools.Warm_serve | Pools.Cold_adhoc ->
      timed (fun () ->
          let p = spawn cfg ~log:"serve.log" serve_args in
          with_client p.Procs.port (fun c ->
              ignore (expect c (Printf.sprintf "LOAD %s %s" db facts)));
          { servers = [ p ]; front = p.Procs.port; data_dir = None })
  | Pools.Durable_write_read ->
      let data_dir = Filename.concat cfg.dir "data" in
      if not (Sys.file_exists data_dir) then begin
        let p = spawn cfg ~log:"serve.log" (durable_args data_dir) in
        with_client p.Procs.port (fun c ->
            ignore (expect c (Printf.sprintf "LOAD %s %s" db facts)));
        Procs.stop p.Procs.pid
      end;
      timed (fun () ->
          let p = spawn cfg ~log:"serve.log" (durable_args data_dir) in
          with_client p.Procs.port (fun c -> ignore (expect c "STATS"));
          { servers = [ p ]; front = p.Procs.port; data_dir = Some data_dir })
  | Pools.Cluster_exchange ->
      timed (fun () ->
          let shards =
            List.init 2 (fun i ->
                spawn cfg ~log:(Printf.sprintf "shard%d.log" i) serve_args)
          in
          let coord =
            spawn cfg ~log:"coordinator.log"
              [
                "coordinator"; "--port"; "0"; "--workers";
                string_of_int connections; "--replicas"; "1"; "--shards";
                String.concat ","
                  (List.map (fun p -> string_of_int p.Procs.port) shards);
              ]
          in
          with_client coord.Procs.port (fun c ->
              ignore (expect c (Printf.sprintf "LOAD %s %s" db facts)));
          { servers = shards @ [ coord ]; front = coord.Procs.port; data_dir = None })

let setups cfg = if cfg.smoke then 1 else 7

(* Set up [setups] times, keeping the last topology. *)
let setup cfg w ~facts =
  let rec go i times =
    let topo, t = setup_once cfg w ~facts in
    if i = setups cfg then (topo, List.rev (t :: times))
    else begin
      teardown topo;
      go (i + 1) (t :: times)
    end
  in
  let topo, times = go 1 [] in
  (topo, Stats.p50 times)

(* --- the closed loop -------------------------------------------- *)

type obs = {
  req : Pools.request;
  lat_ns : int;  (** client send to last payload line read *)
  srv_ns : int;  (** the server's own [ns=] summary field, -1 if none *)
  answer : (Stats.digest, string) result;
  timed : bool;  (** sent after the warm-up: counts in the metrics *)
}

let summary_ns summary =
  List.find_map
    (fun tok ->
      if String.length tok > 3 && String.sub tok 0 3 = "ns=" then
        int_of_string_opt (String.sub tok 3 (String.length tok - 3))
      else None)
    (String.split_on_char ' ' summary)
  |> Option.value ~default:(-1)

let answer_of (r : Pools.request) = function
  | Protocol.Err e -> (Error ("ERR " ^ e), -1)
  | Protocol.Ok_ { summary; payload } ->
      let ns = summary_ns summary in
      ( (match (r.verb, payload) with
        | Pools.Eval, lines -> Ok (Stats.digest lines)
        | Pools.Count, [ n ] -> (
            match int_of_string_opt n with
            | Some n -> Ok { Stats.rows = n; set = 0; seq = 0 }
            | None -> Error ("bad count " ^ n))
        | Pools.Count, _ -> Error "COUNT payload is not one line"
        | Pools.Fact, _ -> Ok { Stats.rows = 0; set = 0; seq = 0 }),
        ns )

type loop_result = { obs : obs list; wall_s : float  (** of the timed part *) }

(* Unrecorded closed-loop time before measuring: the server's heap and
   the host's clocks settle in the first seconds of load. *)
let warmup_s cfg = if cfg.smoke then 0.0 else 3.0

(* Drive both connections for the warm-up, then until [seconds] have
   passed and every verb the workload issues has [min_samples] timed
   samples (at most three times [seconds]).  Every request's answer is
   kept for checking, warm-up included. *)
let closed_loop cfg w pool ~base ~port =
  let counts = List.map (fun v -> (v, Atomic.make 0)) (Pools.verbs w) in
  let need = if cfg.smoke then 0 else min_samples in
  let ns s = int_of_float (s *. 1e9) in
  let from = Clock.now_ns () + ns (warmup_s cfg) in
  let soft = from + ns cfg.seconds and hard = from + ns (3.0 *. cfg.seconds) in
  let enough () = List.for_all (fun (_, n) -> Atomic.get n >= need) counts in
  let drive conn () =
    let next = Pools.stream w ~seed:cfg.seed ~conn ~base pool in
    with_client port (fun c ->
        let rec loop acc =
          let now = Clock.now_ns () in
          if now >= hard || (now >= soft && enough ()) then acc
          else begin
            let req = next () in
            let line = Pools.request_line ~db pool req in
            let t0 = Clock.now_ns () in
            let resp =
              match Client.request_line c line with
              | r -> Ok r
              | exception e -> Error (Printexc.to_string e)
            in
            let lat_ns = Clock.now_ns () - t0 in
            let timed = t0 >= from in
            if timed then Atomic.incr (List.assoc req.Pools.verb counts);
            match resp with
            | Ok r ->
                let answer, srv_ns = answer_of req r in
                loop ({ req; lat_ns; srv_ns; answer; timed } :: acc)
            | Error e ->
                (* the connection is gone: record and stop this client *)
                { req; lat_ns; srv_ns = -1; answer = Error e; timed } :: acc
          end
        in
        loop [])
  in
  let domains = List.init connections (fun conn -> Domain.spawn (drive conn)) in
  let obs = List.concat_map Domain.join domains in
  { obs; wall_s = float_of_int (Clock.now_ns () - from) /. 1e9 }

(* --- one workload, end to end ----------------------------------- *)

type prepared = {
  facts : string;  (** path of the base fact file *)
  base : Database.t;  (** the base database, parsed back from [facts] *)
  base_set : (int * int, unit) Hashtbl.t;
  pool : Pools.entry array;
}

let prepare cfg w =
  let facts = Filename.concat cfg.dir "base.facts" in
  Out_channel.with_open_text facts (fun oc ->
      Paradb_query.Fact_format.print oc (Pools.base_database cfg.seed));
  let base =
    match Source.load_database facts with Ok d -> d | Error e -> failwith e
  in
  {
    facts;
    base;
    base_set = Pools.base_edges base;
    pool = Pools.pool w;
  }

let warm_up w p ~port =
  with_client port (fun c ->
      List.iter
        (fun r -> ignore (expect c (Pools.request_line ~db p.pool r)))
        (Pools.warm_set w p.pool))

(* STATS counters of one server, as (name, value). *)
let stats_table port =
  with_client port (fun c ->
      List.filter_map
        (fun l ->
          match String.split_on_char ' ' l with
          | [ k; v ] -> Option.map (fun v -> (k, v)) (int_of_string_opt v)
          | _ -> None)
        (expect c "STATS"))

(* [stats_delta ports f] runs [f] and returns its value with two
   lookups into the STATS counters summed over every server: the change
   across [f], and the value after it. *)
let stats_delta ports f =
  let read () = List.concat_map stats_table ports in
  let before = read () in
  let r = f () in
  let after = read () in
  let sum l =
    let t = Hashtbl.create 64 in
    List.iter
      (fun (k, v) ->
        Hashtbl.replace t k (v + Option.value ~default:0 (Hashtbl.find_opt t k)))
      l;
    t
  in
  let before = sum before and after = sum after in
  let get t k = Option.value ~default:0 (Hashtbl.find_opt t k) in
  (r, (fun k -> get after k - get before k), get after)

(* Apply acked FACT texts to the base database, in-process. *)
let with_facts base facts =
  match Source.parse_facts (String.concat "\n" facts) with
  | Error e -> failwith e
  | Ok extra ->
      Database.add
        (List.fold_left
           (fun r t -> Relation.add t r)
           (Database.find base "e")
           (Relation.tuples (Database.find extra "e")))
        base

let full_scan = "ans(X, Y) :- e(X, Y)."
let ms ns = float_of_int ns /. 1e6

type result = {
  metrics : (string * float * string) list;  (** end-to-end: name, value, unit *)
  extra : (string * float * string) list;  (** printed, not in the JSON line *)
  attempted : int;
  failed : int;
  errors : string list;
  counter : string -> int;  (** server STATS counter delta over the loop *)
  gauge : string -> int;  (** server STATS value after the loop *)
  obs : obs list;  (** every request, warm-up included *)
  per_query : string list;
      (** small pools: each query's Theorem 2 parameters and latency *)
}

(* Check one observation; [Some why] when wrong.  Durable reads race the
   writes, so their answer size must lie between the base and final
   answers (conjunctive queries with != and < are monotone); every other
   answer must equal the reference, bit for bit on the cluster. *)
let checker w p ~at_base ~at_final o =
  match (o.answer, o.req.Pools.verb) with
  | Error e, _ -> Some e
  | Ok _, Pools.Fact -> None
  | Ok got, verb ->
      let text = p.pool.(o.req.Pools.q).Pools.text in
      let want = at_base verb text in
      if w = Pools.Durable_write_read then
        let hi = (at_final verb text).Stats.rows in
        if got.Stats.rows < want.Stats.rows || got.Stats.rows > hi then
          Some
            (Printf.sprintf "%s: %d rows outside [%d, %d]" text got.Stats.rows
               want.Stats.rows hi)
        else None
      else if
        got.Stats.rows <> want.Stats.rows
        || got.Stats.set <> want.Stats.set
        || (w = Pools.Cluster_exchange && got.Stats.seq <> want.Stats.seq)
      then
        Some
          (Printf.sprintf "%s %s: got %d rows, want %d, digest %s"
             (Pools.verb_name verb) text got.Stats.rows want.Stats.rows
             (if got.Stats.set = want.Stats.set then "equal" else "differs"))
      else None

(* Kill -9 the server, restart it on the same data dir, and require the
   [e] it attaches to be exactly base ∪ acked. *)
let restart_check cfg topo dir ~final ~acked =
  List.iter (fun s -> Procs.kill s.Procs.pid) topo.servers;
  let p = spawn cfg ~log:"restart.log" (durable_args dir) in
  Fun.protect ~finally:(fun () -> Procs.stop p.Procs.pid) @@ fun () ->
  let got =
    with_client p.Procs.port (fun c ->
        Stats.digest (expect c (Printf.sprintf "EVAL %s auto %s" db full_scan)))
  in
  let want = reference final Pools.Eval full_scan in
  if got = want then None
  else
    Some
      (Printf.sprintf "restart: e has %d rows, want base + %d acked = %d"
         got.Stats.rows (List.length acked) want.Stats.rows)

(* For the small pools: per query and read verb, the paper's
   parameters (n = database size, q = query size, v = variables, out =
   answer rows or count) next to the measured p50. *)
let per_query w p ~at_base obs =
  let n = Database.size p.base in
  List.map
    (fun (r : Pools.request) ->
      let text = p.pool.(r.q).Pools.text in
      let q = parse text in
      let lats =
        List.filter_map
          (fun o -> if o.req.Pools.verb = r.verb && o.req.Pools.q = r.q then Some (ms o.lat_ns) else None)
          obs
      in
      Printf.sprintf "q%d %-5s n=%d q=%d v=%d out=%d samples=%d p50=%.3fms  %s" r.q
        (Pools.verb_name r.verb) n (Paradb_query.Cq.size q) (Paradb_query.Cq.num_vars q)
        (at_base r.verb text).Stats.rows (List.length lats) (Stats.p50 lats) text)
    (Pools.warm_set w p.pool)

let verb_ms obs v =
  List.filter_map
    (fun o -> if o.req.Pools.verb = v then Some (ms o.lat_ns) else None)
    obs

let percentiles prefix lats =
  let a = Stats.sorted_array lats in
  [
    (prefix ^ "_p50_ms", Stats.quantile a 0.5, "ms");
    (prefix ^ "_p95_ms", Stats.quantile a 0.95, "ms");
  ]

(* [run cfg w p ~during] sets up, warms up, drives the closed loop,
   checks every answer and tears down.  [during topo] runs right after
   the loop while the servers are still up (the traced replay needs the
   cluster's shards); its value is returned alongside. *)
let run cfg w p ~during =
  let topo, setup_s = setup cfg w ~facts:p.facts in
  Fun.protect ~finally:(fun () -> teardown topo) @@ fun () ->
  warm_up w p ~port:topo.front;
  let loop, counter, gauge =
    stats_delta
      (List.map (fun s -> s.Procs.port) topo.servers)
      (fun () -> closed_loop cfg w p.pool ~base:p.base_set ~port:topo.front)
  in
  let rss =
    List.fold_left (fun acc s -> acc +. Procs.vm_hwm_mb s.Procs.pid) 0.0 topo.servers
  in
  let traced = during topo in
  let obs = loop.obs in
  let acked =
    List.filter_map
      (fun o ->
        match (o.req.Pools.verb, o.answer) with
        | Pools.Fact, Ok _ -> Some o.req.Pools.fact
        | _ -> None)
      obs
  in
  let final = if acked = [] then p.base else with_facts p.base acked in
  let keys =
    List.filter_map
      (fun (r : Pools.request) ->
        if r.verb = Pools.Fact then None else Some (r.verb, p.pool.(r.q).Pools.text))
      (Pools.warm_set w p.pool @ List.map (fun o -> o.req) obs)
  in
  let at_base = references p.base keys in
  let at_final = if acked = [] then at_base else references final keys in
  let wrong = List.filter_map (checker w p ~at_base ~at_final) obs in
  let space_amp, durable_errors =
    match topo.data_dir with
    | None -> ([], [])
    | Some dir ->
        let user_bytes =
          String.length (Paradb_query.Fact_format.to_string final)
        in
        ( [ ("space_amp", float_of_int (Procs.dir_bytes dir) /. float_of_int user_bytes, "ratio") ],
          Option.to_list (restart_check cfg topo dir ~final ~acked) )
  in
  let attempted = List.length obs in
  let measured = List.filter (fun o -> o.timed) obs in
  let samples v = List.length (verb_ms measured v) in
  let short =
    if cfg.smoke then []
    else
      List.filter_map
        (fun v ->
          if samples v < min_samples then
            Some
              (Printf.sprintf "refusing to report %s: %d samples < %d"
                 (Pools.verb_name v) (samples v) min_samples)
          else None)
        (Pools.verbs w)
  in
  let failed = List.length wrong + List.length durable_errors in
  let metrics =
    [ ("qps", float_of_int (List.length measured) /. loop.wall_s, "1/s") ]
    @ percentiles "eval" (verb_ms measured Pools.Eval)
    @ percentiles "count" (verb_ms measured Pools.Count)
    @ [ ("setup_s", setup_s, "s"); ("server_rss_mb", rss, "MB") ]
  in
  let extra =
    (if Pools.fact_share w > 0.0 then percentiles "write" (verb_ms measured Pools.Fact)
     else [])
    @ space_amp
    @ [ ("error_rate", float_of_int failed /. float_of_int (max 1 attempted), "fraction") ]
    @ List.map
        (fun v -> ("samples." ^ Pools.verb_name v, float_of_int (samples v), "count"))
        (Pools.verbs w)
  in
  ( {
      metrics;
      extra;
      attempted;
      failed;
      errors = short @ durable_errors @ wrong;
      counter;
      gauge;
      obs;
      per_query = per_query w p ~at_base measured;
    },
    traced )
