module Server = Paradb_server.Server
module Session = Paradb_server.Session
module Client = Paradb_server.Client
module Protocol = Paradb_server.Protocol
module Fact_format = Paradb_query.Fact_format

type t = {
  server : Server.t;
  client : Client.t;
  facts_path : string;
}

(* The round-trip is strictly synchronous — one LOAD, one EVAL, one
   response each — so the oracle's main loop never races the worker
   domains on the dictionary (interning happens on the server side of
   the wire). *)
let start () =
  let server =
    Server.start ~port:0 ~workers:2 (Session.make_shared ~cache_capacity:64 ())
  in
  let client =
    Client.connect ~timeout:30.0 ~retries:3 ~port:(Server.port server) ()
  in
  let facts_path = Filename.temp_file "paradb_fuzz" ".facts" in
  { server; client; facts_path }

let stop t =
  (try Client.close t.client with _ -> ());
  (try Server.stop t.server with _ -> ());
  try Sys.remove t.facts_path with _ -> ()

let eval t db q =
  Out_channel.with_open_text t.facts_path (fun oc ->
      Fact_format.print oc db);
  match
    Client.request_line t.client (Printf.sprintf "LOAD fz %s" t.facts_path)
  with
  | Protocol.Err e -> Error ("LOAD: " ^ e)
  | Protocol.Ok_ _ -> (
      match
        Client.request_line t.client
          ("EVAL fz auto " ^ Paradb_query.Cq.to_string q)
      with
      | Protocol.Err e -> Error ("EVAL: " ^ e)
      | Protocol.Ok_ { payload; _ } -> Ok payload)

(* COUNT round-trip, shared by the single-node and cluster engines:
   both answer the same one-line bare-count payload. *)
let count_round_trip client facts db q =
  Out_channel.with_open_text facts (fun oc -> Fact_format.print oc db);
  match Client.request_line client (Printf.sprintf "LOAD fz %s" facts) with
  | Protocol.Err e -> Error ("LOAD: " ^ e)
  | Protocol.Ok_ _ -> (
      match
        Client.request_line client
          ("COUNT fz auto " ^ Paradb_query.Cq.to_string q)
      with
      | Protocol.Err e -> Error ("COUNT: " ^ e)
      | Protocol.Ok_ { payload = [ n ]; _ } -> (
          match int_of_string_opt (String.trim n) with
          | Some c -> Ok c
          | None -> Error ("COUNT: malformed payload " ^ String.trim n))
      | Protocol.Ok_ _ -> Error "COUNT: expected one payload line")

let count t db q = count_round_trip t.client t.facts_path db q

(* --- sharded cluster -------------------------------------------- *)

module Coordinator = Paradb_cluster.Coordinator

(* A whole cluster in one process: [shards] ordinary servers, a
   coordinator front end over them, one client into the coordinator.
   Every component gets one worker — the oracle drives the cluster
   strictly synchronously, so extra domains would only add GC overhead
   to the fuzz loop. *)
type cluster = {
  shard_servers : Server.t array;
  front : Server.t;
  cluster_client : Client.t;
  cluster_facts : string;
}

let start_cluster ?(shards = 3) ?(replicas = 2) () =
  let shard_servers =
    Array.init shards (fun _ ->
        Server.start ~port:0 ~workers:1
          (Session.make_shared ~cache_capacity:64 ()))
  in
  let addrs =
    Array.to_list
      (Array.map (fun s -> ("127.0.0.1", Server.port s)) shard_servers)
  in
  let coord =
    Coordinator.create
      { (Coordinator.default_config addrs) with replicas; retries = 3 }
  in
  let front = Coordinator.serve coord ~port:0 ~workers:1 in
  let cluster_client =
    Client.connect ~timeout:30.0 ~retries:3 ~port:(Server.port front) ()
  in
  let cluster_facts = Filename.temp_file "paradb_fuzz_cluster" ".facts" in
  { shard_servers; front; cluster_client; cluster_facts }

let stop_cluster t =
  (try Client.close t.cluster_client with _ -> ());
  (try Server.stop t.front with _ -> ());
  Array.iter (fun s -> try Server.stop s with _ -> ()) t.shard_servers;
  try Sys.remove t.cluster_facts with _ -> ()

let eval_cluster t db q =
  Out_channel.with_open_text t.cluster_facts (fun oc ->
      Fact_format.print oc db);
  match
    Client.request_line t.cluster_client
      (Printf.sprintf "LOAD fz %s" t.cluster_facts)
  with
  | Protocol.Err e -> Error ("LOAD: " ^ e)
  | Protocol.Ok_ _ -> (
      match
        Client.request_line t.cluster_client
          ("EVAL fz auto " ^ Paradb_query.Cq.to_string q)
      with
      | Protocol.Err e -> Error ("EVAL: " ^ e)
      | Protocol.Ok_ { payload; _ } -> Ok payload)

let count_cluster t db q =
  count_round_trip t.cluster_client t.cluster_facts db q
