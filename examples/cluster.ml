(* Sharded execution: a whole cluster in one process.

   Three ordinary servers become shards behind a consistent-hashing
   coordinator; the coordinator speaks the same line protocol as a
   single server, so the same [Client] drives both.  Every answer is
   bit-for-bit what a single node computes — the differential oracle
   fuzzes exactly that contract with its "cluster" engine.

   Run with: dune exec examples/cluster.exe *)

module Ring = Paradb_cluster.Ring
module Coordinator = Paradb_cluster.Coordinator
module Server = Paradb_server.Server
module Session = Paradb_server.Session
module Client = Paradb_server.Client
module Protocol = Paradb_server.Protocol
module Value = Paradb_relational.Value

let ok = function
  | Protocol.Ok_ { summary; payload } -> (summary, payload)
  | Protocol.Err e -> failwith e

let () =
  (* 1. Placement is a pure function of the value's bytes: the same
     ring in any process routes the same value to the same shard. *)
  let ring = Ring.create ~shards:3 () in
  List.iter
    (fun v ->
      Format.printf "owner of %s -> shard %d@."
        (Paradb_query.Fact_format.value_to_syntax v)
        (Ring.owner_of_value ring v))
    [ Value.Int 1; Value.Int 2; Value.Str "ada" ];

  (* 2. Three stock servers (ephemeral ports), one coordinator over
     them.  --replicas 2 mirrors each slice on the next shard around
     the ring. *)
  let shards =
    Array.init 3 (fun _ ->
        Server.start ~port:0 ~workers:1
          (Session.make_shared ~cache_capacity:64 ()))
  in
  let addrs =
    Array.to_list (Array.map (fun s -> ("127.0.0.1", Server.port s)) shards)
  in
  let coord =
    Coordinator.create
      { (Coordinator.default_config addrs) with replicas = 2 }
  in
  let front = Coordinator.serve coord ~port:0 ~workers:1 in
  let finally () =
    (try Server.stop front with _ -> ());
    Array.iter (fun s -> try Server.stop s with _ -> ()) shards
  in
  Fun.protect ~finally @@ fun () ->
  Client.with_connection ~timeout:10.0 ~port:(Server.port front)
  @@ fun c ->
  (* 3. LOAD parses once at the coordinator, hash-partitions every
     relation on its first column, and ships each slice (and its
     replica) as one BULK frame. *)
  let facts = Filename.temp_file "paradb_example_cluster" ".facts" in
  Out_channel.with_open_text facts (fun oc ->
      output_string oc
        "e(1, 2). e(1, 3). e(2, 3). e(3, 1). e(3, 4). e(4, 1).\n");
  Fun.protect ~finally:(fun () -> try Sys.remove facts with _ -> ())
  @@ fun () ->
  let summary, _ = ok (Client.request_line c ("LOAD g " ^ facts)) in
  Format.printf "LOAD: %s@." summary;

  (* 4. A co-partitioned star (every atom starts with X) scatters in
     one round; a 2-hop join needs the reducer exchange. *)
  let show label line =
    let summary, payload = ok (Client.request_line c line) in
    (* the ns= field is wall time; strip it so the output is stable *)
    let stable =
      let marker = " ns=" in
      let n = String.length summary and m = String.length marker in
      let rec find i =
        if i + m > n then summary
        else if String.sub summary i m = marker then String.sub summary 0 i
        else find (i + 1)
      in
      find 0
    in
    Format.printf "%s: %s@." label stable;
    List.iter (fun row -> Format.printf "  %s@." row) payload
  in
  show "scatter" "EVAL g auto ans(X, Y, Z) :- e(X, Y), e(X, Z), Y < Z.";
  show "exchange" "EVAL g auto ans(X, Z) :- e(X, Y), e(Y, Z), X != Z.";

  (* 5. Kill a shard.  With replicas=2 every slice is still reachable:
     the failed sub-request walks to the replica rank and the query
     answers identically (STATS counts the failover). *)
  Server.stop shards.(1);
  show "after killing shard 1"
    "EVAL g auto ans(X, Z) :- e(X, Y), e(Y, Z), X != Z.";
  let _, stats = ok (Client.request_line c "STATS") in
  List.iter
    (fun line ->
      if
        List.exists
          (fun p ->
            String.length line >= String.length p
            && String.sub line 0 (String.length p) = p)
          [ "cluster.shards"; "telemetry.cluster.rounds";
            "telemetry.cluster.failover" ]
      then Format.printf "  %s@." line)
    stats
