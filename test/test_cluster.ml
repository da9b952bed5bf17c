(* The lib/cluster subsystem: consistent-hashing ring, hash
   partitioning, BULK framing, and the coordinator end-to-end — every
   answer compared bit-for-bit against a single-node server over the
   same facts, plus the failure paths (replica failover, clean ERR with
   no replica, admission control). *)

module Ring = Paradb_cluster.Ring
module Partition = Paradb_cluster.Partition
module Coordinator = Paradb_cluster.Coordinator
module Server = Paradb_server.Server
module Client = Paradb_server.Client
module Protocol = Paradb_server.Protocol
module Session = Paradb_server.Session
module Metrics = Paradb_telemetry.Metrics
module Relation = Paradb_relational.Relation
module Database = Paradb_relational.Database
module Tuple = Paradb_relational.Tuple
module Value = Paradb_relational.Value
module Source = Paradb_query.Source
module TSet = Paradb_relational.Tuple.Set
module Segment = Paradb_storage.Segment
module Catalog = Paradb_server.Catalog
module Plan_cache = Paradb_server.Plan_cache

let contains hay sub =
  let nh = String.length hay and ns = String.length sub in
  let rec go i = i + ns <= nh && (String.sub hay i ns = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Ring *)

let test_ring_owner_range () =
  List.iter
    (fun shards ->
      let ring = Ring.create ~shards in
      for i = 0 to 999 do
        let s = Ring.owner_of_value ring (Value.int (i * 7919)) in
        if s < 0 || s >= shards then
          Alcotest.failf "owner %d out of range for %d shards" s shards
      done)
    [ 1; 2; 3; 5; 8 ]

let test_ring_deterministic () =
  let a = Ring.create ~shards:4 in
  let b = Ring.create ~shards:4 in
  for i = 0 to 999 do
    List.iter
      (fun v ->
        Alcotest.(check int)
          "same owner across ring instances"
          (Ring.owner_of_value a v) (Ring.owner_of_value b v))
      [ Value.int i; Value.str (string_of_int i) ]
  done

let test_ring_balance () =
  let shards = 4 in
  let ring = Ring.create ~shards in
  let counts = Array.make shards 0 in
  let n = 8000 in
  for i = 0 to n - 1 do
    let s = Ring.owner_of_value ring (Value.int i) in
    counts.(s) <- counts.(s) + 1
  done;
  Array.iteri
    (fun s c ->
      if c = 0 then Alcotest.failf "shard %d owns nothing" s;
      if c > n * 6 / 10 then
        Alcotest.failf "shard %d owns %d of %d values — no smoothing" s c n)
    counts

let test_ring_replica_placement () =
  let ring = Ring.create ~shards:3 in
  Alcotest.(check int) "rank 0 is the shard itself" 1
    (Ring.replica_shard ring ~shard:1 ~rank:0);
  Alcotest.(check int) "rank 1 is the successor" 2
    (Ring.replica_shard ring ~shard:1 ~rank:1);
  Alcotest.(check int) "ranks wrap around" 0
    (Ring.replica_shard ring ~shard:2 ~rank:1)

let test_ring_value_tagging () =
  (* Int 1 and Str "1" must not alias: the hash tags the value kind. *)
  Alcotest.(check bool)
    "Int and Str never alias" false
    (Ring.hash_value (Value.int 1) = Ring.hash_value (Value.str "1"))

let test_ring_validation () =
  let rejects f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  rejects (fun () -> Ring.create ~shards:0)

(* ------------------------------------------------------------------ *)
(* Partition: the satellite property — for every arity and key
   position, the slices are pairwise disjoint and their union
   round-trips the relation. *)

let tuple_set r =
  List.fold_left
    (fun acc t -> TSet.add t acc)
    TSet.empty (Relation.tuples r)

let qcheck_partition_roundtrip =
  let open QCheck in
  let value_gen =
    Gen.oneof
      [
        Gen.map Value.int (Gen.int_range (-50) 50);
        Gen.map
          (fun i -> Value.str (Printf.sprintf "v%d" i))
          (Gen.int_range 0 20);
      ]
  in
  let case_gen =
    let open Gen in
    int_range 1 4 >>= fun arity ->
    int_range 0 (arity - 1) >>= fun key ->
    int_range 1 5 >>= fun shards ->
    list_size (int_range 0 40) (array_size (return arity) value_gen)
    >>= fun rows -> return (arity, key, shards, rows)
  in
  let print (arity, key, shards, rows) =
    Printf.sprintf "arity=%d key=%d shards=%d rows=[%s]" arity key shards
      (String.concat "; " (List.map Paradb_relational.Tuple.to_string rows))
  in
  Test.make ~count:200
    ~name:"split_relation: slices disjoint, union round-trips"
    (make ~print case_gen)
    (fun (arity, key, shards, rows) ->
      let schema = List.init arity (fun i -> Printf.sprintf "c%d" i) in
      let r = Relation.create ~name:"r" ~schema rows in
      let ring = Ring.create ~shards in
      let slices = Partition.split_relation ring ~key r in
      if Array.length slices <> shards then
        Test.fail_reportf "expected %d slices, got %d" shards
          (Array.length slices);
      (* Pairwise disjoint. *)
      Array.iteri
        (fun i si ->
          Array.iteri
            (fun j sj ->
              if i < j then
                let inter = TSet.inter (tuple_set si) (tuple_set sj) in
                if not (TSet.is_empty inter) then
                  Test.fail_reportf "slices %d and %d overlap" i j)
            slices)
        slices;
      (* Union round-trips. *)
      let union =
        Array.fold_left
          (fun acc s -> TSet.union acc (tuple_set s))
          TSet.empty slices
      in
      if not (TSet.equal union (tuple_set r)) then
        Test.fail_reportf "union of slices differs from the relation";
      (* Placement follows the ring. *)
      Array.iteri
        (fun s slice ->
          Relation.iter
            (fun t ->
              if Ring.owner_of_value ring t.(key) <> s then
                Test.fail_reportf "row on shard %d but ring disagrees" s)
            slice)
        slices;
      true)

let test_partition_split_keeps_all_relations () =
  let db =
    Database.empty
    |> Database.add
         (Relation.create ~name:"e" ~schema:[ "a"; "b" ]
            (List.map Tuple.of_ints [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] ]))
    |> Database.add
         (Relation.create ~name:"lonely" ~schema:[ "a" ]
            [ Tuple.of_ints [ 7 ] ])
  in
  let ring = Ring.create ~shards:3 in
  let slices = Partition.split ring db in
  Array.iter
    (fun slice ->
      (* Every slice names every relation, empty or not — the
         coordinator relies on this to treat missing-on-shard as an
         empty contribution. *)
      List.iter
        (fun name ->
          match Database.find_opt slice name with
          | Some _ -> ()
          | None -> Alcotest.failf "slice lost relation %s" name)
        [ "e"; "lonely" ])
    slices;
  let total =
    Array.fold_left
      (fun acc slice ->
        acc
        + Relation.cardinality (Option.get (Database.find_opt slice "e")))
      0 slices
  in
  Alcotest.(check int) "e rows conserved" 3 total

(* ------------------------------------------------------------------ *)
(* Coordinator end-to-end *)

let shard_shared () = Session.make_shared ~cache_capacity:16 ()

let with_shards shareds f =
  let servers = Array.map (Server.start ~port:0 ~workers:1) shareds in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun s -> try Server.stop s with _ -> ()) servers)
    (fun () -> f servers)

let with_servers n f = with_shards (Array.init n (fun _ -> shard_shared ())) f

(* [shareds], when given, are the shards' server-wide states, so a test
   can write to a shard behind the coordinator's back or read its
   catalog and plan cache. *)
let with_cluster ?(shards = 2) ?(replicas = 1) ?(tweak = fun c -> c) ?shareds
    f =
  let shareds =
    match shareds with
    | Some a -> a
    | None -> Array.init shards (fun _ -> shard_shared ())
  in
  with_shards shareds @@ fun shard_servers ->
  let addrs =
    Array.to_list
      (Array.map (fun s -> ("127.0.0.1", Server.port s)) shard_servers)
  in
  let coord =
    Coordinator.create (tweak { (Coordinator.default_config addrs) with replicas })
  in
  let front = Coordinator.serve coord ~port:0 ~workers:1 in
  Fun.protect ~finally:(fun () -> try Server.stop front with _ -> ())
  @@ fun () ->
  Client.with_connection ~timeout:30.0 ~retries:3 ~port:(Server.port front)
    (fun client -> f ~shard_servers ~client)

(* ------------------------------------------------------------------ *)
(* One framing script, two front ends: a single-node session and a
   coordinator over one shard answer through the same Frontend *)

(* Runs the script through [on_line]; [batch] inspects each BULK
   batch's summary.  Returns what the two front ends must agree on: the
   malformed line's ERR and the CHECK and EXPLAIN answers. *)
let bulk_framing_script ~batch on_line =
  let expect_silent line =
    match on_line line with
    | None, `Continue -> ()
    | Some _, _ -> Alcotest.failf "%s: expected no response mid-BULK" line
    | None, `Quit -> Alcotest.failf "%s: unexpected quit" line
  in
  let expect_ok line =
    match on_line line with
    | Some (Protocol.Ok_ { summary; payload }), `Continue -> (summary, payload)
    | Some (Protocol.Err e), _ -> Alcotest.failf "%s: ERR %s" line e
    | _ -> Alcotest.failf "%s: expected a response" line
  in
  expect_silent "BULK g 3";
  expect_silent "e(1, 2).";
  expect_silent "e(2, 3).";
  batch (fst (expect_ok "e(1, 2)."));
  (* Duplicate fact merged under set semantics: 2 tuples, queryable. *)
  Alcotest.(check int) "rows after BULK" 2
    (List.length (snd (expect_ok "EVAL g auto ans(X, Y) :- e(X, Y).")));
  (* A zero-count frame answers immediately. *)
  batch (fst (expect_ok "BULK g 0"));
  let malformed =
    match on_line "EVAL g auto" with
    | Some (Protocol.Err e), `Continue -> e
    | _ -> Alcotest.fail "malformed line: expected ERR"
  in
  let q = "ans(X, Z) :- e(X, Y), e(Y, Z), X != Z." in
  let check = expect_ok ("CHECK " ^ q) in
  let explain = expect_ok ("EXPLAIN " ^ q) in
  (match on_line "QUIT" with
  | Some (Protocol.Ok_ _), `Quit -> ()
  | _ -> Alcotest.fail "QUIT: expected a farewell and `Quit");
  (malformed, check, explain)

let test_bulk_framing () =
  let s = Session.create (Session.make_shared ~cache_capacity:4 ()) in
  let single =
    bulk_framing_script (Session.handle_line s) ~batch:(fun summary ->
        Alcotest.(check bool)
          ("batch summary: " ^ summary)
          true
          (String.starts_with ~prefix:"bulk" summary))
  in
  with_servers 1 @@ fun shard ->
  let coord =
    Coordinator.create
      (Coordinator.default_config [ ("127.0.0.1", Server.port shard.(0)) ])
  in
  let h = Coordinator.handler coord () in
  Fun.protect ~finally:h.Server.on_close @@ fun () ->
  let cluster =
    bulk_framing_script h.Server.on_line ~batch:(fun summary ->
        Alcotest.(check bool)
          ("batch summary: " ^ summary)
          true (contains summary "shards=1"))
  in
  let malformed, check, explain = single
  and malformed', check', explain' = cluster in
  let answer = Alcotest.(pair string (list string)) in
  Alcotest.(check string) "malformed line: same ERR" malformed malformed';
  Alcotest.check answer "CHECK answer" check check';
  Alcotest.check answer "EXPLAIN answer" explain explain'

let facts =
  [
    "FACT g e(1, 2).";
    "FACT g e(1, 3).";
    "FACT g e(2, 3).";
    "FACT g e(3, 1).";
    "FACT g f(2, 10).";
    "FACT g f(3, 30).";
    "FACT g f(3, 31).";
  ]

let request_ok client line =
  match Client.request_line client line with
  | Protocol.Ok_ { summary; payload } -> (summary, payload)
  | Protocol.Err e -> Alcotest.failf "%s: ERR %s" line e

let load_facts client =
  List.iter
    (fun line ->
      match Client.request_line client line with
      | Protocol.Ok_ _ -> ()
      | Protocol.Err e -> Alcotest.failf "%s: ERR %s" line e)
    facts

let queries =
  [
    (* scatter: every atom starts with X — co-partitioned *)
    "ans(X, Y) :- e(X, Y), e(X, Z), Y != Z.";
    (* exchange: join variable sits in different positions *)
    "ans(X, Z) :- e(X, Y), f(Y, Z).";
    (* constants and constraints *)
    "ans(Y) :- e(1, Y), Y < 3.";
    (* boolean *)
    "ans() :- e(X, Y), f(Y, Z).";
    (* empty answer *)
    "ans(X, Y) :- e(X, Y), X < Y, Y < X.";
    (* single atom, full scan *)
    "ans(A, B) :- f(A, B).";
  ]

let eval_on client q =
  match Client.request_line client ("EVAL g auto " ^ q) with
  | Protocol.Ok_ { payload; _ } -> Ok payload
  | Protocol.Err e -> Error e

let test_cluster_matches_single_node () =
  with_servers 1 @@ fun single ->
  Client.with_connection ~timeout:30.0 ~port:(Server.port single.(0))
  @@ fun single_client ->
  load_facts single_client;
  with_cluster ~shards:3 ~replicas:1 @@ fun ~shard_servers:_ ~client ->
  load_facts client;
  List.iter
    (fun q ->
      match (eval_on single_client q, eval_on client q) with
      | Ok expected, Ok got ->
          Alcotest.(check (list string)) ("payload: " ^ q) expected got
      | Error e, _ -> Alcotest.failf "%s: single-node ERR %s" q e
      | _, Error e -> Alcotest.failf "%s: cluster ERR %s" q e)
    queries

let test_cluster_load_file_matches_single_node () =
  let path = Filename.temp_file "paradb_test_cluster" ".facts" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with _ -> ())
  @@ fun () ->
  Out_channel.with_open_text path (fun oc ->
      output_string oc "e(1, 2). e(2, 3). e(3, 4). e(4, 1).\n";
      output_string oc "f(2, 20). f(4, 40). g(20).\n");
  let load client =
    match Client.request_line client ("LOAD g " ^ path) with
    | Protocol.Ok_ { summary; _ } -> summary
    | Protocol.Err e -> Alcotest.failf "LOAD: %s" e
  in
  with_servers 1 @@ fun single ->
  Client.with_connection ~timeout:30.0 ~port:(Server.port single.(0))
  @@ fun single_client ->
  ignore (load single_client);
  with_cluster ~shards:2 ~replicas:2 @@ fun ~shard_servers:_ ~client ->
  let summary = load client in
  Alcotest.(check bool)
    ("LOAD summary names shards: " ^ summary)
    true (contains summary "shards=2");
  List.iter
    (fun q ->
      match (eval_on single_client q, eval_on client q) with
      | Ok expected, Ok got ->
          Alcotest.(check (list string)) ("payload: " ^ q) expected got
      | Error e, _ -> Alcotest.failf "%s: single-node ERR %s" q e
      | _, Error e -> Alcotest.failf "%s: cluster ERR %s" q e)
    [
      "ans(X, Z) :- e(X, Y), e(Y, Z).";
      "ans(X, W) :- e(X, Y), f(Y, Z), g(Z), e(W, X).";
    ]

let test_cluster_gather_payload_parses () =
  with_cluster ~shards:2 @@ fun ~shard_servers:_ ~client ->
  load_facts client;
  match Client.request_line client "GATHER g ans(X, Y) :- e(X, Y)." with
  | Protocol.Err e -> Alcotest.failf "GATHER: %s" e
  | Protocol.Ok_ { payload; _ } -> (
      Alcotest.(check int) "gathered rows" 4 (List.length payload);
      match Source.parse_facts (String.concat "\n" payload) with
      | Error e -> Alcotest.failf "payload is not fact syntax: %s" e
      | Ok db -> (
          match Database.find_opt db "ans" with
          | Some r -> Alcotest.(check int) "parsed rows" 4 (Relation.cardinality r)
          | None -> Alcotest.fail "payload lost the head relation"))

(* The coordinator's final EVAL and GATHER answers run the code-level
   encoder over the unioned shard answers; they must equal the decode,
   sort and print definitions it replaced, byte for byte, on values
   whose text, code and value orders disagree. *)
let test_coordinator_lines_match_reference () =
  let facts =
    [
      "m(1, -3)."; "m(2, \"10\")."; "m(3, \"a, b\")."; "m(4, \"\").";
      "m(5, x)."; "m(-6, 7)."; "m(7, \"(p)\")."; "m(\"8\", 8).";
    ]
  in
  let answer =
    match Source.parse_facts (String.concat "\n" facts) with
    | Ok db -> Relation.with_name "ans" (Database.find db "m")
    | Error e -> Alcotest.fail e
  in
  with_cluster ~shards:2 @@ fun ~shard_servers:_ ~client ->
  List.iter
    (fun f ->
      match Client.request_line client ("FACT g " ^ f) with
      | Protocol.Ok_ _ -> ()
      | Protocol.Err e -> Alcotest.failf "FACT %s: %s" f e)
    facts;
  let q = "ans(X, Y) :- m(X, Y)." in
  let payload line =
    match Client.request_line client line with
    | Protocol.Ok_ { payload; _ } -> payload
    | Protocol.Err e -> Alcotest.failf "%s: %s" line e
  in
  Alcotest.(check (list string)) "EVAL lines"
    (Test_support.sorted_rows answer)
    (payload ("EVAL g auto " ^ q));
  Alcotest.(check (list string)) "GATHER lines"
    (Test_support.sorted_fact_lines answer)
    (payload ("GATHER g " ^ q))

let test_cluster_errors () =
  with_cluster ~shards:2 @@ fun ~shard_servers:_ ~client ->
  load_facts client;
  let expect_err line sub =
    match Client.request_line client line with
    | Protocol.Ok_ _ -> Alcotest.failf "%s: expected ERR" line
    | Protocol.Err e ->
        if not (contains e sub) then
          Alcotest.failf "%s: ERR %S lacks %S" line e sub
  in
  expect_err "EVAL nope auto ans(X) :- e(X, Y)." "no database";
  expect_err "EVAL g auto ans(X) :- r(X, Y)." "missing";
  expect_err "EVAL g frobnicate ans(X) :- e(X, Y)." "unknown engine";
  expect_err "EVAL g auto ans(X) :- e(X Y)." "parse"

let test_cluster_stats () =
  with_cluster ~shards:2 @@ fun ~shard_servers:_ ~client ->
  load_facts client;
  match Client.request_line client "STATS" with
  | Protocol.Err e -> Alcotest.failf "STATS: %s" e
  | Protocol.Ok_ { payload; _ } ->
      let has sub =
        if not (List.exists (fun l -> contains l sub) payload)
        then Alcotest.failf "STATS payload lacks %S" sub
      in
      has "cluster.shards 2";
      has "db.g 7";
      has "db.g.relations 2"

(* With [max_inflight = Some 1], an EVAL arriving while another is in
   flight answers [ERR admission-limited].  Each shard serves one
   session at a time and [a]'s pooled shard connections hold them, so
   once [b]'s EVAL is admitted it waits on the shards until [a]
   disconnects: [a] re-asks until it finds [b]'s EVAL in flight. *)
let test_cluster_admission_limit () =
  with_servers 2 @@ fun shards ->
  let coord =
    Coordinator.create
      {
        (Coordinator.default_config
           (Array.to_list
              (Array.map (fun s -> ("127.0.0.1", Server.port s)) shards)))
        with
        max_inflight = Some 1;
      }
  in
  let eval = "EVAL g auto ans(X, Y) :- e(X, Y)." in
  let limited = function
    | Some (Protocol.Err e), _ -> contains e "admission-limited"
    | _ -> false
  in
  let a = Coordinator.handler coord () in
  let b = ref None in
  let rejected =
    Fun.protect ~finally:a.Server.on_close @@ fun () ->
    List.iter
      (fun line ->
        match a.Server.on_line line with
        | Some (Protocol.Ok_ _), _ -> ()
        | _ -> Alcotest.failf "%s failed" line)
      facts;
    b :=
      Some
        (Domain.spawn (fun () ->
             let h = Coordinator.handler coord () in
             Fun.protect ~finally:h.Server.on_close @@ fun () ->
             let rec admitted () =
               let r = h.Server.on_line eval in
               if limited r then (Unix.sleepf 0.001; admitted ()) else r
             in
             admitted ()));
    let rec probe n =
      match a.Server.on_line eval with
      | r when limited r -> r
      | Some (Protocol.Ok_ _), _ when n > 0 ->
          Unix.sleepf 0.01;
          probe (n - 1)
      | _ -> Alcotest.fail "no EVAL was ever found in flight"
    in
    probe 1000
  in
  (match rejected with
  | Some (Protocol.Err e), _ ->
      Alcotest.(check bool) ("admission error: " ^ e) true
        (contains e "(max 1)")
  | _ -> assert false);
  match Domain.join (Option.get !b) with
  | Some (Protocol.Ok_ _), _ -> ()
  | _ -> Alcotest.fail "the EVAL held in flight failed"

let test_cluster_failover () =
  let m_failover = Metrics.counter "cluster.failover" in
  with_cluster ~shards:2 ~replicas:2 @@ fun ~shard_servers ~client ->
  load_facts client;
  let q = "ans(X, Z) :- e(X, Y), f(Y, Z)." in
  let before =
    match eval_on client q with
    | Ok p -> p
    | Error e -> Alcotest.failf "pre-failure EVAL: %s" e
  in
  let failovers = Metrics.counter_value m_failover in
  Server.stop shard_servers.(1);
  (match eval_on client q with
  | Ok after ->
      Alcotest.(check (list string)) "answers survive a shard loss" before
        after
  | Error e -> Alcotest.failf "post-failure EVAL: %s" e);
  Alcotest.(check bool) "failover counted" true
    (Metrics.counter_value m_failover > failovers)

let count_on client q =
  match Client.request_line client ("COUNT g auto " ^ q) with
  | Protocol.Ok_ { payload; _ } -> Ok payload
  | Protocol.Err e -> Error e

(* COUNT payloads (one bare-count line) must be bit-identical to a
   single-node server's across both distribution strategies: the query
   list covers scatter (co-partitioned), exchange (misaligned join
   variable), constants, boolean heads, and empty answers. *)
let test_cluster_count_matches_single_node () =
  with_servers 1 @@ fun single ->
  Client.with_connection ~timeout:30.0 ~port:(Server.port single.(0))
  @@ fun single_client ->
  load_facts single_client;
  with_cluster ~shards:3 ~replicas:1 @@ fun ~shard_servers:_ ~client ->
  load_facts client;
  List.iter
    (fun q ->
      match (count_on single_client q, count_on client q) with
      | Ok expected, Ok got ->
          Alcotest.(check (list string)) ("count payload: " ^ q) expected got;
          (match got with
          | [ n ] ->
              if int_of_string_opt n = None then
                Alcotest.failf "%s: payload %S is not an int" q n
          | _ -> Alcotest.failf "%s: expected one payload line" q)
      | Error e, _ -> Alcotest.failf "%s: single-node ERR %s" q e
      | _, Error e -> Alcotest.failf "%s: cluster ERR %s" q e)
    queries

(* COUNT overflow at every level of the cluster: shards whose own
   counts overflow answer ERR count-overflow and the coordinator
   forwards it as is (scatter); the coordinator's own re-join count
   overflows the same way (exchange); and shard counts that each fit
   but whose sum does not are caught in the shard sum. *)
let load_text client text =
  let path = Test_support.write_temp_facts text in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  ignore (request_ok client ("LOAD g " ^ path))

let star_query leaves =
  Printf.sprintf "ans() :- %s."
    (String.concat ", " (List.init leaves (Printf.sprintf "e(X, Y%d)")))

let expect_overflow client q =
  match count_on client q with
  | Error e -> Alcotest.(check string) ("COUNT " ^ q) "count-overflow" e
  | Ok p -> Alcotest.failf "COUNT %s answered %s" q (String.concat " " p)

let test_cluster_count_overflow () =
  let shareds = Array.init 2 (fun _ -> shard_shared ()) in
  with_cluster ~shards:2 ~replicas:1 ~shareds @@ fun ~shard_servers:_ ~client ->
  load_text client (Test_support.complete_graph_facts 40);
  expect_overflow client (star_query 12);
  expect_overflow client (Test_support.path_query 12);
  (* 18 leaves over 10 targets: 10^18 per centre, 2 centres on one
     shard and 3 on the other — each shard's count fits, the sum
     (5 * 10^18 > max_int) does not *)
  let ring = Ring.create ~shards:2 in
  let centres shard n =
    List.filteri
      (fun i _ -> i < n)
      (List.filter
         (fun x -> Ring.owner_of_value ring (Value.int x) = shard)
         (List.init 10_000 Fun.id))
  in
  load_text client
    (String.concat "\n"
       (List.concat_map
          (fun x -> List.init 10 (Printf.sprintf "e(%d, %d)." x))
          (centres 0 2 @ centres 1 3)));
  let q = star_query 18 in
  Array.iter
    (fun shared ->
      match Session.handle_line (Session.create shared) ("COUNT g auto " ^ q) with
      | Some (Protocol.Ok_ _), _ -> ()
      | Some (Protocol.Err e), _ -> Alcotest.failf "a shard's own count failed: %s" e
      | None, _ -> Alcotest.fail "no answer")
    shareds;
  expect_overflow client q

let test_cluster_count_rejects_fpt () =
  let line = "COUNT g fpt ans(X, Y) :- e(X, Y)." in
  let s = Session.create (Session.make_shared ~cache_capacity:4 ()) in
  ignore (Session.handle_line s "FACT g e(1, 2).");
  let single =
    match Session.handle_line s line with
    | Some (Protocol.Err e), `Continue -> e
    | _ -> Alcotest.fail "expected a session ERR for COUNT with fpt"
  in
  with_cluster ~shards:2 @@ fun ~shard_servers:_ ~client ->
  load_facts client;
  match Client.request_line client line with
  | Protocol.Ok_ _ -> Alcotest.fail "expected ERR for COUNT with fpt"
  | Protocol.Err e ->
      Alcotest.(check bool) ("fpt rejection: " ^ e) true
        (contains e "cannot count");
      Alcotest.(check string) "the session's refusal, byte for byte" single e

(* A bodiless query touches no relation: the coordinator plans and runs
   it like a single node, on the empty database, without a shard
   request. *)
let test_cluster_ground_queries () =
  let m_out = Metrics.counter "cluster.bytes_out" in
  with_servers 1 @@ fun single ->
  Client.with_connection ~timeout:30.0 ~port:(Server.port single.(0))
  @@ fun single_client ->
  load_facts single_client;
  with_cluster ~shards:2 @@ fun ~shard_servers:_ ~client ->
  load_facts client;
  List.iter
    (fun q ->
      List.iter
        (fun verb ->
          let line = Printf.sprintf "%s g auto %s" verb q in
          let _, expected = request_ok single_client line in
          let before = Metrics.counter_value m_out in
          let _, got = request_ok client line in
          Alcotest.(check (list string)) line expected got;
          Alcotest.(check int) (line ^ ": no shard request") before
            (Metrics.counter_value m_out))
        [ "EVAL"; "COUNT" ])
    [ {|ans(1, "a") :- 1 < 2.|}; "ans(1) :- 2 < 1." ]

(* The coordinator's requests go through the Frontend, so they are
   timed per verb.  Its shards see only SHIP here (both queries take
   the exchange), so the EVAL, COUNT and invalid deltas are the
   coordinator's own. *)
let test_cluster_verb_histograms () =
  let count verb =
    (Metrics.histogram_read
       (Metrics.histogram (Printf.sprintf "server.verb.%s.ns" verb)))
      .Metrics.count
  in
  let verbs = [ "eval"; "count"; "invalid" ] in
  with_servers 2 @@ fun shards ->
  let coord =
    Coordinator.create
      (Coordinator.default_config
         (Array.to_list
            (Array.map (fun s -> ("127.0.0.1", Server.port s)) shards)))
  in
  let h = Coordinator.handler coord () in
  Fun.protect ~finally:h.Server.on_close @@ fun () ->
  let answer line =
    match h.Server.on_line line with
    | Some r, `Continue -> r
    | _ -> Alcotest.failf "%s: expected a response" line
  in
  List.iter
    (fun line ->
      match answer line with
      | Protocol.Ok_ _ -> ()
      | Protocol.Err e -> Alcotest.failf "%s: ERR %s" line e)
    facts;
  let before = List.map count verbs in
  let q = "ans(X, Z) :- e(X, Y), f(Y, Z)." in
  List.iter
    (fun line ->
      match answer line with
      | Protocol.Ok_ _ -> ()
      | Protocol.Err e -> Alcotest.failf "%s: ERR %s" line e)
    [ "EVAL g auto " ^ q; "COUNT g auto " ^ q ];
  (match answer "EVAL g" with
  | Protocol.Err _ -> ()
  | Protocol.Ok_ _ -> Alcotest.fail "malformed line answered OK");
  List.iter2
    (fun verb b ->
      Alcotest.(check int) ("server.verb." ^ verb ^ ".ns") (b + 1) (count verb))
    verbs before

(* Shard loss with a surviving replica: COUNT fails over and keeps
   returning the pre-failure totals on both strategies. *)
let test_cluster_count_failover () =
  let m_failover = Metrics.counter "cluster.failover" in
  with_cluster ~shards:2 ~replicas:2 @@ fun ~shard_servers ~client ->
  load_facts client;
  let scatter_q = "ans(X, Y) :- e(X, Y), e(X, Z), Y != Z." in
  let exchange_q = "ans(X, Z) :- e(X, Y), f(Y, Z)." in
  let before q =
    match count_on client q with
    | Ok p -> p
    | Error e -> Alcotest.failf "pre-failure COUNT %s: %s" q e
  in
  let scatter_before = before scatter_q in
  let exchange_before = before exchange_q in
  let failovers = Metrics.counter_value m_failover in
  Server.stop shard_servers.(1);
  (match count_on client scatter_q with
  | Ok after ->
      Alcotest.(check (list string)) "scatter count survives a shard loss"
        scatter_before after
  | Error e -> Alcotest.failf "post-failure scatter COUNT: %s" e);
  (match count_on client exchange_q with
  | Ok after ->
      Alcotest.(check (list string)) "exchange count survives a shard loss"
        exchange_before after
  | Error e -> Alcotest.failf "post-failure exchange COUNT: %s" e);
  Alcotest.(check bool) "failover counted" true
    (Metrics.counter_value m_failover > failovers)

let test_cluster_shard_loss_without_replica () =
  with_cluster ~shards:2 ~replicas:1 @@ fun ~shard_servers ~client ->
  load_facts client;
  Server.stop shard_servers.(1);
  (match eval_on client "ans(X, Y) :- e(X, Y)." with
  | Ok _ -> Alcotest.fail "expected a clean ERR with no replica left"
  | Error e ->
      Alcotest.(check bool) ("shard-down error: " ^ e) true
        (contains e "shard 1"
        && contains e "unreachable"));
  (* a write whose primary is down fails with the same clean ERR, not
     the server loop's catch-all *)
  let path = Test_support.write_temp_facts "e(1, 2). e(2, 3). e(3, 4)." in
  Fun.protect ~finally:(fun () -> try Sys.remove path with _ -> ())
  @@ fun () ->
  match Client.request_line client ("LOAD g " ^ path) with
  | Protocol.Ok_ _ -> Alcotest.fail "LOAD with a dead primary answered OK"
  | Protocol.Err e ->
      Alcotest.(check bool) ("LOAD shard-down error: " ^ e) true
        (contains e "shard 1" && contains e "unreachable")

(* ------------------------------------------------------------------ *)
(* Replica self-healing: miss accounting, hinted handoff, REPAIR *)

(* Smallest non-negative int whose first-column placement is [shard],
   under the same ring parameters the coordinator uses. *)
let value_on_shard ~shards ~shard =
  let ring = Ring.create ~shards in
  let rec go i =
    if i > 10_000 then Alcotest.fail "no value maps to the shard"
    else if Ring.owner_of_value ring (Value.int i) = shard then i
    else go (i + 1)
  in
  go 0

(* [facts] all land on shard 0 of two; [load_spread] adds rows owned by
   shard 1, so both shards hold a slice of every relation of [g] (a
   shard missing a relation answers ERR, which holds nothing). *)
let load_spread client =
  load_facts client;
  let v = value_on_shard ~shards:2 ~shard:1 in
  List.iter
    (fun fact -> ignore (request_ok client (Printf.sprintf fact v)))
    [ "FACT g e(%d, 2)."; "FACT g f(%d, 20)." ]

(* A write whose primary is reachable succeeds even when the replica's
   shard is down — counted on cluster.write.replica_miss. *)
let test_cluster_replica_miss_counted () =
  let m_miss = Metrics.counter "cluster.write.replica_miss" in
  with_cluster ~shards:2 ~replicas:2 @@ fun ~shard_servers ~client ->
  Server.stop shard_servers.(1);
  let before = Metrics.counter_value m_miss in
  let v = value_on_shard ~shards:2 ~shard:0 in
  let summary, _ =
    request_ok client (Printf.sprintf "FACT g e(%d, 100)." v)
  in
  Alcotest.(check bool) ("fact acked: " ^ summary) true (contains summary "shard");
  Alcotest.(check bool) "replica miss counted" true
    (Metrics.counter_value m_miss > before)

(* With a hints dir, the missed replica write is journaled and replayed
   once the shard is back: DIGEST then sees identical replicas. *)
let test_cluster_hinted_handoff () =
  let m_journaled = Metrics.counter "cluster.hints.journaled" in
  let m_replayed = Metrics.counter "cluster.hints.replayed" in
  let hints_dir = Filename.temp_file "paradb_test_hints" "" in
  Sys.remove hints_dir;
  let rec remove_tree path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter
          (fun f -> remove_tree (Filename.concat path f))
          (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> remove_tree hints_dir) @@ fun () ->
  with_cluster ~shards:2 ~replicas:2
    ~tweak:(fun c -> { c with Coordinator.hints_dir = Some hints_dir })
  @@ fun ~shard_servers ~client ->
  let port1 = Server.port shard_servers.(1) in
  Server.stop shard_servers.(1);
  let v = value_on_shard ~shards:2 ~shard:0 in
  let journaled = Metrics.counter_value m_journaled in
  ignore (request_ok client (Printf.sprintf "FACT g e(%d, 100)." v));
  ignore (request_ok client (Printf.sprintf "FACT g e(%d, 200)." v));
  Alcotest.(check bool) "hints journaled" true
    (Metrics.counter_value m_journaled >= journaled + 2);
  (* the shard returns (same port, empty state is fine: it missed only
     these hinted writes) and the next write replays the journal first *)
  let revived =
    Server.start ~port:port1 ~workers:1
      (Session.make_shared ~cache_capacity:16 ())
  in
  Fun.protect ~finally:(fun () -> try Server.stop revived with _ -> ())
  @@ fun () ->
  let replayed = Metrics.counter_value m_replayed in
  ignore (request_ok client (Printf.sprintf "FACT g e(%d, 300)." v));
  Alcotest.(check bool) "hints replayed" true
    (Metrics.counter_value m_replayed >= replayed + 2);
  let summary, _ = request_ok client "DIGEST g" in
  Alcotest.(check bool)
    ("replicas converge after handoff: " ^ summary)
    true
    (contains summary "divergent=0")

(* Losing a shard's disk entirely (restart with empty state) diverges
   the replicas; DIGEST reports it and REPAIR re-ships the union of the
   readable ranks, after which DIGEST is clean and answers match the
   pre-crash ones. *)
let test_cluster_repair_converges () =
  let m_divergent = Metrics.counter "cluster.replica.divergent" in
  let m_reshipped = Metrics.counter "cluster.repair.reshipped" in
  with_cluster ~shards:2 ~replicas:2 @@ fun ~shard_servers ~client ->
  load_facts client;
  let q = "ans(X, Z) :- e(X, Y), f(Y, Z)." in
  let before =
    match eval_on client q with
    | Ok p -> p
    | Error e -> Alcotest.failf "pre-crash EVAL: %s" e
  in
  let port1 = Server.port shard_servers.(1) in
  Server.stop shard_servers.(1);
  let revived =
    Server.start ~port:port1 ~workers:1
      (Session.make_shared ~cache_capacity:16 ())
  in
  Fun.protect ~finally:(fun () -> try Server.stop revived with _ -> ())
  @@ fun () ->
  let divergent = Metrics.counter_value m_divergent in
  let summary, _ = request_ok client "DIGEST g" in
  Alcotest.(check bool)
    ("amnesiac shard detected: " ^ summary)
    true
    (not (contains summary "divergent=0"));
  Alcotest.(check bool) "divergence counted" true
    (Metrics.counter_value m_divergent > divergent);
  let reshipped = Metrics.counter_value m_reshipped in
  let summary, _ = request_ok client "REPAIR g" in
  Alcotest.(check bool)
    ("repair re-shipped: " ^ summary)
    true
    (contains summary "repaired" && Metrics.counter_value m_reshipped > reshipped);
  let summary, _ = request_ok client "DIGEST g" in
  Alcotest.(check bool)
    ("replicas converge after repair: " ^ summary)
    true
    (contains summary "divergent=0");
  match eval_on client q with
  | Ok after ->
      Alcotest.(check (list string)) "answers survive disk loss + repair"
        before after
  | Error e -> Alcotest.failf "post-repair EVAL: %s" e

(* ------------------------------------------------------------------ *)
(* SHIP: the segment-encoded gather the coordinator reads *)

let request client line =
  match Client.request_line client line with
  | Protocol.Ok_ { payload; _ } -> Ok payload
  | Protocol.Err e -> Error e

(* A GATHER payload's rows and a SHIP payload's rows, as sorted tuple
   lists over the head relation. *)
let gathered_rows payload =
  match Source.parse_facts (String.concat "\n" payload) with
  | Error e -> Alcotest.failf "GATHER payload is not fact syntax: %s" e
  | Ok db -> (
      match Database.find_opt db "ans" with
      | Some r -> List.sort Tuple.compare (Relation.tuples r)
      | None -> [])

let shipped_rows payload =
  match payload with
  | [ hex ] ->
      let seg =
        Segment.decode ~source:"test" (Segment.of_hex ~source:"test" hex)
      in
      Alcotest.(check string) "shipped relation name" "ans" (Segment.name seg);
      List.sort Tuple.compare (Relation.tuples (Segment.to_relation seg))
  | _ -> Alcotest.failf "SHIP: %d payload lines" (List.length payload)

let ship_queries =
  [
    "ans(X, Y) :- e(X, Y).";
    "ans(X, Y) :- e(X, Y), e(X, Z), Y != Z.";
    "ans(X, Z) :- e(X, Y), f(Y, Z).";
    "ans(X, Y) :- e(X, Y), X < Y, Y < X.";
  ]

let check_ship_matches_gather label client =
  List.iter
    (fun q ->
      match
        (request client ("GATHER g " ^ q), request client ("SHIP g " ^ q))
      with
      | Ok g, Ok p ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s: SHIP rows = GATHER rows for %s" label q)
            (List.map Tuple.to_string (gathered_rows g))
            (List.map Tuple.to_string (shipped_rows p))
      | Error a, Error b ->
          Alcotest.(check string) (label ^ ": same refusal") a b
      | _ -> Alcotest.failf "%s: GATHER and SHIP disagree on %s" label q)
    ship_queries

(* A shard is a stock server; its one worker is taken by the
   coordinator's pooled connection, so the shard side is checked on a
   standalone server holding the same facts. *)
let test_ship_matches_gather () =
  with_servers 1 @@ fun single ->
  Client.with_connection ~timeout:30.0 ~port:(Server.port single.(0))
  @@ fun single_client ->
  load_facts single_client;
  check_ship_matches_gather "shard" single_client;
  with_cluster ~shards:2 @@ fun ~shard_servers:_ ~client ->
  load_facts client;
  check_ship_matches_gather "coordinator" client

(* A shard process that speaks the protocol through a real session but
   damages its SHIP answers on demand: one flipped hex digit, a
   [truncated=true] marker with no payload, or an [unchanged] answer
   naming a snapshot the shard never had.  It drops every [if=], so
   each SHIP it answers honestly ships a payload the damage can land
   on. *)
let damaging_handler shared mode () =
  let s = Session.create shared in
  let is_ship line =
    String.length line >= 4
    && String.uppercase_ascii (String.sub line 0 4) = "SHIP"
  in
  let unconditional line =
    match Protocol.parse_request line with
    | Ok (Protocol.Ship { db; query; if_snap = Some _ }) ->
        Protocol.request_to_line (Protocol.Ship { db; query; if_snap = None })
    | _ -> line
  in
  {
    Server.on_line =
      (fun line ->
        match (Session.handle_line s (unconditional line), !mode) with
        | (Some (Protocol.Ok_ { summary; payload = [ hex ] }), k), `Flip
          when is_ship line ->
            let b = Bytes.of_string hex in
            let i = Bytes.length b / 2 in
            Bytes.set b i (if Bytes.get b i = '0' then '1' else '0');
            (Some (Protocol.Ok_ { summary; payload = [ Bytes.to_string b ] }), k)
        | (Some (Protocol.Ok_ { summary; _ }), k), `Truncate when is_ship line
          ->
            ( Some
                (Protocol.Ok_
                   { summary = summary ^ " truncated=true"; payload = [] }),
              k )
        | (_, k), `Unchanged when is_ship line ->
            ( Some
                (Protocol.Ok_
                   { summary = "shipped unchanged snap=0.0"; payload = [] }),
              k )
        | r, _ -> r);
    on_close = ignore;
  }

let test_damaged_ship_payload () =
  let mode = ref `Honest in
  let fake =
    Server.start_handler ~port:0 ~workers:1
      ~handler:
        (damaging_handler (Session.make_shared ~cache_capacity:16 ()) mode)
      ()
  in
  Fun.protect ~finally:(fun () -> try Server.stop fake with _ -> ())
  @@ fun () ->
  with_servers 1 @@ fun real ->
  let coord =
    Coordinator.create
      (Coordinator.default_config
         [ ("127.0.0.1", Server.port real.(0)); ("127.0.0.1", Server.port fake) ])
  in
  let front = Coordinator.serve coord ~port:0 ~workers:1 in
  Fun.protect ~finally:(fun () -> try Server.stop front with _ -> ())
  @@ fun () ->
  Client.with_connection ~timeout:30.0 ~port:(Server.port front) @@ fun client ->
  let path =
    Test_support.write_temp_facts
      (String.concat " "
         (List.init 200 (fun i ->
              Printf.sprintf "e(%d, %d). f(%d, %d)." i (i + 1) i (10 * i))))
  in
  Fun.protect ~finally:(fun () -> try Sys.remove path with _ -> ())
  @@ fun () ->
  ignore (request_ok client ("LOAD g " ^ path));
  let q = "ans(X, Z) :- e(X, Y), f(Y, Z)." in
  let honest () =
    mode := `Honest;
    (eval_on client q, count_on client q)
  in
  let want_eval, want_count = honest () in
  (match (want_eval, want_count) with
  | Ok rows, Ok [ n ] ->
      Alcotest.(check int) "honest answer is non-trivial" 199 (List.length rows);
      Alcotest.(check string) "honest count" "199" n
  | _ -> Alcotest.fail "honest cluster failed");
  List.iter
    (fun (m, sub) ->
      mode := m;
      List.iter
        (fun (verb, r) ->
          match r with
          | Ok _ -> Alcotest.failf "%s with a damaged shard answered OK" verb
          | Error e ->
              if not (contains e sub) then
                Alcotest.failf "%s: ERR %S lacks %S" verb e sub)
        [ ("EVAL", eval_on client q); ("COUNT", count_on client q) ];
      let got_eval, got_count = honest () in
      Alcotest.(check bool) "next EVAL answers correctly" true
        (got_eval = want_eval);
      Alcotest.(check bool) "next COUNT answers correctly" true
        (got_count = want_count))
    [ (`Flip, "shard payload invalid"); (`Truncate, "truncated") ]

(* REPAIR scans ranks with SHIP too: one undecodable rank payload fails
   the slice's repair before any rank is re-shipped, and the next REPAIR
   over honest payloads converges. *)
let test_repair_refuses_damaged_scan () =
  let mode = ref `Honest in
  let fake =
    Server.start_handler ~port:0 ~workers:1
      ~handler:
        (damaging_handler (Session.make_shared ~cache_capacity:16 ()) mode)
      ()
  in
  Fun.protect ~finally:(fun () -> try Server.stop fake with _ -> ())
  @@ fun () ->
  (* two workers: the coordinator pools one connection, the test writes
     behind its back on the other *)
  let real =
    Server.start ~port:0 ~workers:2 (Session.make_shared ~cache_capacity:16 ())
  in
  Fun.protect ~finally:(fun () -> try Server.stop real with _ -> ())
  @@ fun () ->
  let coord =
    Coordinator.create
      {
        (Coordinator.default_config
           [ ("127.0.0.1", Server.port real); ("127.0.0.1", Server.port fake) ])
        with
        replicas = 2;
      }
  in
  let front = Coordinator.serve coord ~port:0 ~workers:1 in
  Fun.protect ~finally:(fun () -> try Server.stop front with _ -> ())
  @@ fun () ->
  Client.with_connection ~timeout:30.0 ~port:(Server.port front) @@ fun client ->
  load_facts client;
  (* slice 0's primary lives on the real shard: an extra row there
     diverges it from its replica on the fake shard *)
  let v = value_on_shard ~shards:2 ~shard:0 in
  Client.with_connection ~timeout:30.0 ~port:(Server.port real) (fun c ->
      ignore (request_ok c (Printf.sprintf "FACT g e(%d, 777)." v)));
  let summary, _ = request_ok client "DIGEST g" in
  Alcotest.(check bool) ("diverged: " ^ summary) true
    (contains summary "divergent=1");
  mode := `Flip;
  let summary, payload = request_ok client "REPAIR g" in
  Alcotest.(check bool) ("nothing re-shipped: " ^ summary) true
    (contains summary "reshipped=0");
  Alcotest.(check bool)
    ("slice reports the bad payload: " ^ String.concat " | " payload)
    true
    (List.exists
       (fun l -> contains l "slice 0 repair failed" && contains l "payload invalid")
       payload);
  mode := `Honest;
  let summary, _ = request_ok client "REPAIR g" in
  Alcotest.(check bool) ("honest repair re-ships: " ^ summary) true
    (contains summary "reshipped=2");
  let summary, _ = request_ok client "DIGEST g" in
  Alcotest.(check bool) ("converged: " ^ summary) true
    (contains summary "divergent=0")

(* The triangle's three atoms reduce to the same full scan of [e]: the
   exchange ships it once and aliases it, and says so on a counter that
   STATS and METRICS both carry. *)
let test_triangle_reuses_reducers () =
  let m_reused = Metrics.counter "cluster.exchange.reducers_reused" in
  with_servers 1 @@ fun single ->
  Client.with_connection ~timeout:30.0 ~port:(Server.port single.(0))
  @@ fun single_client ->
  load_facts single_client;
  with_cluster ~shards:2 @@ fun ~shard_servers:_ ~client ->
  load_facts client;
  let q = "ans(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X)." in
  let before = Metrics.counter_value m_reused in
  (match (eval_on single_client q, eval_on client q) with
  | Ok expected, Ok got ->
      Alcotest.(check (list string)) "triangle payload" expected got;
      Alcotest.(check int) "triangle rows" 3 (List.length got)
  | _ -> Alcotest.fail "triangle EVAL failed");
  Alcotest.(check int) "two of three reducers reused" (before + 2)
    (Metrics.counter_value m_reused);
  (match (count_on single_client q, count_on client q) with
  | Ok expected, Ok got ->
      Alcotest.(check (list string)) "triangle count" expected got
  | _ -> Alcotest.fail "triangle COUNT failed");
  Alcotest.(check int) "COUNT reuses them too" (before + 4)
    (Metrics.counter_value m_reused);
  let _, stats = request_ok client "STATS" in
  Alcotest.(check bool) "STATS carries the reuse counter" true
    (List.exists
       (fun l -> contains l "telemetry.cluster.exchange.reducers_reused")
       stats);
  let _, metrics = request_ok client "METRICS" in
  Alcotest.(check bool) "METRICS carries the reuse counter" true
    (List.exists (fun l -> contains l "cluster.exchange.reducers_reused") metrics)

let test_session_times_ship () =
  let shared = Session.make_shared ~cache_capacity:4 () in
  let s = Session.create shared in
  ignore (Session.handle_line s "FACT g e(1, 2).");
  let h = Metrics.histogram "server.verb.ship.ns" in
  let before = (Metrics.histogram_read h).Metrics.count in
  (match Session.handle_line s "SHIP g ans(X) :- e(X, Y)." with
  | Some (Protocol.Ok_ { payload = [ _ ]; _ }), `Continue -> ()
  | _ -> Alcotest.fail "SHIP did not answer one payload line");
  Alcotest.(check int) "server.verb.ship.ns observed" (before + 1)
    (Metrics.histogram_read h).Metrics.count

(* Above --max-rows a SHIP answer keeps the full row count and the
   truncated=true marker but carries no payload line at all. *)
let test_session_ship_truncation () =
  let limits =
    { Paradb_server.Guard.default_limits with max_rows = Some 1 }
  in
  let s = Session.create (Session.make_shared ~limits ~cache_capacity:4 ()) in
  ignore (Session.handle_line s "FACT g e(1, 2).");
  ignore (Session.handle_line s "FACT g e(2, 3).");
  (match Session.handle_line s "SHIP g ans(X) :- e(X, Y)." with
  | Some (Protocol.Ok_ { summary; payload }), `Continue ->
      Alcotest.(check (list string)) "no payload" [] payload;
      Alcotest.(check bool) ("marked: " ^ summary) true
        (contains summary "rows=2" && contains summary "truncated=true")
  | _ -> Alcotest.fail "SHIP over max-rows did not answer OK");
  match Session.handle_line s "SHIP g ans(X) :- e(X, 3)." with
  | Some (Protocol.Ok_ { summary; payload = [ _ ] }), `Continue ->
      Alcotest.(check bool) ("within the limit: " ^ summary) false
        (contains summary "truncated")
  | _ -> Alcotest.fail "SHIP within max-rows did not ship one line"

(* An [unchanged] answer is valid only as the answer to an [if=] the
   coordinator sent, naming the same snapshot.  Unasked (nothing held
   yet) or naming another snapshot, it is a malformed peer: a clean ERR,
   and nothing of it is reused by the next honest request. *)
let test_unsolicited_unchanged () =
  let mode = ref `Unchanged in
  let fake =
    Server.start_handler ~port:0 ~workers:1
      ~handler:(damaging_handler (shard_shared ()) mode)
      ()
  in
  Fun.protect ~finally:(fun () -> try Server.stop fake with _ -> ())
  @@ fun () ->
  with_servers 2 @@ fun real ->
  Client.with_connection ~timeout:30.0 ~port:(Server.port real.(1))
  @@ fun single_client ->
  load_spread single_client;
  let coord =
    Coordinator.create
      (Coordinator.default_config
         [ ("127.0.0.1", Server.port real.(0)); ("127.0.0.1", Server.port fake) ])
  in
  let front = Coordinator.serve coord ~port:0 ~workers:1 in
  Fun.protect ~finally:(fun () -> try Server.stop front with _ -> ())
  @@ fun () ->
  Client.with_connection ~timeout:30.0 ~port:(Server.port front) @@ fun client ->
  load_spread client;
  let q = "ans(X, Z) :- e(X, Y), f(Y, Z)." in
  let refused why =
    List.iter
      (fun (verb, r) ->
        match r with
        | Ok _ -> Alcotest.failf "%s (%s) answered OK" verb why
        | Error e ->
            if not (contains e "shard payload invalid" && contains e why) then
              Alcotest.failf "%s: ERR %S lacks %S" verb e why)
      [ ("EVAL", eval_on client q); ("COUNT", count_on client q) ]
  in
  let honest () =
    mode := `Honest;
    List.iter
      (fun on ->
        Alcotest.(check (result (list string) string))
          "the next honest answer" (on single_client q) (on client q))
      [ eval_on; count_on ]
  in
  refused "unconditional";
  honest ();
  mode := `Unchanged;
  refused "unchanged at snap 0.0";
  honest ()

(* The property snapshot validation rests on: a repeated request gets
   the same bytes, and no shard evaluates anything or ships a payload
   for it — each held segment is confirmed with a small [unchanged]
   answer.  Scatter COUNT sums shard COUNTs and holds nothing; it only
   has to stay identical. *)
let test_repeat_ships_nothing () =
  let unchanged = Metrics.counter "cluster.ship.unchanged"
  and shipped = Metrics.counter "cluster.ship.shipped"
  and bytes_in = Metrics.counter "cluster.bytes_in" in
  with_servers 1 @@ fun single ->
  Client.with_connection ~timeout:30.0 ~port:(Server.port single.(0))
  @@ fun single_client ->
  load_spread single_client;
  let shareds = Array.init 2 (fun _ -> shard_shared ()) in
  let runs () =
    Array.to_list shareds
    |> List.map (fun sh ->
           let c = Plan_cache.counters sh.Session.cache in
           c.Plan_cache.hits + c.Plan_cache.misses)
  in
  with_cluster ~shareds @@ fun ~shard_servers:_ ~client ->
  load_spread client;
  List.iter
    (fun (verb, q, holds) ->
      let line = Printf.sprintf "%s g auto %s" verb q in
      let _, first = request_ok client line in
      Alcotest.(check (list string))
        (line ^ ": single node")
        (snd (request_ok single_client line))
        first;
      let u0 = Metrics.counter_value unchanged
      and s0 = Metrics.counter_value shipped
      and b0 = Metrics.counter_value bytes_in
      and r0 = runs () in
      let _, again = request_ok client line in
      Alcotest.(check (list string)) (line ^ ": repeat") first again;
      Alcotest.(check int) (line ^ ": nothing shipped") s0
        (Metrics.counter_value shipped);
      if holds then begin
        let u = Metrics.counter_value unchanged - u0 in
        Alcotest.(check bool)
          (Printf.sprintf "%s: both shards confirmed (%d)" line u)
          true (u >= 2);
        let b = Metrics.counter_value bytes_in - b0 in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %d bytes in for %d unchanged answers" line b u)
          true (b <= 64 * u);
        Alcotest.(check (list int)) (line ^ ": no shard evaluated") r0 (runs ())
      end)
    [
      ("EVAL", "ans(X, Y) :- e(X, Y), e(X, Z), Y != Z.", true);
      ("COUNT", "ans(X, Y) :- e(X, Y), e(X, Z), Y != Z.", false);
      ("EVAL", "ans(X, Z) :- e(X, Y), f(Y, Z).", true);
      ("COUNT", "ans(X, Z) :- e(X, Y), f(Y, Z).", true);
    ];
  let _, stats = request_ok client "STATS" in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("STATS carries " ^ name) true
        (List.exists (fun l -> contains l ("telemetry." ^ name)) stats))
    [ "cluster.ship.unchanged"; "cluster.ship.shipped" ]

(* A write invalidates only what it touched: after a FACT through the
   coordinator, the owner shard re-runs its reducers and the other shard
   confirms its held ones.  Shard-side evaluations are read off each
   shard's plan cache, which an [unchanged] answer never consults. *)
let test_fact_reships_owner_only () =
  with_servers 1 @@ fun single ->
  Client.with_connection ~timeout:30.0 ~port:(Server.port single.(0))
  @@ fun single_client ->
  load_spread single_client;
  let shareds = Array.init 2 (fun _ -> shard_shared ()) in
  let runs i =
    let c = Plan_cache.counters shareds.(i).Session.cache in
    c.Plan_cache.hits + c.Plan_cache.misses
  in
  with_cluster ~shareds @@ fun ~shard_servers:_ ~client ->
  load_spread client;
  let q = "ans(X, Z) :- e(X, Y), f(Y, Z)." in
  let line = "EVAL g auto " ^ q in
  ignore (request_ok client line);
  let v = value_on_shard ~shards:2 ~shard:0 in
  let fact = Printf.sprintf "FACT g e(%d, 3)." v in
  ignore (request_ok single_client fact);
  ignore (request_ok client fact);
  let r0 = runs 0 and r1 = runs 1 in
  Alcotest.(check (list string)) "answer after the FACT"
    (snd (request_ok single_client line))
    (snd (request_ok client line));
  Alcotest.(check bool) "the owner re-ships" true (runs 0 > r0);
  Alcotest.(check int) "the other shard ships nothing" r1 (runs 1)

(* A FACT sent straight to a shard, behind the coordinator's back, still
   bumps that shard's snapshot: the coordinator's next answer has it. *)
let test_direct_shard_fact_visible () =
  with_servers 1 @@ fun single ->
  Client.with_connection ~timeout:30.0 ~port:(Server.port single.(0))
  @@ fun single_client ->
  load_spread single_client;
  let shareds = Array.init 2 (fun _ -> shard_shared ()) in
  with_cluster ~shareds @@ fun ~shard_servers:_ ~client ->
  load_spread client;
  let lines =
    [
      "EVAL g auto ans(X, Y) :- e(X, Y), e(X, Z), Y != Z.";
      "EVAL g auto ans(X, Z) :- e(X, Y), f(Y, Z).";
      "COUNT g auto ans(X, Z) :- e(X, Y), f(Y, Z).";
    ]
  in
  List.iter (fun l -> ignore (request_ok client l)) lines;
  let v = value_on_shard ~shards:2 ~shard:1 in
  let fact = Printf.sprintf "e(%d, 3)." v in
  ignore (request_ok single_client ("FACT g " ^ fact));
  (match
     Session.handle_line (Session.create shareds.(1)) ("FACT g " ^ fact)
   with
  | Some (Protocol.Ok_ _), _ -> ()
  | _ -> Alcotest.fail "FACT straight to the shard failed");
  List.iter
    (fun l ->
      Alcotest.(check (list string)) (l ^ " sees the shard's own FACT")
        (snd (request_ok single_client l))
        (snd (request_ok client l)))
    lines

(* A shard restarted on its port, then written to until its generation
   equals the one the coordinator holds a token for, differs only in
   incarnation — which is enough: its SHIP re-ships, and the answer is
   the new shard's rows, not the held ones. *)
let test_restarted_shard_reships () =
  let shipped = Metrics.counter "cluster.ship.shipped" in
  let shareds = Array.init 2 (fun _ -> shard_shared ()) in
  with_cluster ~shareds @@ fun ~shard_servers ~client ->
  load_spread client;
  let line = "EVAL g auto ans(X, Y) :- e(X, Y)." in
  ignore (request_ok client line);
  let generation sh =
    match Catalog.find sh.Session.catalog "g" with
    | Some (_, g) -> g
    | None -> -1
  in
  let old = generation shareds.(1) in
  Alcotest.(check bool) "shard 1 holds a slice" true (old >= 0);
  let port1 = Server.port shard_servers.(1) in
  Server.stop shard_servers.(1);
  let revived = shard_shared () in
  let s = Session.create revived in
  let v = value_on_shard ~shards:2 ~shard:1 in
  while generation revived < old do
    ignore (Session.handle_line s (Printf.sprintf "FACT g e(%d, 999)." v))
  done;
  Alcotest.(check int) "same generation, new incarnation" old
    (generation revived);
  Alcotest.(check bool) "different token" true
    (Catalog.current_snap revived.Session.catalog "g"
    <> Catalog.current_snap shareds.(1).Session.catalog "g");
  let server = Server.start ~port:port1 ~workers:1 revived in
  Fun.protect ~finally:(fun () -> try Server.stop server with _ -> ())
  @@ fun () ->
  let ring = Ring.create ~shards:2 in
  let on_shard0 =
    List.filter_map
      (fun l ->
        Scanf.sscanf l "FACT g %[a-z](%d, %d)." (fun r a b ->
            if r = "e" && Ring.owner_of_value ring (Value.int a) = 0 then
              Some (Printf.sprintf "(%d, %d)" a b)
            else None))
      facts
  in
  let s0 = Metrics.counter_value shipped in
  Alcotest.(check (list string)) "the restarted shard's rows"
    (List.sort compare (Printf.sprintf "(%d, 999)" v :: on_shard0))
    (List.sort compare (snd (request_ok client line)));
  Alcotest.(check bool) "re-shipped" true (Metrics.counter_value shipped > s0)

(* Two connections FACT distinct new relations at once.  Each FACT
   adds its relation name to the coordinator's record of [g]; a
   read-then-write of that record in two lock holds lets one writer drop
   the other's name, and a later query over it answers "missing". *)
let test_concurrent_facts_keep_every_relation () =
  let shared = Session.make_shared ~cache_capacity:16 () in
  let shard = Server.start ~port:0 ~workers:2 shared in
  Fun.protect ~finally:(fun () -> try Server.stop shard with _ -> ())
  @@ fun () ->
  let coord =
    Coordinator.create
      (Coordinator.default_config [ ("127.0.0.1", Server.port shard) ])
  in
  let per_writer = 5000 in
  let writer tag () =
    let h = Coordinator.handler coord () in
    Fun.protect ~finally:h.Server.on_close @@ fun () ->
    for i = 1 to per_writer do
      match h.Server.on_line (Printf.sprintf "FACT g %s%d(%d)." tag i i) with
      | Some (Protocol.Ok_ _), _ -> ()
      | _ -> failwith (Printf.sprintf "FACT %s%d failed" tag i)
    done
  in
  let a = Domain.spawn (writer "a") and b = Domain.spawn (writer "b") in
  Domain.join a;
  Domain.join b;
  let h = Coordinator.handler coord () in
  Fun.protect ~finally:h.Server.on_close @@ fun () ->
  match h.Server.on_line "STATS" with
  | Some (Protocol.Ok_ { payload; _ }), _ ->
      Alcotest.(check (list string))
        "every relation recorded"
        [ Printf.sprintf "db.g.relations %d" (2 * per_writer) ]
        (List.filter (String.starts_with ~prefix:"db.g.relations ") payload)
  | _ -> Alcotest.fail "STATS failed"

let test_coordinator_validation () =
  let rejects config =
    match Coordinator.create config with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  rejects (Coordinator.default_config []);
  rejects
    { (Coordinator.default_config [ ("127.0.0.1", 1) ]) with replicas = 2 };
  rejects
    { (Coordinator.default_config [ ("127.0.0.1", 1) ]) with replicas = 0 };
  rejects
    { (Coordinator.default_config [ ("127.0.0.1", 1) ]) with
      max_inflight = Some 0 };
  rejects
    { (Coordinator.default_config [ ("127.0.0.1", 1) ]) with
      max_inflight = Some (-3) };
  rejects
    { (Coordinator.default_config [ ("127.0.0.1", 1) ]) with
      timeout = Some 0.0 };
  rejects
    { (Coordinator.default_config [ ("127.0.0.1", 1) ]) with
      timeout = Some (-1.0) };
  rejects
    { (Coordinator.default_config [ ("127.0.0.1", 1) ]) with
      timeout = Some Float.nan }

let () =
  Alcotest.run "cluster"
    [
      ( "ring",
        [
          Alcotest.test_case "owner in range" `Quick test_ring_owner_range;
          Alcotest.test_case "deterministic" `Quick test_ring_deterministic;
          Alcotest.test_case "balanced" `Quick test_ring_balance;
          Alcotest.test_case "replica placement" `Quick
            test_ring_replica_placement;
          Alcotest.test_case "value tagging" `Quick test_ring_value_tagging;
          Alcotest.test_case "validation" `Quick test_ring_validation;
        ] );
      ( "partition",
        Alcotest.test_case "split keeps all relations" `Quick
          test_partition_split_keeps_all_relations
        :: List.map QCheck_alcotest.to_alcotest [ qcheck_partition_roundtrip ]
      );
      ("bulk", [ Alcotest.test_case "framing" `Quick test_bulk_framing ]);
      ( "coordinator",
        [
          Alcotest.test_case "matches single node (FACT)" `Quick
            test_cluster_matches_single_node;
          Alcotest.test_case "matches single node (LOAD)" `Quick
            test_cluster_load_file_matches_single_node;
          Alcotest.test_case "GATHER payload parses" `Quick
            test_cluster_gather_payload_parses;
          Alcotest.test_case "EVAL and GATHER lines match the reference"
            `Quick test_coordinator_lines_match_reference;
          Alcotest.test_case "clean errors" `Quick test_cluster_errors;
          Alcotest.test_case "stats" `Quick test_cluster_stats;
          Alcotest.test_case "admission limit" `Quick
            test_cluster_admission_limit;
          Alcotest.test_case "replica failover" `Quick test_cluster_failover;
          Alcotest.test_case "COUNT matches single node" `Quick
            test_cluster_count_matches_single_node;
          Alcotest.test_case "COUNT overflow is an error" `Quick
            test_cluster_count_overflow;
          Alcotest.test_case "COUNT rejects fpt" `Quick
            test_cluster_count_rejects_fpt;
          Alcotest.test_case "ground queries match single node" `Quick
            test_cluster_ground_queries;
          Alcotest.test_case "per-verb histograms" `Quick
            test_cluster_verb_histograms;
          Alcotest.test_case "COUNT replica failover" `Quick
            test_cluster_count_failover;
          Alcotest.test_case "shard loss without replica" `Quick
            test_cluster_shard_loss_without_replica;
          Alcotest.test_case "concurrent FACTs keep every relation" `Quick
            test_concurrent_facts_keep_every_relation;
          Alcotest.test_case "config validation" `Quick
            test_coordinator_validation;
        ] );
      ( "ship",
        [
          Alcotest.test_case "SHIP matches GATHER" `Quick
            test_ship_matches_gather;
          Alcotest.test_case "damaged shard payload" `Quick
            test_damaged_ship_payload;
          Alcotest.test_case "REPAIR refuses a damaged scan" `Quick
            test_repair_refuses_damaged_scan;
          Alcotest.test_case "triangle reuses reducers" `Quick
            test_triangle_reuses_reducers;
          Alcotest.test_case "unsolicited unchanged answer" `Quick
            test_unsolicited_unchanged;
          Alcotest.test_case "repeat ships nothing" `Quick
            test_repeat_ships_nothing;
          Alcotest.test_case "FACT re-ships the owner only" `Quick
            test_fact_reships_owner_only;
          Alcotest.test_case "FACT straight to a shard is seen" `Quick
            test_direct_shard_fact_visible;
          Alcotest.test_case "restarted shard re-ships" `Quick
            test_restarted_shard_reships;
          Alcotest.test_case "session times SHIP" `Quick
            test_session_times_ship;
          Alcotest.test_case "SHIP over max-rows ships nothing" `Quick
            test_session_ship_truncation;
        ] );
      ( "self-healing",
        [
          Alcotest.test_case "replica miss counted" `Quick
            test_cluster_replica_miss_counted;
          Alcotest.test_case "hinted handoff" `Quick
            test_cluster_hinted_handoff;
          Alcotest.test_case "repair converges" `Quick
            test_cluster_repair_converges;
        ] );
    ]
