(* Resource governance and graceful degradation: cooperative budgets
   threaded through every engine, the server's limits (deadline, line
   length, row cap, idle timeout), fault injection, exception
   containment, and graceful shutdown — the failure model of DESIGN.md
   §11.  The acceptance criterion lives in [deadline acceptance]: a
   deadline-blowing query answers ERR within 2x its budget while a
   concurrent well-behaved connection gets bit-identical answers. *)

module Budget = Paradb_telemetry.Budget
module Env = Paradb_telemetry.Env
module Metrics = Paradb_telemetry.Metrics
module Guard = Paradb_server.Guard
module Fault = Paradb_server.Fault
module Protocol = Paradb_server.Protocol
module Plan = Paradb_server.Plan
module Plan_cache = Paradb_server.Plan_cache
module Session = Paradb_server.Session
module Server = Paradb_server.Server
module Client = Paradb_server.Client
module Engine = Paradb_core.Engine
open Paradb_query

let contains = Test_support.contains
let write_temp_facts text = Test_support.write_temp_facts ~prefix:"paradb_gov" text

let edge_db ~seed ~nodes ~edges =
  Paradb_workload.Generators.edge_database
    (Random.State.make [| seed |])
    ~nodes ~edges

(* A 4-cycle under the naive engine: quadratic-and-worse backtracking,
   the canonical way to blow any deadline. *)
let cycle4 = "ans(W, X, Y, Z) :- e(W, X), e(X, Y), e(Y, Z), e(Z, W)."

(* A budget that is already dead: every engine must fail fast at its
   first checkpoint, deterministically. *)
let cancelled_budget () =
  let b = Budget.start ~deadline_ns:3_600_000_000_000 in
  Budget.cancel b;
  b

let expect_exhausted name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Budget.Exhausted" name
  | exception Budget.Exhausted _ -> ()

(* ------------------------------------------------------------------ *)
(* Budget *)

let test_budget_basics () =
  let b = Budget.start ~deadline_ns:50_000_000 in
  Alcotest.(check bool) "fresh budget live" false (Budget.expired b);
  Budget.check b;
  Budget.poll (Some b);
  Budget.poll None;
  Alcotest.(check int) "budget_ns" 50_000_000 (Budget.budget_ns b);
  Alcotest.(check bool) "remaining positive" true (Budget.remaining_ns b > 0);
  Alcotest.(check bool) "elapsed sane" true (Budget.elapsed_ns b >= 0);
  Budget.cancel b;
  Alcotest.(check bool) "cancelled" true (Budget.is_cancelled b);
  Alcotest.(check bool) "cancel implies expired" true (Budget.expired b);
  expect_exhausted "cancelled check" (fun () -> Budget.check b);
  (match Budget.start ~deadline_ns:0 with
  | _ -> Alcotest.fail "deadline 0 must be rejected"
  | exception Invalid_argument _ -> ())

let test_budget_expiry () =
  let b = Budget.start ~deadline_ns:1_000_000 in
  Unix.sleepf 0.01;
  Alcotest.(check bool) "expired after sleeping past it" true (Budget.expired b);
  match Budget.check b with
  | () -> Alcotest.fail "expected Exhausted"
  | exception Budget.Exhausted { budget_ns; elapsed_ns } ->
      Alcotest.(check int) "budget recorded" 1_000_000 budget_ns;
      Alcotest.(check bool) "elapsed >= budget" true (elapsed_ns >= budget_ns)

(* Every engine observes a dead budget at its first checkpoint. *)
let test_budget_cancels_every_engine () =
  let db = edge_db ~seed:7 ~nodes:100 ~edges:400 in
  let q4 = Parser.parse_cq cycle4 in
  expect_exhausted "cq_naive" (fun () ->
      Paradb_eval.Cq_naive.evaluate ~budget:(cancelled_budget ()) db q4);
  let acyclic = Parser.parse_cq "ans(X, Y) :- e(X, Y)." in
  expect_exhausted "yannakakis" (fun () ->
      Paradb_yannakakis.Yannakakis.evaluate ~budget:(cancelled_budget ()) db
        acyclic);
  let neq = Parser.parse_cq "ans(X, Y) :- e(X, Y), X != Y." in
  expect_exhausted "fpt engine" (fun () ->
      Engine.evaluate ~budget:(cancelled_budget ()) db neq);
  (* the join keeps the naive fallback past its first 1024-probe
     checkpoint *)
  expect_exhausted "comparisons" (fun () ->
      Paradb_core.Comparisons.evaluate ~budget:(cancelled_budget ()) db
        (Parser.parse_cq "ans(X, Y) :- e(X, Z), e(Z, Y), X < Y."));
  let f =
    Fo.Exists ([ "Y" ], Fo.Rel (Atom.make "e" [ Term.var "X"; Term.var "Y" ]))
  in
  expect_exhausted "fo_naive" (fun () ->
      Paradb_eval.Fo_naive.evaluate ~budget:(cancelled_budget ()) db f
        ~head:[ "X" ]);
  let program =
    match
      Source.parse_program "t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z)."
        ~goal:"t"
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  expect_exhausted "datalog" (fun () ->
      Paradb_datalog.Engine.evaluate ~budget:(cancelled_budget ()) db program)

(* A live budget leaves results untouched: same answers as no budget. *)
let test_budget_transparent_when_unexercised () =
  let db = edge_db ~seed:11 ~nodes:30 ~edges:120 in
  let q = Parser.parse_cq "ans(X, Y) :- e(X, Z), e(Z, Y), X != Y." in
  let b = Budget.start ~deadline_ns:60_000_000_000 in
  let without = Engine.evaluate db q in
  let with_b = Engine.evaluate ~budget:b db q in
  Alcotest.(check (list string)) "identical relations"
    (Plan.sorted_tuples without) (Plan.sorted_tuples with_b)

(* ------------------------------------------------------------------ *)
(* Guard: bounded reader, backoff *)

let test_guard_reader () =
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
  @@ fun () ->
  let reader = Guard.reader ~max_line:10 r in
  let write s = ignore (Unix.write_substring w s 0 (String.length s)) in
  let expect_line want =
    match Guard.read_line reader with
    | Guard.Line s -> Alcotest.(check string) ("line " ^ want) want s
    | _ -> Alcotest.failf "expected Line %s" want
  in
  write "hello\nwor";
  expect_line "hello";
  (* a line split across reads is reassembled *)
  write "ld\n";
  expect_line "world";
  (* exactly max_line bytes is still legal *)
  write "0123456789\n";
  expect_line "0123456789";
  (* one byte over is Too_long — consumed through its newline, so the
     next request still parses *)
  write "0123456789X\nok\n";
  (match Guard.read_line reader with
  | Guard.Too_long -> ()
  | _ -> Alcotest.fail "expected Too_long");
  expect_line "ok";
  (* a very long line spanning many chunks is one Too_long event *)
  write (String.make 20000 'a' ^ "\nstill here\n");
  (match Guard.read_line reader with
  | Guard.Too_long -> ()
  | _ -> Alcotest.fail "expected Too_long for 20k line");
  expect_line "still here";
  (* NUL bytes are data, not terminators *)
  write "a\000b\n";
  expect_line "a\000b";
  Unix.close w;
  match Guard.read_line reader with
  | Guard.Closed -> ()
  | _ -> Alcotest.fail "expected Closed at EOF"

let test_guard_idle () =
  let a, b = Unix.socketpair ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.setsockopt_float a SO_RCVTIMEO 0.05;
  let reader = Guard.reader a in
  match Guard.read_line reader with
  | Guard.Idle -> ()
  | _ -> Alcotest.fail "expected Idle when SO_RCVTIMEO expires"

let test_accept_backoff () =
  Alcotest.(check bool) "starts small" true (Guard.accept_backoff 0 <= 0.011);
  Alcotest.(check bool) "monotone" true
    (Guard.accept_backoff 3 > Guard.accept_backoff 1);
  Alcotest.(check bool) "capped" true (Guard.accept_backoff 30 <= 1.0)

(* ------------------------------------------------------------------ *)
(* Fault configuration *)

let test_fault_config () =
  let c = Fault.parse [ ("short_read", 0.5); ("seed", 42.0) ] in
  Alcotest.(check bool) "parsed probability" true (c.Fault.short_read = 0.5);
  Alcotest.(check int) "parsed seed" 42 c.Fault.seed;
  Alcotest.(check bool) "others default" true
    (c.Fault.disconnect = 0.0 && c.Fault.raise_eval = 0.0);
  let invalid kvs =
    match Fault.parse kvs with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  invalid [ ("bogus", 1.0) ];
  invalid [ ("disconnect", 1.5) ];
  Alcotest.(check bool) "disabled by default" false (Fault.active ());
  Fault.set (Some { Fault.default with raise_eval = 1.0 });
  Alcotest.(check bool) "enabled after set" true (Fault.active ());
  (match Fault.injected_raise () with
  | () -> Alcotest.fail "expected Injected"
  | exception Fault.Injected _ -> ());
  Fault.set None;
  Alcotest.(check bool) "disabled after reset" false (Fault.active ());
  Fault.injected_raise ();
  (* env plumbing *)
  Unix.putenv "PARADB_FAULTS" "short_read:0.25,seed:3";
  (match Env.faults () with
  | Some [ ("short_read", p); ("seed", s) ] ->
      Alcotest.(check bool) "env pairs" true (p = 0.25 && s = 3.0)
  | _ -> Alcotest.fail "PARADB_FAULTS not parsed");
  Unix.putenv "PARADB_FAULTS" "short_read:lots";
  (match Env.faults () with
  | _ -> Alcotest.fail "malformed PARADB_FAULTS must be rejected"
  | exception Invalid_argument _ -> ());
  Unix.putenv "PARADB_FAULTS" "short_read:0"

(* ------------------------------------------------------------------ *)
(* Plan cache under failure *)

let test_cache_failed_build () =
  let cache = Plan_cache.create ~capacity:4 () in
  let failures = Metrics.counter "server.plan_cache.build_failures" in
  let before = Metrics.counter_value failures in
  (match Plan_cache.find_or_build cache ~key:"k" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected the build failure to propagate"
  | exception Failure _ -> ());
  Alcotest.(check bool) "failed build never cached" false
    (Plan_cache.mem cache "k");
  Alcotest.(check int) "failure counted" (before + 1)
    (Metrics.counter_value failures);
  let plan = Plan.analyze Plan.Auto (Parser.parse_cq "ans(X) :- e(X, Y).") in
  let _, outcome = Plan_cache.find_or_build cache ~key:"k" (fun () -> plan) in
  Alcotest.(check bool) "retried as a miss" true (outcome = `Miss);
  let _, outcome =
    Plan_cache.find_or_build cache ~key:"k" (fun () -> failwith "never runs")
  in
  Alcotest.(check bool) "successful build cached" true (outcome = `Hit);
  let c = Plan_cache.counters cache in
  Alcotest.(check int) "misses include the failure" 2 c.Plan_cache.misses;
  Alcotest.(check int) "one hit" 1 c.Plan_cache.hits;
  Alcotest.(check int) "one entry" 1 c.Plan_cache.size

(* ------------------------------------------------------------------ *)
(* Session-level limits (no sockets) *)

let test_session_deadline () =
  let limits = { Guard.default_limits with Guard.deadline_ns = Some 1 } in
  let shared = Session.make_shared ~limits ~cache_capacity:4 () in
  let session = Session.create shared in
  let db = edge_db ~seed:5 ~nodes:100 ~edges:400 in
  let path = write_temp_facts (Fact_format.to_string db) in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let before = Metrics.counter_value (Metrics.counter "server.deadline_exceeded") in
  (match Option.get (fst (Session.handle_line session (Printf.sprintf "LOAD g %s" path))) with
  | Protocol.Ok_ _ -> ()
  | Protocol.Err e -> Alcotest.failf "LOAD: %s" e);
  (match
     Option.get
       (fst (Session.handle_line session (Printf.sprintf "EVAL g naive %s" cycle4)))
   with
  | Protocol.Err e ->
      Alcotest.(check bool) "names the deadline" true
        (contains e "deadline-exceeded")
  | Protocol.Ok_ _ -> Alcotest.fail "expected ERR deadline-exceeded");
  Alcotest.(check bool) "counter moved" true
    (Metrics.counter_value (Metrics.counter "server.deadline_exceeded") > before)

let test_session_truncation () =
  let limits = { Guard.default_limits with Guard.max_rows = Some 2 } in
  let shared = Session.make_shared ~limits ~cache_capacity:4 () in
  let session = Session.create shared in
  let path = write_temp_facts "e(1, 2). e(2, 3). e(3, 1). e(1, 3).\n" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  ignore (Session.handle_line session (Printf.sprintf "LOAD g %s" path));
  (match
     Option.get
       (fst (Session.handle_line session "EVAL g naive ans(X, Y) :- e(X, Y)."))
   with
  | Protocol.Ok_ { summary; payload } ->
      Alcotest.(check int) "payload truncated to max_rows" 2
        (List.length payload);
      Alcotest.(check bool) "summary keeps true cardinality" true
        (contains summary "rows=4");
      Alcotest.(check bool) "summary marks truncation" true
        (contains summary "truncated=true")
  | Protocol.Err e -> Alcotest.fail e);
  (* a result within the cap is untouched *)
  match
    Option.get (fst (Session.handle_line session "EVAL g naive ans(X) :- e(X, X)."))
  with
  | Protocol.Ok_ { summary; payload } ->
      Alcotest.(check bool) "no marker under the cap" false
        (contains summary "truncated");
      Alcotest.(check int) "payload complete" 0 (List.length payload)
  | Protocol.Err e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Protocol fuzz: arbitrary bytes never raise, never hang *)

let fuzz_lines =
  let open QCheck in
  let raw = Gen.(string_size ~gen:char (0 -- 300)) in
  let gen =
    Gen.oneof
      [
        raw;
        Gen.map (fun s -> "EVAL g auto " ^ s) raw;
        Gen.map (fun s -> "LOAD " ^ s) raw;
        Gen.map (fun s -> "FACT g " ^ s) raw;
        Gen.map (fun s -> String.sub ("METRICS" ^ s) 0 (min 7 (String.length s + 3))) raw;
        Gen.map (fun s -> s ^ String.make 100 '\000') raw;
      ]
  in
  make ~print:String.escaped gen

let test_protocol_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400 ~name:"hostile lines answer, never raise"
       fuzz_lines (fun line ->
         (match Protocol.parse_request line with
         | Ok _ | Error _ -> ());
         let shared = Session.make_shared ~cache_capacity:4 () in
         let session = Session.create shared in
         let skip =
           (* LOAD - reads stdin: valid, but not under fuzz *)
           match Protocol.parse_request line with
           | Ok (Protocol.Load { path = "-"; _ }) -> true
           | _ -> false
         in
         if not skip then begin
           match Session.handle_line session line with
           | ( (Some (Protocol.Ok_ _) | Some (Protocol.Err _) | None),
               (`Continue | `Quit) ) ->
               ()
         end;
         true))

(* ------------------------------------------------------------------ *)
(* Acceptance: a deadline-blowing query answers ERR within 2x its
   budget while a concurrent well-behaved connection is bit-identical *)

let test_deadline_acceptance () =
  let db = edge_db ~seed:4242 ~nodes:1000 ~edges:6000 in
  let path = write_temp_facts (Fact_format.to_string db) in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let deadline_ms = 400 in
  let limits =
    { Guard.default_limits with Guard.deadline_ns = Some (deadline_ms * 1_000_000) }
  in
  let server =
    Server.start ~port:0 ~workers:4
      (Session.make_shared ~limits ~cache_capacity:16 ())
  in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let port = Server.port server in
  Client.with_connection ~port (fun c ->
      match Client.request_line c (Printf.sprintf "LOAD g %s" path) with
      | Protocol.Ok_ _ -> ()
      | Protocol.Err e -> Alcotest.failf "LOAD: %s" e);
  let good = "ans(X) :- e(X, X)." in
  let expected =
    let q = Parser.parse_cq good in
    Plan.sorted_tuples (Plan.evaluate (Plan.analyze Plan.Yannakakis q) db q)
  in
  (* well-behaved witness, concurrent with the blowing query *)
  let witness =
    Domain.spawn (fun () ->
        Client.with_connection ~port (fun c ->
            List.init 5 (fun _ ->
                Client.request_line c
                  (Printf.sprintf "EVAL g yannakakis %s" good))))
  in
  let t0 = Unix.gettimeofday () in
  let response =
    Client.with_connection ~port (fun c ->
        Client.request_line c (Printf.sprintf "EVAL g naive %s" cycle4))
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match response with
  | Protocol.Err e ->
      Alcotest.(check bool) "ERR names the deadline" true
        (contains e "deadline-exceeded")
  | Protocol.Ok_ _ -> Alcotest.fail "expected ERR deadline-exceeded");
  Alcotest.(check bool)
    (Printf.sprintf "answered in %.3fs < 2x the %dms budget" elapsed deadline_ms)
    true
    (elapsed < 2.0 *. (float_of_int deadline_ms /. 1000.0));
  List.iter
    (function
      | Protocol.Ok_ { payload; _ } ->
          Alcotest.(check (list string)) "witness bit-identical" expected payload
      | Protocol.Err e -> Alcotest.failf "witness got ERR %s" e)
    (Domain.join witness);
  Alcotest.(check bool) "server.deadline_exceeded > 0" true
    (Metrics.counter_value (Metrics.counter "server.deadline_exceeded") > 0)

(* ------------------------------------------------------------------ *)
(* Exception containment: a raising dispatch answers ERR internal and
   the worker (and connection) survive *)

let test_internal_error_survival () =
  let server =
    Server.start ~port:0 ~workers:1 (Session.make_shared ~cache_capacity:4 ())
  in
  Fun.protect
    ~finally:(fun () ->
      Fault.set None;
      Server.stop server)
  @@ fun () ->
  let port = Server.port server in
  let before = Metrics.counter_value (Metrics.counter "server.internal_errors") in
  Client.with_connection ~port (fun c ->
      Fault.set (Some { Fault.default with Fault.raise_eval = 1.0 });
      (match Client.request_line c "CHECK ans(X) :- e(X, Y)." with
      | Protocol.Err e ->
          Alcotest.(check bool) "ERR internal" true (contains e "internal")
      | Protocol.Ok_ _ -> Alcotest.fail "expected ERR internal");
      Fault.set None;
      (* same connection, same (single) worker: both survived *)
      match Client.request_line c "CHECK ans(X) :- e(X, Y)." with
      | Protocol.Ok_ _ -> ()
      | Protocol.Err e -> Alcotest.failf "connection died: %s" e);
  Alcotest.(check bool) "server.internal_errors counted" true
    (Metrics.counter_value (Metrics.counter "server.internal_errors") > before)

(* Oversized request lines answer ERR and the connection continues. *)
let test_oversize_line_over_the_wire () =
  let limits = { Guard.default_limits with Guard.max_line = 64 } in
  let server =
    Server.start ~port:0 ~workers:1
      (Session.make_shared ~limits ~cache_capacity:4 ())
  in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let port = Server.port server in
  Client.with_connection ~port (fun c ->
      (match Client.request_line c (String.make 500 'x') with
      | Protocol.Err e ->
          Alcotest.(check bool) "ERR names the limit" true (contains e "exceeds")
      | Protocol.Ok_ _ -> Alcotest.fail "expected ERR for oversized line");
      match Client.request_line c "CHECK ans(X) :- e(X, Y)." with
      | Protocol.Ok_ _ -> ()
      | Protocol.Err e -> Alcotest.failf "connection died after oversize: %s" e)

(* Idle connections are reaped; the server stays serviceable. *)
let test_idle_timeout_over_the_wire () =
  let limits = { Guard.default_limits with Guard.idle_timeout = Some 0.1 } in
  let server =
    Server.start ~port:0 ~workers:1
      (Session.make_shared ~limits ~cache_capacity:4 ())
  in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let port = Server.port server in
  let before = Metrics.counter_value (Metrics.counter "server.idle_closed") in
  let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  (* say nothing; the server must hang up on us *)
  let buf = Bytes.create 256 in
  let rec drain () =
    match Unix.read fd buf 0 256 with
    | 0 -> ()
    | _ -> drain ()
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> ()
  in
  drain ();
  Unix.close fd;
  Alcotest.(check bool) "server.idle_closed counted" true
    (Metrics.counter_value (Metrics.counter "server.idle_closed") > before);
  (* the worker is back in accept *)
  Client.with_connection ~port (fun c ->
      match Client.request_line c "CHECK ans(X) :- e(X, Y)." with
      | Protocol.Ok_ _ -> ()
      | Protocol.Err e -> Alcotest.fail e)

(* ------------------------------------------------------------------ *)
(* Graceful shutdown: stop drains, then aborts stragglers, boundedly *)

let test_graceful_stop_aborts_stragglers () =
  let server =
    Server.start ~port:0 ~workers:2 (Session.make_shared ~cache_capacity:4 ())
  in
  let port = Server.port server in
  let before = Metrics.counter_value (Metrics.counter "server.shutdown.aborted") in
  let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  (* wait until a worker holds the connection *)
  let rec settle n =
    if Server.active_connections server = 0 && n > 0 then begin
      Unix.sleepf 0.01;
      settle (n - 1)
    end
  in
  settle 200;
  Alcotest.(check bool) "connection registered" true
    (Server.active_connections server > 0);
  let t0 = Unix.gettimeofday () in
  Server.stop ~grace:0.2 server;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "stop returned in %.2fs despite the held connection" dt)
    true (dt < 5.0);
  Alcotest.(check int) "no connection left" 0 (Server.active_connections server);
  Alcotest.(check bool) "straggler counted as aborted" true
    (Metrics.counter_value (Metrics.counter "server.shutdown.aborted") > before);
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Chaos: hostile clients + fault injection; the pool stays live and
   well-behaved answers stay bit-identical *)

let test_chaos () =
  let db = edge_db ~seed:99 ~nodes:800 ~edges:4000 in
  let path = write_temp_facts (Fact_format.to_string db) in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let limits =
    {
      Guard.deadline_ns = Some 150_000_000;
      max_line = 2048;
      max_rows = Some 10_000;
      idle_timeout = Some 1.0;
    }
  in
  let server =
    Server.start ~port:0 ~workers:4
      (Session.make_shared ~limits ~cache_capacity:16 ())
  in
  Fun.protect
    ~finally:(fun () ->
      Fault.set None;
      Server.stop ~grace:0.5 server)
  @@ fun () ->
  let port = Server.port server in
  (* load before the faults go live *)
  Client.with_connection ~port (fun c ->
      match Client.request_line c (Printf.sprintf "LOAD g %s" path) with
      | Protocol.Ok_ _ -> ()
      | Protocol.Err e -> Alcotest.failf "LOAD: %s" e);
  let good = "ans(X) :- e(X, X)." in
  let expected =
    let q = Parser.parse_cq good in
    Plan.sorted_tuples (Plan.evaluate (Plan.analyze Plan.Yannakakis q) db q)
  in
  Fault.set
    (Some
       {
         Fault.default with
         Fault.short_read = 0.2;
         write_delay = 0.05;
         disconnect = 0.05;
         raise_eval = 0.05;
         seed = 11;
       });
  let hostile id () =
    let rng = Random.State.make [| id; 0xbad |] in
    for _ = 1 to 12 do
      try
        let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
            let send s =
              ignore (Unix.write_substring fd s 0 (String.length s))
            in
            (match Random.State.int rng 4 with
            | 0 -> send (String.make 4000 'a' ^ "\n")
            | 1 ->
                (* garbage with no newline, then half-close *)
                send "EVAL g auto ans(X";
                Unix.shutdown fd SHUTDOWN_SEND
            | 2 -> send (Printf.sprintf "EVAL g naive %s\n" cycle4)
            | _ -> ());
            (* read a little, never to completion *)
            let buf = Bytes.create 128 in
            (try ignore (Unix.read fd buf 0 128)
             with Unix.Unix_error _ -> ()))
      with Unix.Unix_error _ | Sys_error _ -> ()
    done
  in
  let well_behaved () =
    let successes = ref 0 and mismatches = ref 0 in
    for _ = 1 to 20 do
      try
        Client.with_connection ~timeout:5.0 ~retries:3 ~port (fun c ->
            match
              Client.request_line c (Printf.sprintf "EVAL g yannakakis %s" good)
            with
            | Protocol.Ok_ { payload; _ } ->
                incr successes;
                if payload <> expected then incr mismatches
            | Protocol.Err _ ->
                (* injected raise_eval: an ERR, never a hang or crash *)
                ())
      with Failure _ | Unix.Unix_error _ | Sys_error _ ->
        (* injected disconnect mid-response *)
        ()
    done;
    (!successes, !mismatches)
  in
  let hostiles = Array.init 3 (fun id -> Domain.spawn (hostile id)) in
  let successes, mismatches = well_behaved () in
  Array.iter Domain.join hostiles;
  Fault.set None;
  Alcotest.(check int) "no corrupted answers under chaos" 0 mismatches;
  Alcotest.(check bool) "some well-behaved requests succeeded" true
    (successes > 0);
  (* post-storm, deterministically blow the deadline once *)
  (match
     Client.with_connection ~port (fun c ->
         Client.request_line c (Printf.sprintf "EVAL g naive %s" cycle4))
   with
  | Protocol.Err e ->
      Alcotest.(check bool) "deadline still enforced" true
        (contains e "deadline-exceeded")
  | Protocol.Ok_ _ -> Alcotest.fail "expected ERR deadline-exceeded");
  (* the pool is alive: METRICS answers and the counters moved *)
  Client.with_connection ~port (fun c ->
      match Client.request_line c "STATS" with
      | Protocol.Ok_ { payload; _ } ->
          let field name =
            List.find_map
              (fun l ->
                match String.split_on_char ' ' l with
                | [ k; v ] when k = name -> int_of_string_opt v
                | _ -> None)
              payload
          in
          Alcotest.(check bool) "deadline_exceeded in telemetry" true
            (match field "telemetry.server.deadline_exceeded" with
            | Some n -> n > 0
            | None -> false);
          Alcotest.(check bool) "faults were injected" true
            (match field "telemetry.server.faults.injected" with
            | Some n -> n > 0
            | None -> false)
      | Protocol.Err e -> Alcotest.failf "STATS after chaos: %s" e);
  Client.with_connection ~port (fun c ->
      match Client.request_line c "METRICS" with
      | Protocol.Ok_ _ -> ()
      | Protocol.Err e -> Alcotest.failf "METRICS after chaos: %s" e)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "governance"
    [
      ( "budget",
        [
          Alcotest.test_case "basics" `Quick test_budget_basics;
          Alcotest.test_case "expiry" `Quick test_budget_expiry;
          Alcotest.test_case "cancels every engine" `Quick
            test_budget_cancels_every_engine;
          Alcotest.test_case "transparent when unexercised" `Quick
            test_budget_transparent_when_unexercised;
        ] );
      ( "guard",
        [
          Alcotest.test_case "bounded line reader" `Quick test_guard_reader;
          Alcotest.test_case "idle detection" `Quick test_guard_idle;
          Alcotest.test_case "accept backoff" `Quick test_accept_backoff;
        ] );
      ("faults", [ Alcotest.test_case "config" `Quick test_fault_config ]);
      ( "plan cache",
        [ Alcotest.test_case "failed build" `Quick test_cache_failed_build ] );
      ( "session limits",
        [
          Alcotest.test_case "deadline" `Quick test_session_deadline;
          Alcotest.test_case "row truncation" `Quick test_session_truncation;
        ] );
      ("fuzz", [ test_protocol_fuzz ]);
      ( "server",
        [
          Alcotest.test_case "deadline acceptance" `Slow
            test_deadline_acceptance;
          Alcotest.test_case "internal error survival" `Quick
            test_internal_error_survival;
          Alcotest.test_case "oversize line" `Quick
            test_oversize_line_over_the_wire;
          Alcotest.test_case "idle timeout" `Quick
            test_idle_timeout_over_the_wire;
          Alcotest.test_case "graceful stop aborts stragglers" `Quick
            test_graceful_stop_aborts_stragglers;
          Alcotest.test_case "chaos" `Slow test_chaos;
        ] );
    ]
