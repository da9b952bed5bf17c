(* The paradb serve subsystem: protocol codec round-trips, plan-cache LRU
   discipline, session dispatch, and — the acceptance criterion — eight
   parallel client connections receiving answer sets bit-identical to
   single-shot evaluation. *)

module Protocol = Paradb_server.Protocol
module Plan = Paradb_server.Plan
module Plan_cache = Paradb_server.Plan_cache
module Catalog = Paradb_server.Catalog
module Session = Paradb_server.Session
module Server = Paradb_server.Server
module Client = Paradb_server.Client
module Database = Paradb_relational.Database
module Value = Paradb_relational.Value
open Paradb_query

(* ------------------------------------------------------------------ *)
(* Protocol *)

let test_parse_request () =
  let ok line expected =
    match Protocol.parse_request line with
    | Ok r -> Alcotest.(check bool) line true (r = expected)
    | Error e -> Alcotest.failf "%s: unexpected error %s" line e
  in
  ok "LOAD g /tmp/x.facts" (Protocol.Load { db = "g"; path = "/tmp/x.facts" });
  ok "  load  g   /tmp/x.facts "
    (Protocol.Load { db = "g"; path = "/tmp/x.facts" });
  ok "FACT g edge(1, 2)." (Protocol.Fact { db = "g"; fact = "edge(1, 2)." });
  ok "EVAL g auto ans(X) :- e(X, Y)."
    (Protocol.Eval { db = "g"; engine = "auto"; query = "ans(X) :- e(X, Y)." });
  ok "CHECK ans(X) :- e(X, X)." (Protocol.Check "ans(X) :- e(X, X).");
  ok "ship g  gx(X) :- e(X, Y)"
    (Protocol.Ship { db = "g"; query = "gx(X) :- e(X, Y)"; if_snap = None });
  ok "SHIP g if=0f.7 gx(X) :- e(X, Y)"
    (Protocol.Ship
       { db = "g"; query = "gx(X) :- e(X, Y)"; if_snap = Some "0f.7" });
  ok "DIGEST g" (Protocol.Digest "g");
  ok "repair g" (Protocol.Repair "g");
  ok "stats" Protocol.Stats;
  ok "METRICS" Protocol.Metrics;
  ok "Quit" Protocol.Quit;
  let err line =
    match Protocol.parse_request line with
    | Ok _ -> Alcotest.failf "%s: expected an error" line
    | Error _ -> ()
  in
  err "";
  err "LOAD";
  err "LOAD g";
  err "EVAL g auto";
  err "CHECK";
  err "SHIP g";
  err "SHIP g if=0f.7";
  err "SHIP g if= gx(X) :- e(X, Y)";
  err "DIGEST";
  err "REPAIR";
  err "FROB g"

let test_request_line_roundtrip () =
  List.iter
    (fun r ->
      match Protocol.parse_request (Protocol.request_to_line r) with
      | Ok r' ->
          Alcotest.(check bool) (Protocol.request_to_line r) true (r = r')
      | Error e -> Alcotest.fail e)
    [
      Protocol.Load { db = "g"; path = "examples/graph.facts" };
      Protocol.Fact { db = "g"; fact = "edge(1, 2)." };
      Protocol.Eval { db = "g"; engine = "fpt"; query = "ans(X) :- e(X, Y), X != Y." };
      Protocol.Check "ans() :- e(X, X).";
      Protocol.Ship
        { db = "g"; query = "gx(X, 1) :- e(X, 1), X != 2"; if_snap = None };
      Protocol.Ship
        {
          db = "g@r1";
          query = "gx(X, 1) :- e(X, 1), X != 2";
          if_snap = Some "00c0ffee00c0ffee.12";
        };
      Protocol.Digest "g";
      Protocol.Repair "g";
      Protocol.Stats;
      Protocol.Metrics;
      Protocol.Quit;
    ]

let test_response_roundtrip () =
  let roundtrip r =
    let path = Filename.temp_file "paradb_proto" ".txt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_text path (fun oc -> Protocol.write_response oc r);
        In_channel.with_open_text path (fun ic ->
            match Protocol.read_response ic with
            | Some r' -> Alcotest.(check bool) "response" true (r = r')
            | None -> Alcotest.fail "eof"))
  in
  roundtrip (Protocol.Ok_ { summary = "stats"; payload = [ "a 1"; "b 2" ] });
  roundtrip (Protocol.Ok_ { summary = ""; payload = [] });
  roundtrip (Protocol.Err "no database g");
  (* payload lines that *look* like framing must survive (count wins) *)
  roundtrip (Protocol.Ok_ { summary = "tricky"; payload = [ "OK 0 fake"; "ERR fake" ] })

(* A hostile or corrupted peer must never park [read_response] in an
   unbounded read loop or let it mis-frame: negative counts, absurd
   counts, and mid-frame disconnects all raise [Failure] with a message
   naming the problem. *)
let read_raw_response text =
  let path = Test_support.write_temp_facts ~prefix:"paradb_proto" text in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () -> In_channel.with_open_text path Protocol.read_response)

let test_response_framing_abuse () =
  let fails needle text =
    match read_raw_response text with
    | exception Failure msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S names %S" text needle)
          true
          (Test_support.contains msg needle)
    | _ -> Alcotest.failf "accepted %S" text
  in
  fails "negative" "OK -1 summary\n";
  fails "oversized" (Printf.sprintf "OK %d summary\n" (Protocol.max_payload_lines + 1));
  (* mid-frame disconnect: fewer payload lines than the count promises *)
  fails "truncated" "OK 3 summary\nrow 1\nrow 2\n";
  fails "malformed" "OK not_a_number summary\n";
  fails "malformed" "WAT 0\n";
  (* the ceiling itself is inclusive: a count of exactly
     [max_payload_lines] is only rejected for being oversized, not
     accepted — it then fails as truncated since we supply no payload *)
  fails "truncated" (Printf.sprintf "OK %d summary\n" 1);
  (* and EOF before any framing line is a clean [None] *)
  Alcotest.(check bool) "eof is None" true (read_raw_response "" = None)

(* ------------------------------------------------------------------ *)
(* Plan cache *)

let plan_for text =
  Plan.analyze Plan.Auto (Parser.parse_cq text)

let test_cache_key_invariance () =
  let q1 = Parser.parse_cq "ans(X, Y) :- e(X, Z), e(Z, Y), X != Y." in
  let q2 = Parser.parse_cq "ans(A, B) :- e(A, C),   e(C, B),  A != B." in
  let q3 = Parser.parse_cq "ans(X, Y) :- e(Y, Z), e(Z, X), X != Y." in
  Alcotest.(check string) "alpha + whitespace invariant"
    (Plan.cache_key Plan.Auto q1) (Plan.cache_key Plan.Auto q2);
  Alcotest.(check bool) "different queries differ" false
    (Plan.cache_key Plan.Auto q1 = Plan.cache_key Plan.Auto q3);
  Alcotest.(check bool) "engine in the key" false
    (Plan.cache_key Plan.Auto q1 = Plan.cache_key Plan.Naive q1)

let test_lru_discipline () =
  let cache = Plan_cache.create ~capacity:2 () in
  let get text =
    let q = Parser.parse_cq text in
    let key = Plan.cache_key Plan.Auto q in
    snd (Plan_cache.find_or_build cache ~key (fun () -> plan_for text))
  in
  let a = "ans(X) :- r1(X)." in
  let b = "ans(X) :- r2(X, Y)." in
  let c = "ans(X) :- r3(X, Y, Z)." in
  Alcotest.(check bool) "a cold" true (get a = `Miss);
  Alcotest.(check bool) "b cold" true (get b = `Miss);
  Alcotest.(check bool) "a warm" true (get a = `Hit);
  (* recency is now [a; b]: inserting c evicts b *)
  Alcotest.(check bool) "c cold" true (get c = `Miss);
  Alcotest.(check bool) "b evicted" true (get b = `Miss);
  Alcotest.(check bool) "a survived, then evicted by b" true (get a = `Miss);
  let counters = Plan_cache.counters cache in
  Alcotest.(check int) "hits" 1 counters.Plan_cache.hits;
  Alcotest.(check int) "misses" 5 counters.Plan_cache.misses;
  Alcotest.(check int) "evictions" 3 counters.Plan_cache.evictions;
  Alcotest.(check int) "size bound" 2 counters.Plan_cache.size;
  Alcotest.(check int) "lru order" 2 (List.length (Plan_cache.keys cache))

(* Generations are catalog-wide and monotone: caching generation g of a
   database drops its older generations at once (they can never hit
   again), and a late build for an older generation is not inserted.
   Neither counts as an LRU eviction. *)
let test_superseded_generations () =
  let cache = Plan_cache.create ~capacity:8 () in
  let text = "ans(X) :- r1(X)." in
  let put db g =
    let q = Parser.parse_cq text in
    let key = Plan.scoped_key ~db ~generation:g Plan.Auto q in
    ignore
      (Plan_cache.find_or_build ~scope:(db, g) cache ~key (fun () ->
           plan_for text));
    key
  in
  let g1 = put "g" 1 and h1 = put "h" 1 in
  let g3 = put "g" 3 in
  Alcotest.(check bool) "older generation dropped" false (Plan_cache.mem cache g1);
  Alcotest.(check bool) "newer generation cached" true (Plan_cache.mem cache g3);
  Alcotest.(check bool) "other database untouched" true (Plan_cache.mem cache h1);
  let g2 = put "g" 2 in
  Alcotest.(check bool) "late older build not inserted" false
    (Plan_cache.mem cache g2);
  let counters = Plan_cache.counters cache in
  Alcotest.(check int) "superseded counted" 2 counters.Plan_cache.superseded;
  Alcotest.(check int) "not as evictions" 0 counters.Plan_cache.evictions;
  Alcotest.(check (list string)) "keys" [ g3; h1 ] (Plan_cache.keys cache)

let test_plan_dispatch () =
  (* auto always lowers to the compiled push-based pipeline; the
     interpreter engines remain reachable by explicit request *)
  let engine text = (plan_for text).Plan.engine in
  Alcotest.(check bool) "acyclic, no constraints -> compiled" true
    (engine "ans(X) :- e(X, Y)." = Plan.E_compiled);
  Alcotest.(check bool) "acyclic + != -> compiled" true
    (engine "ans(X) :- e(X, Y), X != Y." = Plan.E_compiled);
  Alcotest.(check bool) "acyclic + < -> compiled" true
    (engine "ans(X) :- e(X, Y), X < Y." = Plan.E_compiled);
  Alcotest.(check bool) "cyclic -> compiled" true
    (engine "ans(X) :- e(X, Y), e(Y, Z), e(Z, X)." = Plan.E_compiled);
  let explicit kind text =
    (Plan.analyze kind (Parser.parse_cq text)).Plan.engine
  in
  Alcotest.(check bool) "explicit naive honoured" true
    (explicit Plan.Naive "ans(X) :- e(X, Y)." = Plan.E_naive);
  Alcotest.(check bool) "explicit yannakakis honoured" true
    (explicit Plan.Yannakakis "ans(X) :- e(X, Y)." = Plan.E_yannakakis);
  Alcotest.(check bool) "explicit fpt honoured" true
    (explicit Plan.Fpt "ans(X) :- e(X, Y), X != Y." = Plan.E_fpt);
  let p =
    Plan.analyze Plan.Fpt
      (Parser.parse_cq "ans(X) :- e(X, Y), e(Y, Z), X != Z, X != Y.")
  in
  Alcotest.(check bool) "fpt partition k > 0" true (p.Plan.neq_k > 0);
  Alcotest.(check bool) "join tree cached" true
    (p.Plan.pplan.Paradb_planner.Planner.tree <> None);
  (* every plan carries the planner classification *)
  let cls text = (plan_for text).Plan.pplan.Paradb_planner.Planner.classification in
  Alcotest.(check bool) "chain classified acyclic" true
    (cls "ans(X) :- e(X, Y), e(Y, Z)." = Paradb_planner.Planner.Acyclic);
  Alcotest.(check bool) "triangle classified low-width" true
    (cls "ans(X) :- e(X, Y), e(Y, Z), e(Z, X)."
    = Paradb_planner.Planner.Low_width 2)

(* [Plan.evaluate ?family] reaches the fpt engine: a Monte-Carlo family
   runs exactly its trial count, where the default sweep runs its own.
   The naive engine adds its probes to [naive.probes] — the counters
   [paradb eval --stats] prints. *)
let test_plan_family_and_counters () =
  let module Metrics = Paradb_telemetry.Metrics in
  let module Hashing = Paradb_core.Hashing in
  let db =
    match Source.parse_facts "e(1, 2). e(2, 3). e(3, 1). e(3, 4)." with
    | Ok db -> db
    | Error e -> Alcotest.fail e
  in
  let counter name = Metrics.counter_value (Metrics.counter name) in
  let q = Parser.parse_cq "ans(X, Z) :- e(X, Y), e(Y, Z), X != Z." in
  let fpt = Plan.analyze Plan.Fpt q in
  let rows ?family () = Plan.sorted_tuples (Plan.evaluate ?family fpt db q) in
  let sweep = rows () in
  let before = counter "engine.trials" in
  let random =
    rows ~family:(Hashing.Random_trials { trials = 7; seed = 1 }) ()
  in
  Alcotest.(check int) "random family runs its trials" 7
    (counter "engine.trials" - before);
  Alcotest.(check bool) "random answers are a subset of the sweep's" true
    (List.for_all (fun r -> List.mem r sweep) random);
  let naive = Plan.analyze Plan.Naive q in
  let before = counter "naive.probes" in
  Alcotest.(check (list string)) "naive agrees with the sweep" sweep
    (Plan.sorted_tuples (Plan.evaluate naive db q));
  (* the first atom scans 4 tuples, then each of its 4 bindings scans 4 *)
  Alcotest.(check int) "naive probes counted" 20
    (counter "naive.probes" - before)

(* ------------------------------------------------------------------ *)
(* Session dispatch (no sockets) *)

let write_temp_facts text = Test_support.write_temp_facts text

let summary_of = function
  | Protocol.Ok_ { summary; _ } -> summary
  | Protocol.Err e -> Alcotest.failf "unexpected ERR %s" e

let payload_of = function
  | Protocol.Ok_ { payload; _ } -> payload
  | Protocol.Err e -> Alcotest.failf "unexpected ERR %s" e

let contains = Test_support.contains

(* The value of one [name value] line of a STATS payload. *)
let stats_field stats name =
  match
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ k; v ] when k = name -> int_of_string_opt v
        | _ -> None)
      stats
  with
  | Some v -> v
  | None -> Alcotest.failf "STATS lacks %s" name

let test_session_dispatch () =
  let shared = Session.make_shared ~cache_capacity:8 () in
  let session = Session.create shared in
  let run line = Option.get (fst (Session.handle_line session line)) in
  let path = write_temp_facts "e(1, 2). e(2, 3). e(3, 1). e(2, 2).\n" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (* LOAD *)
  Alcotest.(check bool) "load ok" true
    (contains (summary_of (run (Printf.sprintf "LOAD g %s" path))) "tuples=4");
  (* EVAL, all engines agree on an acyclic != query *)
  let answers engine =
    payload_of
      (run (Printf.sprintf "EVAL g %s ans(X, Y) :- e(X, Y), X != Y." engine))
  in
  let reference = answers "naive" in
  Alcotest.(check (list string)) "fpt = naive" reference (answers "fpt");
  Alcotest.(check int) "three rows" 3 (List.length reference);
  (* the same query under renamed variables is a cache hit *)
  let renamed = run "EVAL g fpt ans(A, B) :- e(A, B), A != B." in
  Alcotest.(check bool) "cache hit" true
    (contains (summary_of renamed) "cache=hit");
  Alcotest.(check (list string)) "hit payload identical" (answers "fpt")
    (payload_of renamed);
  (* FACT bumps the catalog generation: cached plans for the old
     snapshot are stranded and the next EVAL rebuilds against the new
     data (a compiled closure must never see a snapshot it was not
     compiled for) *)
  Alcotest.(check bool) "fact ok" true
    (contains (summary_of (run "FACT g e(9, 1).")) "tuples=5");
  Alcotest.(check int) "new row visible" 4 (List.length (answers "naive"));
  (* FACT onto a fresh entry creates it *)
  Alcotest.(check bool) "fact creates db" true
    (contains (summary_of (run "FACT h r(1).")) "h tuples=1");
  (* CHECK *)
  let check_payload = payload_of (run "CHECK ans(X) :- e(X, Y), X != Y.") in
  Alcotest.(check bool) "check reports engine" true
    (List.exists
       (fun l -> contains l "recommended_engine: compiled")
       check_payload);
  Alcotest.(check bool) "check reports class" true
    (List.exists (fun l -> contains l "class: acyclic") check_payload);
  (* STATS *)
  let field name = stats_field (payload_of (run "STATS")) name in
  (* hits: renamed query + repeated fpt eval before the FACT; misses:
     naive cold, fpt cold, and naive again after FACT bumped the
     generation (generation-scoped keys strand the old entry) *)
  Alcotest.(check int) "cache hits counted" 2 (field "server.cache_hits");
  Alcotest.(check int) "cache misses counted" 3 (field "server.cache_misses");
  Alcotest.(check int) "catalog sizes" 5 (field "db.g");
  (* METRICS: a single JSON line carrying quantile fields, and STATS
     carries the same snapshot as telemetry.* table lines *)
  let metrics = payload_of (run "METRICS") in
  Alcotest.(check int) "metrics payload is one line" 1 (List.length metrics);
  Alcotest.(check bool) "metrics reports p99" true
    (contains (List.hd metrics) "\"p99\"");
  Alcotest.(check bool) "metrics reports per-verb latency" true
    (contains (List.hd metrics) "server.verb.eval.ns");
  Alcotest.(check bool) "metrics reports key-index builds" true
    (contains (List.hd metrics) "relation.key_index.builds");
  Alcotest.(check bool) "metrics reports order-index counters" true
    (contains (List.hd metrics) "dictionary.order.builds"
    && contains (List.hd metrics) "dictionary.order.extends");
  Alcotest.(check bool) "metrics reports both semijoin sides" true
    (contains (List.hd metrics) "relation.semijoin.probe"
    && contains (List.hd metrics) "relation.semijoin.scan");
  Alcotest.(check bool) "stats carries telemetry lines" true
    (List.exists
       (fun l -> contains l "telemetry.server.plan_cache.hits")
       (payload_of (run "STATS")));
  (* errors *)
  let expect_err line =
    match run line with
    | Protocol.Err _ -> ()
    | Protocol.Ok_ _ -> Alcotest.failf "%s: expected ERR" line
  in
  expect_err "EVAL nosuch auto ans(X) :- e(X, Y).";
  expect_err "EVAL g warp ans(X) :- e(X, Y).";
  expect_err "EVAL g auto ans(X) :- ";
  expect_err "EVAL g yannakakis ans(X) :- e(X, Y), e(Y, Z), e(Z, X).";
  expect_err "LOAD g /nonexistent/path.facts";
  expect_err "FACT g r(1";
  (* QUIT *)
  Alcotest.(check int) "errors counted" 6 (field "server.errors");
  Alcotest.(check int) "session mirrors server errors" 6 (field "session.errors");
  match Session.handle_line session "QUIT" with
  | _, `Quit -> ()
  | _, `Continue -> Alcotest.fail "QUIT should end the session"

(* Regression: the plan cache must never serve a compiled closure built
   against a superseded catalog snapshot.  Both mutation paths — FACT
   (append) and LOAD (replace) — bump the generation, so a warm auto
   (compiled) plan is re-prepared and the answers reflect the new data. *)
let test_compiled_cache_staleness () =
  let shared = Session.make_shared ~cache_capacity:8 () in
  let session = Session.create shared in
  let run line = Option.get (fst (Session.handle_line session line)) in
  let path1 = write_temp_facts "e(1, 2). e(2, 3).\n" in
  let path2 = write_temp_facts "e(7, 8).\n" in
  Fun.protect ~finally:(fun () ->
      Sys.remove path1;
      Sys.remove path2)
  @@ fun () ->
  (match run (Printf.sprintf "LOAD g %s" path1) with
  | Protocol.Ok_ _ -> ()
  | Protocol.Err e -> Alcotest.failf "LOAD failed: %s" e);
  let eval () = payload_of (run "EVAL g auto ans(X, Y) :- e(X, Y).") in
  Alcotest.(check int) "compiled sees the initial snapshot" 2
    (List.length (eval ()));
  (* warm the cache, then append: the second eval must not replay the
     closure compiled over the 2-tuple snapshot *)
  Alcotest.(check bool) "warm eval is a cache hit" true
    (contains (summary_of (run "EVAL g auto ans(X, Y) :- e(X, Y)."))
       "cache=hit");
  let old_keys = Plan_cache.keys shared.Session.cache in
  (match run "FACT g e(5, 5)." with
  | Protocol.Ok_ _ -> ()
  | Protocol.Err e -> Alcotest.failf "FACT failed: %s" e);
  Alcotest.(check int) "compiled sees the appended fact" 3
    (List.length (eval ()));
  (* the superseded generation's entries are gone, not merely stranded *)
  let keys = Plan_cache.keys shared.Session.cache in
  Alcotest.(check bool) "new generation cached" true (keys <> []);
  Alcotest.(check bool) "no key of the old generation" false
    (List.exists (fun k -> List.mem k old_keys) keys);
  (* full replacement via LOAD: same key text, different snapshot *)
  (match run (Printf.sprintf "LOAD g %s" path2) with
  | Protocol.Ok_ _ -> ()
  | Protocol.Err e -> Alcotest.failf "reLOAD failed: %s" e);
  let rows = eval () in
  Alcotest.(check int) "compiled sees the replacement db" 1
    (List.length rows);
  Alcotest.(check bool) "replacement rows, not stale ones" true
    (List.exists (fun r -> contains r "7") rows)

(* A warm request is served from the plan cache: it counts a hit and
   compiles no pipeline.  Governance armed on every axis but never
   tripped changes no byte of an answer.  Each session runs one EVAL and
   one COUNT cold, then both again warm. *)
let test_warm_hits_skip_compile_and_governance_is_transparent () =
  let module Metrics = Paradb_telemetry.Metrics in
  let module Guard = Paradb_server.Guard in
  let counter name = Metrics.counter_value (Metrics.counter name) in
  let compile_work () =
    ( counter "compile.pipelines",
      counter "compile.count_pipelines",
      (Metrics.histogram_read (Metrics.histogram "planner.compile_ns")).count
    )
  in
  let query = "ans(X, Z) :- e(X, Y), e(Y, Z), X != Z." in
  let requests = [ "EVAL g auto " ^ query; "COUNT g auto " ^ query ] in
  let payloads ?limits () =
    let session =
      Session.create (Session.make_shared ?limits ~cache_capacity:8 ())
    in
    let run line = Option.get (fst (Session.handle_line session line)) in
    ignore (summary_of (run "LOAD g ../examples/graph.facts"));
    let hits () = stats_field (payload_of (run "STATS")) "server.cache_hits" in
    let serve () = List.map (fun r -> payload_of (run r)) requests in
    let before_cold = compile_work () in
    let cold = serve () in
    let before_warm = compile_work () and hits_before = hits () in
    let warm = serve () in
    Alcotest.(check bool) "cold run compiles" true (before_warm <> before_cold);
    Alcotest.(check bool) "warm run compiles nothing" true
      (compile_work () = before_warm);
    Alcotest.(check int) "warm run hits the cache twice" 2
      (hits () - hits_before);
    Alcotest.(check (list (list string))) "warm payloads = cold" cold warm;
    cold
  in
  let governed =
    payloads
      ~limits:
        {
          Guard.default_limits with
          deadline_ns = Some 60_000_000_000;
          max_rows = Some 1_000_000;
          idle_timeout = Some 300.0;
        }
      ()
  in
  Alcotest.(check (list (list string))) "governed payloads = ungoverned"
    (payloads ()) governed

(* EXPLAIN renders the planner's physical plan without touching any
   database *)
let test_explain_verb () =
  let shared = Session.make_shared ~cache_capacity:4 () in
  let session = Session.create shared in
  let run line = Option.get (fst (Session.handle_line session line)) in
  (match run "EXPLAIN ans(X, Z) :- e(X, Y), e(Y, Z)." with
  | Protocol.Ok_ { summary; payload } ->
      Alcotest.(check bool) "summary names the class" true
        (contains summary "class=acyclic");
      let has s = List.exists (fun l -> contains l s) payload in
      Alcotest.(check bool) "payload shows classification" true
        (has "class: acyclic");
      Alcotest.(check bool) "payload shows a scan step" true (has "scan");
      Alcotest.(check bool) "payload shows a probe step" true (has "probe")
  | Protocol.Err e -> Alcotest.failf "EXPLAIN failed: %s" e);
  (match run "EXPLAIN ans(X) :- e(X, Y), e(Y, Z), e(Z, X)." with
  | Protocol.Ok_ { summary; _ } ->
      Alcotest.(check bool) "cyclic query classified" true
        (contains summary "class=low-width")
  | Protocol.Err e -> Alcotest.failf "EXPLAIN (cyclic) failed: %s" e);
  match run "EXPLAIN ans(X) :- " with
  | Protocol.Err _ -> ()
  | Protocol.Ok_ _ -> Alcotest.fail "EXPLAIN on a parse error should ERR"

(* COUNT: one bare-count payload line, multiplicity semantics (number
   of satisfying valuations, not dedup'd answers), every counting
   engine agrees, and fpt refuses with a pointed message.  COUNT and
   EVAL cache entries live in separate keyspaces, so interleaving the
   two verbs on the same query must never cross-serve a payload. *)
let test_count_verb () =
  let shared = Session.make_shared ~cache_capacity:8 () in
  let session = Session.create shared in
  let run line = Option.get (fst (Session.handle_line session line)) in
  let path = write_temp_facts "e(1, 2). e(1, 3). e(2, 3).\n" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  ignore (run (Printf.sprintf "LOAD g %s" path));
  let count engine q =
    match run (Printf.sprintf "COUNT g %s %s" engine q) with
    | Protocol.Err e -> Alcotest.failf "COUNT %s %s: ERR %s" engine q e
    | Protocol.Ok_ { summary; payload } -> (
        Alcotest.(check bool)
          ("summary carries count=: " ^ summary)
          true
          (contains summary "count=");
        match payload with
        | [ n ] -> (
            match int_of_string_opt n with
            | Some n -> n
            | None -> Alcotest.failf "payload %S is not an int" n)
        | _ -> Alcotest.failf "expected one payload line for %s" q)
  in
  (* boolean head over 3 edges: 3 valuations, but only 1 answer row *)
  let q = "q() :- e(X, Y)." in
  List.iter
    (fun engine ->
      Alcotest.(check int) ("valuations via " ^ engine) 3 (count engine q))
    [ "auto"; "naive"; "yannakakis"; "compiled" ];
  (match run ("EVAL g auto " ^ q) with
  | Protocol.Ok_ { payload; _ } ->
      Alcotest.(check int) "answer set stays dedup'd" 1 (List.length payload)
  | Protocol.Err e -> Alcotest.failf "EVAL: %s" e);
  (* interleaved warm hits keep their own caches *)
  Alcotest.(check int) "warm count unchanged" 3 (count "auto" q);
  (* empty-body ground queries count 1/0 by constraint truth *)
  Alcotest.(check int) "ground true" 1 (count "auto" "q() :- 1 < 2.");
  Alcotest.(check int) "ground false" 0 (count "auto" "q() :- 2 < 1.");
  match run ("COUNT g fpt " ^ q) with
  | Protocol.Err e ->
      Alcotest.(check bool) ("fpt refusal: " ^ e) true
        (contains e "cannot count")
  | Protocol.Ok_ _ -> Alcotest.fail "COUNT with fpt should ERR"

(* COUNT never answers a wrapped number.  On the complete 40-node
   graph a 12-edge path has 40^13 valuations, past [max_int]: the
   compiled sink (memo replay and subtree sums) and the annotated
   Yannakakis products both answer ERR count-overflow, while a 3-edge
   path still counts exactly.  Under the [unchecked_add] mutant the
   compiled sink wraps, which this test must catch. *)
let k40_session () =
  let shared = Session.make_shared ~cache_capacity:8 () in
  let session = Session.create shared in
  let run line = Option.get (fst (Session.handle_line session line)) in
  let path = write_temp_facts (Test_support.complete_graph_facts 40) in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  ignore (summary_of (run (Printf.sprintf "LOAD g %s" path)));
  run

let test_count_overflow () =
  let run = k40_session () in
  Alcotest.(check (list string)) "3-edge path counts exactly" [ "2560000" ]
    (payload_of (run ("COUNT g auto " ^ Test_support.path_query 3)));
  List.iter
    (fun engine ->
      match run (Printf.sprintf "COUNT g %s %s" engine (Test_support.path_query 12)) with
      | Protocol.Err e ->
          Alcotest.(check string) ("12-edge path via " ^ engine) "count-overflow" e
      | Protocol.Ok_ { summary; _ } ->
          Alcotest.failf "12-edge path via %s answered %s" engine summary)
    [ "auto"; "yannakakis" ]

let test_mutant_unchecked_add () =
  Unix.putenv "PARADB_MUTATE" "unchecked_add";
  Fun.protect ~finally:(fun () -> Unix.putenv "PARADB_MUTATE" "") @@ fun () ->
  let run = k40_session () in
  match run ("COUNT g compiled " ^ Test_support.path_query 12) with
  | Protocol.Ok_ _ -> () (* 40^13 fits no int: any count is wrapped *)
  | Protocol.Err e -> Alcotest.failf "mutant survived: ERR %s" e

(* DIGEST: a deterministic per-relation content fingerprint — identical
   databases agree, any content change disagrees.  REPAIR is the
   coordinator's verb and must refuse cleanly on a plain server. *)
let test_digest_verb () =
  let session_with facts =
    let shared = Session.make_shared ~cache_capacity:4 () in
    let session = Session.create shared in
    let run line = Option.get (fst (Session.handle_line session line)) in
    List.iter
      (fun f ->
        match run ("FACT g " ^ f) with
        | Protocol.Ok_ _ -> ()
        | Protocol.Err e -> Alcotest.failf "FACT %s: %s" f e)
      facts;
    run
  in
  let digest run =
    match run "DIGEST g" with
    | Protocol.Ok_ { summary; payload } -> (summary, payload)
    | Protocol.Err e -> Alcotest.failf "DIGEST: %s" e
  in
  let facts = [ "e(1, 2)."; "e(2, 3)."; "f(1, 10)." ] in
  let _, p1 = digest (session_with facts) in
  (* same content, different insertion order: identical fingerprints *)
  let _, p2 = digest (session_with (List.rev facts)) in
  Alcotest.(check (list string)) "order-independent" p1 p2;
  Alcotest.(check int) "one line per relation" 2 (List.length p1);
  List.iter
    (fun l ->
      Alcotest.(check bool) ("line shape: " ^ l) true
        (String.length l > 9 && String.sub l 0 9 = "relation "))
    p1;
  (* a one-row change flips that relation's line and only that line *)
  let _, p3 = digest (session_with ("e(9, 9)." :: facts)) in
  let diff = List.filter (fun l -> not (List.mem l p1)) p3 in
  (match diff with
  | [ l ] ->
      Alcotest.(check bool) "changed line is e's" true (contains l "relation e ")
  | _ -> Alcotest.failf "expected exactly one changed line, got %d"
           (List.length diff));
  (* unknown database and the coordinator-only verb both ERR *)
  let run = session_with facts in
  (match run "DIGEST nope" with
  | Protocol.Err e ->
      Alcotest.(check bool) "names the database" true (contains e "no database")
  | Protocol.Ok_ _ -> Alcotest.fail "DIGEST on a missing database");
  match run "REPAIR g" with
  | Protocol.Err e ->
      Alcotest.(check bool) "points at the coordinator" true
        (contains e "coordinator")
  | Protocol.Ok_ _ -> Alcotest.fail "REPAIR must be coordinator-only"

(* ------------------------------------------------------------------ *)
(* Concurrency: 8 parallel connections, answers bit-identical to
   single-shot evaluation (acceptance criterion) *)

let test_concurrent_sessions () =
  let rng = Random.State.make [| 42 |] in
  let db =
    Paradb_workload.Generators.edge_database rng ~nodes:40 ~edges:160
  in
  let path = write_temp_facts (Fact_format.to_string db) in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (* a mixed workload hitting all four engines *)
  let queries =
    [
      ("fpt", "ans(X, Y) :- e(X, Z), e(Z, Y), X != Y, X != Z, Z != Y.");
      ("auto", "ans(X, Y) :- e(X, Z), e(Z, Y).");
      ("naive", "ans(X) :- e(X, Y), e(Y, Z), e(Z, X).");
      ("auto", "ans(X, Y) :- e(X, Y), X < Y.");
      ("yannakakis", "ans(X) :- e(X, X).");
    ]
  in
  (* single-shot reference answers, same process, same dictionary *)
  let expected =
    List.map
      (fun (engine, text) ->
        let q = Parser.parse_cq text in
        let kind = Option.get (Plan.engine_kind_of_string engine) in
        let plan = Plan.analyze kind q in
        Plan.sorted_tuples (Plan.evaluate plan db q))
      queries
  in
  let server =
    Server.start ~port:0 ~workers:8 (Session.make_shared ~cache_capacity:32 ())
  in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let port = Server.port server in
  Client.with_connection ~port (fun c ->
      match Client.request_line c (Printf.sprintf "LOAD g %s" path) with
      | Protocol.Ok_ _ -> ()
      | Protocol.Err e -> Alcotest.failf "LOAD failed: %s" e);
  let rounds = 3 in
  let client_task id () =
    Client.with_connection ~port (fun c ->
        let mismatches = ref [] in
        for round = 0 to rounds - 1 do
          List.iteri
            (fun i ((engine, text), want) ->
              (* rotate the starting point so connections interleave
                 differently *)
              let j = (i + id + round) mod List.length queries in
              let engine, text, want =
                if j = i then (engine, text, want)
                else
                  let e, t = List.nth queries j in
                  (e, t, List.nth expected j)
              in
              match
                Client.request_line c
                  (Printf.sprintf "EVAL g %s %s" engine text)
              with
              | Protocol.Ok_ { payload; _ } ->
                  if payload <> want then
                    mismatches := (id, round, text) :: !mismatches
              | Protocol.Err e -> mismatches := (id, round, e) :: !mismatches)
            (List.combine queries expected)
        done;
        !mismatches)
  in
  let clients = Array.init 8 (fun id -> Domain.spawn (client_task id)) in
  let mismatches = Array.to_list clients |> List.concat_map Domain.join in
  (match mismatches with
  | [] -> ()
  | (id, round, what) :: _ ->
      Alcotest.failf "%d mismatched answers; first: client %d round %d (%s)"
        (List.length mismatches) id round what);
  (* repeat queries must have hit the plan cache *)
  Client.with_connection ~port (fun c ->
      match Client.request_line c "STATS" with
      | Protocol.Ok_ { payload; _ } ->
          let hits =
            List.find_map
              (fun l ->
                match String.split_on_char ' ' l with
                | [ "server.cache_hits"; v ] -> int_of_string_opt v
                | _ -> None)
              payload
          in
          Alcotest.(check bool) "cache hits over the wire" true
            (match hits with Some h -> h > 0 | None -> false)
      | Protocol.Err e -> Alcotest.failf "STATS failed: %s" e)

let test_server_stop_is_idempotent () =
  let server =
    Server.start ~port:0 ~workers:2 (Session.make_shared ~cache_capacity:4 ())
  in
  let port = Server.port server in
  Client.with_connection ~port (fun c ->
      match Client.request_line c "CHECK ans(X) :- e(X, Y)." with
      | Protocol.Ok_ _ -> ()
      | Protocol.Err e -> Alcotest.fail e);
  Server.stop server;
  Server.stop server;
  (* the port is released: a fresh server can bind it again *)
  let server2 =
    Server.start ~port ~workers:1 (Session.make_shared ~cache_capacity:4 ())
  in
  Server.stop server2

(* ------------------------------------------------------------------ *)
(* Answer encoder: the code-level sort and render behind EVAL, GATHER
   and DIGEST, checked against the decode-and-sort definitions it
   replaced. *)

module Relation = Paradb_relational.Relation
module Dictionary = Paradb_relational.Dictionary
module Crc32 = Paradb_storage.Crc32

let old_digest_line r =
  let crc =
    List.fold_left
      (fun c line -> Crc32.feed_string c (line ^ "\n"))
      Crc32.init (Test_support.sorted_fact_lines r)
    |> Crc32.finish
  in
  Printf.sprintf "relation %s %d %d %08x" (Relation.name r) (Relation.arity r)
    (Relation.cardinality r) crc

let take n l = List.filteri (fun i _ -> i < n) l

(* Values whose text order, code order and value order all disagree:
   negative and extreme ints, digit-only and empty strings, strings
   holding the cell separator or parentheses. *)
let tricky_value rng =
  match Random.State.int rng 9 with
  | 0 -> Value.Int (Random.State.int rng 9 - 4)
  | 1 -> Value.Int (Random.State.int rng 2_000_001 - 1_000_000)
  | 2 -> Value.Int (if Random.State.bool rng then max_int else min_int)
  | 3 -> Value.Str (string_of_int (Random.State.int rng 12))
  | 4 -> Value.Str ""
  | 5 -> Value.Str "a, b"
  | 6 -> Value.Str (if Random.State.bool rng then "(x)" else "f(1, 2)")
  | 7 -> Value.Str "-3"
  | _ -> Value.Str (String.make 1 (Char.chr (97 + Random.State.int rng 3)))

(* The encoder radix-sorts an answer of at least D/8 cells, D the
   number of codes its order index covers, and compare-sorts a smaller
   one.  A [big] answer is sized from the process dictionary's current
   size to land on the radix side whatever it interns; otherwise it
   holds at most 24 rows, the compare side once D has grown past 8x its
   cells. *)
let sized_answer rng ~arity ~big =
  let rows =
    if big && arity > 0 then
      (Dictionary.size Dictionary.global / (7 * arity))
      + 1 + Random.State.int rng 8
    else Random.State.int rng 25
  in
  Relation.create ~name:"ans"
    ~schema:(List.init arity (Printf.sprintf "a%d"))
    (List.init rows (fun _ -> Array.init arity (fun _ -> tricky_value rng)))

(* Which sort each encoded answer took, read back from the order index
   the encoder used: both must be reached. *)
let radix_sorted = ref 0
let compare_sorted = ref 0

let count_side r =
  let o = Dictionary.order Dictionary.global ~covering:0 in
  let cells = Relation.cardinality r * Relation.arity r in
  incr (if 8 * cells >= o.Dictionary.covered then radix_sorted else compare_sorted)

let random_answer rng =
  sized_answer rng ~arity:(Random.State.int rng 5)
    ~big:(Random.State.int rng 4 = 0)

(* The encoder across dictionary growth: an answer encoded, then values
   interned between its own (so every rank after the first insertion
   point moves), then the same answer and one over the new codes
   encoded again. *)
let grown_answers_match rng =
  let answer () =
    sized_answer rng ~arity:(1 + Random.State.int rng 3)
      ~big:(Random.State.bool rng)
  in
  let matches r =
    let limit = Random.State.int rng (Relation.cardinality r + 3) - 1 in
    let ok =
      Plan.sorted_tuples r = Test_support.sorted_rows r
      && Plan.sorted_tuples ~limit r = take limit (Test_support.sorted_rows r)
      && Session.fact_lines r = Test_support.sorted_fact_lines r
    in
    count_side r;
    ok
  in
  let before = answer () in
  let first = matches before in
  for _ = 1 to Random.State.int rng 40 do
    ignore (Dictionary.intern Dictionary.global (tricky_value rng))
  done;
  first && matches before && matches (answer ())

let test_both_sorts_reached () =
  Alcotest.(check bool) "radix side reached" true (!radix_sorted > 0);
  Alcotest.(check bool) "compare side reached" true (!compare_sorted > 0)

let encoder_tests =
  [
    Qgen.seeded_property ~name:"encoder = decode-and-sort reference"
      ~count:400 (fun rng ->
        let r = random_answer rng in
        let limit = Random.State.int rng (Relation.cardinality r + 3) - 1 in
        let tuples = Test_support.sorted_rows r in
        let facts = Test_support.sorted_fact_lines r in
        let ok =
          Plan.sorted_tuples r = tuples
          && Plan.sorted_tuples ~limit r = take limit tuples
          && Session.fact_lines r = facts
          && Session.fact_lines ~limit r = take limit facts
        in
        count_side r;
        ok);
    Qgen.seeded_property ~name:"encoder = reference across dictionary growth"
      ~count:200 grown_answers_match;
  ]

let tricky_facts =
  [
    "m(1, -3)."; "m(2, \"10\")."; "m(3, \"a, b\")."; "m(4, \"\")."; "m(5, x).";
    "m(-6, 7)."; "m(7, \"(p)\")."; "m(8, \"-3\")."; "m(\"8\", 8).";
  ]

let tricky_query = "ans(X, Y) :- m(X, Y)."

let tricky_session ?limits () =
  let shared = Session.make_shared ?limits ~cache_capacity:4 () in
  let session = Session.create shared in
  let run line = Option.get (fst (Session.handle_line session line)) in
  List.iter (fun f -> ignore (summary_of (run ("FACT g " ^ f)))) tricky_facts;
  run

(* EVAL, GATHER and DIGEST answer byte-identically to the decode, sort
   and print definitions they replaced. *)
let test_answers_match_reference () =
  let db =
    match Source.parse_facts (String.concat "\n" tricky_facts) with
    | Ok db -> db
    | Error e -> Alcotest.fail e
  in
  let m = Database.find db "m" in
  let answer = Relation.with_name "ans" m in
  let run = tricky_session () in
  Alcotest.(check (list string)) "EVAL lines"
    (Test_support.sorted_rows answer)
    (payload_of (run ("EVAL g auto " ^ tricky_query)));
  Alcotest.(check (list string)) "GATHER lines" (Test_support.sorted_fact_lines answer)
    (payload_of (run ("GATHER g " ^ tricky_query)));
  Alcotest.(check (list string)) "DIGEST line" [ old_digest_line m ]
    (payload_of (run "DIGEST g"))

(* Under --max-rows the encoder renders only the lines it sends: the
   first [m] of the unlimited answer, with the full count and the
   truncation marker in the summary. *)
let test_max_rows_prefix () =
  let full = tricky_session () in
  let capped =
    tricky_session
      ~limits:{ Paradb_server.Guard.default_limits with max_rows = Some 3 }
      ()
  in
  List.iter
    (fun verb ->
      let line = verb ^ tricky_query in
      let r = capped line in
      Alcotest.(check (list string)) (line ^ ": first 3 lines")
        (take 3 (payload_of (full line)))
        (payload_of r);
      Alcotest.(check bool) (line ^ ": full count kept") true
        (contains (summary_of r) "rows=9");
      Alcotest.(check bool) (line ^ ": marked truncated") true
        (contains (summary_of r) "truncated=true"))
    [ "EVAL g auto "; "GATHER g " ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "parse requests" `Quick test_parse_request;
          Alcotest.test_case "request line roundtrip" `Quick
            test_request_line_roundtrip;
          Alcotest.test_case "framing abuse" `Quick test_response_framing_abuse;
          Alcotest.test_case "response framing roundtrip" `Quick
            test_response_roundtrip;
        ] );
      ( "plan cache",
        [
          Alcotest.test_case "key invariance" `Quick test_cache_key_invariance;
          Alcotest.test_case "lru discipline" `Quick test_lru_discipline;
          Alcotest.test_case "superseded generations dropped" `Quick
            test_superseded_generations;
          Alcotest.test_case "dispatch decisions" `Quick test_plan_dispatch;
          Alcotest.test_case "family and counters" `Quick
            test_plan_family_and_counters;
        ] );
      ( "session",
        [
          Alcotest.test_case "dispatch" `Quick test_session_dispatch;
          Alcotest.test_case "compiled cache never serves a stale snapshot"
            `Quick test_compiled_cache_staleness;
          Alcotest.test_case
            "warm hits skip compile, governance is transparent" `Quick
            test_warm_hits_skip_compile_and_governance_is_transparent;
          Alcotest.test_case "explain verb" `Quick test_explain_verb;
          Alcotest.test_case "count verb" `Quick test_count_verb;
          Alcotest.test_case "digest verb" `Quick test_digest_verb;
          Alcotest.test_case "count overflow is an error" `Quick
            test_count_overflow;
          Alcotest.test_case "mutant unchecked_add is caught" `Quick
            test_mutant_unchecked_add;
        ] );
      ( "encoder",
        Alcotest.test_case "answers match the decode-and-sort reference"
          `Quick test_answers_match_reference
        :: Alcotest.test_case "max-rows renders a prefix" `Quick
             test_max_rows_prefix
        :: List.map QCheck_alcotest.to_alcotest encoder_tests
        @ [
            Alcotest.test_case "properties reach both sort paths" `Quick
              test_both_sorts_reached;
          ] );
      ( "concurrency",
        [
          Alcotest.test_case "8 parallel connections, bit-identical answers"
            `Quick test_concurrent_sessions;
          Alcotest.test_case "stop is idempotent and releases the port" `Quick
            test_server_stop_is_idempotent;
        ] );
    ]
