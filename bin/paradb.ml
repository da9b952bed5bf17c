(* paradb — command-line front end.

   Subcommands:
     eval      parse a fact file and a query, evaluate with a chosen engine
     check     static analysis of a query: acyclicity, I1/I2 partition,
               comparison consistency, join tree
     datalog   bottom-up evaluation of a Datalog program
     generate  emit a sample workload as a fact file
     compact   convert a fact file into an mmap-able segment directory
     serve     resident TCP query server (catalog + plan cache)
     coordinator  sharded scatter-gather front end over shard servers
     client    line-protocol client for a running server
     stats     telemetry snapshot of a running server
     fuzz      differential cross-engine equivalence fuzzing *)

module Relation = Paradb_relational.Relation
module Database = Paradb_relational.Database
module Value = Paradb_relational.Value
module Hypergraph = Paradb_hypergraph.Hypergraph
module Join_tree = Paradb_hypergraph.Join_tree
module Engine = Paradb_core.Engine
module Hashing = Paradb_core.Hashing
module Planner = Paradb_planner.Planner
module Metrics = Paradb_telemetry.Metrics
module Plan = Paradb_server.Plan
module Guard = Paradb_server.Guard
module Fault = Paradb_server.Fault
module Server = Paradb_server.Server
module Client = Paradb_server.Client
module Protocol = Paradb_server.Protocol
open Paradb_query
open Cmdliner

module Store = Paradb_storage.Store
module Segment = Paradb_storage.Segment

(* file reading and parse-error wrapping live in Paradb_query.Source,
   the code path shared with the server's LOAD and the client;
   Store.load_database adds segment-directory support on top *)
let read_file = Source.read_file
let load_database = Store.load_database
let parse_query = Source.parse_query

(* Exit-code discipline (documented in every subcommand's man page):
   0 on success — a Boolean query answering "false" is a success —
   and 1 on parse, I/O and usage errors. *)
let exits =
  [
    Cmd.Exit.info 0
      ~doc:
        "on success.  A Boolean query whose answer is $(i,false) (an empty \
         answer set) is a success, not a failure.";
    Cmd.Exit.info 1 ~doc:"on parse errors, I/O errors and command line usage errors.";
  ]

(* ------------------------------------------------------------------ *)
(* Arguments *)

let db_arg =
  let doc =
    "Fact file ('-' for stdin): lines like 'edge(1, 2).'  A directory is \
     opened as a compacted segment store (see $(b,paradb compact))."
  in
  Arg.(required & opt (some string) None & info [ "d"; "db" ] ~docv:"FILE" ~doc)

let query_arg =
  let doc = "The query, e.g. 'ans(X) :- e(X, Y), X != Y.'" in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)

let engine_arg =
  let kinds =
    List.map
      (fun k -> (Plan.engine_kind_name k, k))
      Plan.[ Auto; Naive; Yannakakis; Fpt; Compiled ]
  in
  let doc =
    "Evaluation engine: auto (the compiled planner pipeline), naive \
     (backtracking), yannakakis (acyclic, no constraints), fpt (the \
     Theorem-2 engine for acyclic queries with !=), compiled (the \
     structure-aware plan lowered to fused push-based operators)."
  in
  Arg.(value & opt (enum kinds) Plan.Auto & info [ "e"; "engine" ] ~doc)

let family_arg =
  let doc =
    "Hash family for the fpt engine: 'sweep' (deterministic, exact) or \
     'random' (Monte-Carlo, c*e^k trials)."
  in
  Arg.(value & opt (enum [ ("sweep", `Sweep); ("random", `Random) ]) `Sweep
       & info [ "family" ] ~doc)

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Random seed.")

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ] ~doc:"Print work counters as '%' lines before the answer.")

let trace_arg =
  let doc =
    "Write a span trace to $(docv), one JSON object per line (see \
     DESIGN.md, section \"Telemetry\").  When absent, the \
     $(b,PARADB_TRACE) environment variable enables the same trace."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* [--trace] wins over PARADB_TRACE; a bad path or a malformed
   environment value is a usage error, reported like any other. *)
let with_trace trace f =
  match
    match trace with
    | Some file -> Paradb_telemetry.Trace.enable ~file
    | None -> Paradb_telemetry.Trace.init_from_env ()
  with
  | exception Invalid_argument msg | exception Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | () -> f ()

(* ------------------------------------------------------------------ *)
(* eval *)

let family_of kind ~k ~seed =
  match kind with
  | `Sweep -> Hashing.Multiplicative_sweep
  | `Random ->
      Hashing.Random_trials
        { trials = Hashing.default_trials ~c:3.0 ~k; seed }

(* The counters are zeroed before the plan is built, so every nonzero
   one was moved by this run: planning, compiling and evaluating. *)
let print_stats plan =
  let p = plan.Plan.pplan in
  Printf.printf "%% plan class: %s, width %d\n"
    (Planner.classification_name p.Planner.classification)
    p.Planner.width;
  List.iter
    (fun (name, v) -> if v <> 0 then Printf.printf "%% %s: %d\n" name v)
    (Metrics.snapshot ()).Metrics.counters

let run_eval db_path query_text engine family seed count stats trace =
  with_trace trace @@ fun () ->
  match load_database db_path, parse_query query_text with
  | Error e, _ | _, Error e ->
      Printf.eprintf "error: %s\n" e;
      1
  | Ok db, Ok q -> (
      try
        Metrics.reset ();
        let plan = Plan.analyze engine q in
        (* run now, print last: the stats lines come before the answer
           but must read the counters the run moved *)
        let print_answer =
          if count then
            let n = Plan.count plan db q in
            fun () -> Printf.printf "%d\n" n
          else
            let family = family_of family ~k:plan.Plan.neq_k ~seed in
            let r = Plan.evaluate ~family plan db q in
            fun () -> Format.printf "%a@." Relation.pp r
        in
        if stats then print_stats plan;
        Printf.printf "%% engine: %s\n" (Plan.engine_name plan.Plan.engine);
        print_answer ();
        0
      with
      | Paradb_yannakakis.Yannakakis.Cyclic_query | Engine.Cyclic_query ->
          Printf.eprintf
            "error: the query hypergraph is cyclic; use --engine naive\n";
          1
      | Invalid_argument msg ->
          Printf.eprintf "error: %s\n" msg;
          1
      | Paradb_relational.Semiring.Count_overflow ->
          Printf.eprintf "error: %s\n" Paradb_server.Session.count_overflow;
          1)

let count_arg =
  Arg.(
    value & flag
    & info [ "count" ]
        ~doc:
          "Print the exact answer count — the number of satisfying \
           valuations of the body variables (Nat-semiring semantics) — \
           instead of the answer set.  Supported by the auto, naive, \
           yannakakis and compiled engines.")

let eval_cmd =
  let doc = "Evaluate a query over a fact file." in
  Cmd.v
    (Cmd.info "eval" ~doc ~exits)
    Term.(
      const run_eval $ db_arg $ query_arg $ engine_arg $ family_arg $ seed_arg
      $ count_arg $ stats_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* check *)

let dot_arg =
  Arg.(value & flag
       & info [ "dot" ] ~doc:"Also print the join tree in GraphViz format.")

let run_check query_text dot =
  match parse_query query_text with
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
  | Ok q ->
      Format.printf "query: %a@." Cq.pp q;
      Format.printf "size q = %d, variables v = %d@." (Cq.size q) (Cq.num_vars q);
      let h = Hypergraph.of_cq q in
      let acyclic = Hypergraph.is_acyclic h in
      Format.printf "hypergraph: %a@.acyclic: %b@." Hypergraph.pp h acyclic;
      (if Cq.neq_only q then begin
         let part = Paradb_core.Ineq.partition q in
         Format.printf "inequalities: %a@." Paradb_core.Ineq.pp part
       end
       else
         match Paradb_core.Comparisons.preprocess q with
         | Paradb_core.Comparisons.Inconsistent ->
             Format.printf
               "comparisons: inconsistent (query is empty on every database)@."
         | Paradb_core.Comparisons.Collapsed q' ->
             Format.printf "comparisons: consistent; collapsed: %a@." Cq.pp q');
      let plan = Plan.analyze Plan.Auto q in
      let pplan = plan.Plan.pplan in
      (match
         List.filter_map
           (fun p -> p.Planner.tree)
           (Planner.connected_plans pplan)
       with
      | [] -> Format.printf "no join tree (cyclic or empty body)@."
      | trees ->
          (* a join forest prints one tree per acyclic component, its
             nodes numbered within the component *)
          List.iter
            (fun tree ->
              Format.printf "%a@." Join_tree.pp tree;
              if dot then print_string (Join_tree.to_dot tree))
            trees);
      Format.printf "plan class: %s, width %d@."
        (Planner.classification_name pplan.Planner.classification)
        pplan.Planner.width;
      List.iter (Format.printf "  %s@.") (Planner.explain pplan);
      Format.printf "recommended engine: %s@." (Plan.engine_name plan.Plan.engine);
      0

let check_cmd =
  let doc = "Analyze a query: acyclicity, partition, join tree." in
  Cmd.v (Cmd.info "check" ~doc ~exits) Term.(const run_check $ query_arg $ dot_arg)

(* ------------------------------------------------------------------ *)
(* datalog *)

let program_arg =
  let doc = "Datalog program file ('-' for stdin)." in
  Arg.(required & opt (some string) None & info [ "p"; "program" ] ~docv:"FILE" ~doc)

let goal_arg =
  let doc = "Goal (output) predicate." in
  Arg.(required & opt (some string) None & info [ "g"; "goal" ] ~docv:"NAME" ~doc)

let strategy_arg =
  let doc = "Fixpoint strategy." in
  Arg.(value
       & opt (enum [ ("naive", Paradb_datalog.Engine.Naive);
                     ("seminaive", Paradb_datalog.Engine.Seminaive) ])
           Paradb_datalog.Engine.Seminaive
       & info [ "strategy" ] ~doc)

let run_datalog db_path program_path goal strategy stats trace =
  with_trace trace @@ fun () ->
  match load_database db_path with
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
  | Ok db -> (
      match
        match read_file program_path with
        | exception Sys_error msg -> Error msg
        | text -> Source.parse_program text ~goal
      with
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          1
      | Ok program ->
          let s = Paradb_datalog.Engine.new_stats () in
          let r = Paradb_datalog.Engine.evaluate ~strategy ~stats:s db program in
          if stats then
            Printf.printf "%% rounds: %d, derivations: %d\n"
              s.Paradb_datalog.Engine.rounds s.Paradb_datalog.Engine.derived;
          Format.printf "%a@." Relation.pp r;
          0)

let datalog_cmd =
  let doc = "Run a Datalog program bottom-up." in
  Cmd.v
    (Cmd.info "datalog" ~doc ~exits)
    Term.(
      const run_datalog $ db_arg $ program_arg $ goal_arg $ strategy_arg
      $ stats_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* generate *)

let scenario_arg =
  let doc = "Scenario: employees | students | salaries | edges." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO" ~doc)

let size_arg =
  Arg.(value & opt int 20 & info [ "n"; "size" ] ~doc:"Workload size knob.")

let print_facts db = Fact_format.print stdout db

let run_generate scenario size seed =
  let rng = Random.State.make [| seed |] in
  let module G = Paradb_workload.Generators in
  match scenario with
  | "employees" ->
      let db, q = G.employees_multi_project rng ~employees:size ~projects:(max 2 (size / 3)) ~assignments:(2 * size) in
      Printf.printf "%% query: %s\n" (Cq.to_string q);
      print_facts db;
      0
  | "students" ->
      let db, q =
        G.students_outside_department rng ~students:size ~courses:size
          ~departments:(max 2 (size / 5)) ~enrollments:(2 * size)
      in
      Printf.printf "%% query: %s\n" (Cq.to_string q);
      print_facts db;
      0
  | "salaries" ->
      let db, q = G.employees_higher_salary rng ~employees:size ~max_salary:100 in
      Printf.printf "%% query: %s\n" (Cq.to_string q);
      print_facts db;
      0
  | "edges" ->
      print_facts (G.edge_database rng ~nodes:size ~edges:(4 * size));
      0
  | other ->
      Printf.eprintf "error: unknown scenario %s\n" other;
      1

let generate_cmd =
  let doc = "Emit a sample workload as a fact file." in
  Cmd.v
    (Cmd.info "generate" ~doc ~exits)
    Term.(const run_generate $ scenario_arg $ size_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* compact *)

let out_dir_arg =
  let doc =
    "Output segment directory (created if missing).  May be omitted when \
     the input is itself a segment store: the store is then folded in \
     place."
  in
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"DIR" ~doc)

let run_compact db_path out =
  match out with
  | None when Store.is_store db_path -> (
      match Store.fold_in_place ~dir:db_path with
      | exception Sys_error msg | exception Segment.Corrupt msg ->
          Printf.eprintf "error: storage: %s\n" msg;
          1
      | before, after, bytes ->
          Printf.printf "folded %s in place: segments %d -> %d bytes=%d\n"
            db_path before after bytes;
          0)
  | None ->
      Printf.eprintf
        "error: %s is not a segment store; name an output directory with \
         --out\n"
        db_path;
      1
  | Some out -> (
      match load_database db_path with
      | Error e ->
          Printf.eprintf "error: %s\n" e;
          1
      | Ok db -> (
          match Store.compact ~dir:out db with
          | exception Sys_error msg | exception Segment.Corrupt msg ->
              Printf.eprintf "error: storage: %s\n" msg;
              1
          | bytes ->
              Printf.printf
                "compacted %s: relations=%d tuples=%d bytes=%d -> %s\n" db_path
                (List.length (Database.relations db))
                (Database.size db) bytes out;
              0))

let compact_cmd =
  let doc = "Compact a fact file (or segment store) into a segment directory." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Writes one checksummed columnar segment per relation plus a \
         MANIFEST into $(b,--out).  The result opens by $(b,mmap) — \
         $(b,paradb eval -d DIR), $(b,LOAD db DIR), or $(b,paradb serve \
         --data-dir) skip text parsing entirely.  Compacting an existing \
         store rewrites it as one segment per relation (squashing \
         accumulated delta segments).";
      `P
        "When $(b,--db) names a segment store and $(b,--out) is omitted, \
         the store is folded in place: delta segments accumulated by a \
         server's $(b,LOAD)/$(b,FACT) are unioned into one fresh segment \
         per relation, the MANIFEST is swapped atomically, and the old \
         segment files are removed.  A server must re-attach (restart) to \
         see the folded layout; until then it keeps serving its immutable \
         mmap snapshots safely.";
      `P
        "Every section of a segment file carries a CRC-32: a flipped byte \
         anywhere fails validation with a clean error naming the file, \
         never a silently wrong answer.";
    ]
  in
  Cmd.v
    (Cmd.info "compact" ~doc ~man ~exits)
    Term.(const run_compact $ db_arg $ out_dir_arg)

(* ------------------------------------------------------------------ *)
(* serve *)

let host_arg =
  Arg.(value & opt string "127.0.0.1"
       & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind or connect to.")

let port_arg ~default =
  Arg.(value & opt int default
       & info [ "p"; "port" ] ~docv:"PORT" ~doc:"TCP port (0 = ephemeral).")

let workers_arg =
  let doc = "Worker domains draining the connection queue." in
  Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc)

let cache_arg =
  let doc = "Plan cache capacity (LRU entries)." in
  Arg.(value & opt int 128 & info [ "cache-size" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc =
    "Per-request evaluation deadline in milliseconds.  An $(b,EVAL) that \
     outlives it is cancelled cooperatively and answered with $(b,ERR) \
     $(b,deadline-exceeded); the worker survives.  Unlimited when absent."
  in
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let max_line_arg =
  let doc = "Maximum request-line length in bytes; longer lines answer $(b,ERR)." in
  Arg.(value & opt int Guard.default_limits.Guard.max_line
       & info [ "max-line" ] ~docv:"BYTES" ~doc)

let max_rows_arg =
  let doc =
    "Maximum result rows per response; wider results are truncated and \
     marked $(b,truncated=true) in the summary.  Unlimited when absent."
  in
  Arg.(value & opt (some int) None & info [ "max-rows" ] ~docv:"N" ~doc)

let idle_timeout_arg =
  let doc =
    "Seconds a connection may sit idle between requests before the server \
     closes it.  Unlimited when absent."
  in
  Arg.(value & opt (some float) None & info [ "idle-timeout" ] ~docv:"SECONDS" ~doc)

let grace_arg =
  let doc =
    "Graceful-shutdown window in seconds: on SIGINT/SIGTERM the server \
     stops accepting, lets in-flight requests finish for up to $(docv), \
     then force-closes the stragglers."
  in
  Arg.(value & opt float 2.0 & info [ "grace" ] ~docv:"SECONDS" ~doc)

(* The request limits and the shutdown grace, shared by [serve] and
   [coordinator]: one set of flags, validated in one place. *)
let limits_term =
  let make deadline_ms max_line max_rows idle_timeout grace =
    let bad_opt bad = function Some v -> bad v | None -> false in
    if
      bad_opt (fun v -> v <= 0) deadline_ms
      || max_line < 1
      || bad_opt (fun v -> v <= 0) max_rows
      || bad_opt (fun v -> v <= 0.0) idle_timeout
      || grace < 0.0
    then
      Error
        "--deadline-ms, --max-rows and --idle-timeout must be positive, \
         --max-line at least 1, --grace non-negative"
    else
      Ok
        ( {
            Guard.deadline_ns = Option.map (fun ms -> ms * 1_000_000) deadline_ms;
            max_line;
            max_rows;
            idle_timeout;
          },
          grace )
  in
  Term.(
    const make $ deadline_arg $ max_line_arg $ max_rows_arg $ idle_timeout_arg
    $ grace_arg)

let data_dir_arg =
  let doc =
    "Durable catalog root.  Segment stores under $(docv) are attached at \
     startup (a corrupt store aborts startup with a clean error), and \
     every $(b,LOAD)/$(b,FACT) persists as delta segments — the catalog \
     survives restarts."
  in
  Arg.(value & opt (some string) None & info [ "data-dir" ] ~docv:"DIR" ~doc)

let durability_arg =
  let doc =
    "Fsync discipline for store publishes: $(b,full) syncs segment \
     bytes, manifest and directory in write order before acknowledging \
     (an acked write survives power loss), $(b,async) queues the same \
     syncs to a background flusher (kill-safe, small power-loss \
     window), $(b,off) never syncs.  Overrides $(b,PARADB_DURABILITY); \
     default $(b,full)."
  in
  Arg.(value & opt (some string) None & info [ "durability" ] ~docv:"MODE" ~doc)

let compact_after_arg =
  let doc =
    "Background compaction threshold: fold any store that accumulates \
     $(docv) or more live segments back to one segment per relation, \
     in a domain off the request path.  $(b,0) disables the sweeper."
  in
  Arg.(value & opt int 32 & info [ "compact-after" ] ~docv:"N" ~doc)

let compact_interval_arg =
  let doc = "Seconds between background compaction scans." in
  Arg.(value & opt float 10.0 & info [ "compact-interval" ] ~docv:"SECONDS" ~doc)

(* Startup shared by [serve] and [coordinator]: the durability mode
   (the CLI flag wins over PARADB_DURABILITY; the coordinator's hint
   journal honours it too) and PARADB_FAULTS.  A bad value raises
   [Invalid_argument]. *)
let init_process durability =
  (match durability with
  | Some s -> (
      match Paradb_storage.Durability.of_string s with
      | Some m -> Paradb_storage.Durability.set m
      | None ->
          invalid_arg
            (Printf.sprintf "--durability: expected full, async or off, got %S"
               s))
  | None -> Paradb_storage.Durability.init_from_env ());
  Fault.init_from_env ()

(* The lifecycle shared by [serve] and [coordinator].  [start limits]
   opens the listener and returns the server with [announce], which
   prints the startup lines that scripts wait for, starts any background
   work and returns the hook to run before [Server.stop]; [after_stop]
   runs last.  The SIGINT/SIGTERM handlers go in between: a signal
   during a long attach still ends the process at once, and one sent
   right after the startup lines is never lost.  The handler only flips
   a flag: the main domain polls it and runs the graceful stop itself,
   since handlers should not join domains. *)
let run_server limits ~trace ?durability ?(after_stop = ignore) ~host ~port
    start =
  match limits with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok (limits, grace) -> (
      with_trace trace @@ fun () ->
      match
        init_process durability;
        start limits
      with
      | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "error: cannot listen on %s:%d: %s\n" host port
            (Unix.error_message e);
          1
      | exception (Segment.Corrupt msg | Sys_error msg) ->
          Printf.eprintf "error: storage: %s\n" msg;
          1
      | exception Invalid_argument msg ->
          Printf.eprintf "error: %s\n" msg;
          1
      | server, announce ->
          let stop_requested = Atomic.make false in
          List.iter
            (fun sg ->
              try
                Sys.set_signal sg
                  (Sys.Signal_handle (fun _ -> Atomic.set stop_requested true))
              with Invalid_argument _ | Sys_error _ -> ())
            [ Sys.sigint; Sys.sigterm ];
          let before_stop = announce () in
          if Fault.active () then
            Printf.printf "paradb: fault injection enabled (PARADB_FAULTS)\n%!";
          while not (Atomic.get stop_requested) do
            try Unix.sleepf 0.1 with Unix.Unix_error (EINTR, _, _) -> ()
          done;
          Printf.printf "paradb: shutting down (grace %.1fs)\n%!" grace;
          before_stop ();
          Server.stop ~grace server;
          after_stop ();
          0)

let run_serve host port workers cache_size trace data_dir durability
    compact_after compact_interval limits =
  if workers < 1 || cache_size < 1 then begin
    Printf.eprintf "error: --workers and --cache-size must be positive\n";
    1
  end
  else if compact_after < 0 || compact_interval <= 0.0 then begin
    Printf.eprintf
      "error: --compact-after must be non-negative, --compact-interval \
       positive\n";
    1
  end
  else begin
    (* flush any async-mode fsyncs still queued, so a clean shutdown
       leaves nothing owed to the disk *)
    run_server limits ~trace ?durability
      ~after_stop:Paradb_storage.Durability.drain ~host ~port
    @@ fun limits ->
    let shared =
      Paradb_server.Session.make_shared ~limits ?data_dir
        ~cache_capacity:cache_size ()
    in
    let catalog = shared.Paradb_server.Session.catalog in
    let server = Server.start ~host ~port ~workers shared in
    ( server,
      fun () ->
        Printf.printf
          "paradb: listening on %s:%d (%d workers, plan cache %d)\n%!" host
          (Server.port server) workers cache_size;
        if data_dir <> None then
          List.iter
            (fun (name, tuples) ->
              Printf.printf "paradb: attached %s (%d tuples)\n%!" name tuples)
            (Paradb_server.Catalog.entries catalog);
        if compact_after >= 2 && data_dir <> None then begin
          Printf.printf
            "paradb: background compaction at %d segments (every %.1fs, \
             durability %s)\n\
             %!"
            compact_after compact_interval
            (Paradb_storage.Durability.to_string
               (Paradb_storage.Durability.mode ()));
          let compactor =
            Paradb_server.Compactor.start ~catalog ~min_segments:compact_after
              ~interval:compact_interval
          in
          fun () -> Paradb_server.Compactor.stop compactor
        end
        else ignore )
  end

let serve_cmd =
  let doc = "Run the resident query server (catalog + plan cache)." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Serves the line protocol: $(b,LOAD) $(i,DB) $(i,PATH), $(b,FACT) \
         $(i,DB) $(i,FACT), $(b,EVAL) $(i,DB) $(i,ENGINE) $(i,QUERY), \
         $(b,CHECK) $(i,QUERY), $(b,EXPLAIN) $(i,QUERY), $(b,STATS), \
         $(b,METRICS) and $(b,QUIT).  \
         Responses are framed as $(b,OK) $(i,N) $(i,SUMMARY) followed by \
         $(i,N) payload lines, or a single $(b,ERR) $(i,MESSAGE) line.  See \
         DESIGN.md, section \"Server protocol\".";
      `P
        "Resource governance: $(b,--deadline-ms), $(b,--max-line), \
         $(b,--max-rows) and $(b,--idle-timeout) bound each request's \
         evaluation time, line length, result size and connection \
         idleness; every rejection is an $(b,ERR) response plus a \
         telemetry counter, never a dropped worker.  The \
         $(b,PARADB_FAULTS) environment variable (e.g. \
         'short_read:0.1,disconnect:0.05,seed:42') enables fault \
         injection for chaos testing.";
      `P
        "With $(b,--data-dir), the catalog is durable: each database is a \
         directory of immutable checksummed segment files under the data \
         dir, attached by $(b,mmap) at startup; $(b,LOAD) appends delta \
         segments instead of re-ingesting and $(b,FACT) persists each \
         fact, both swapped in atomically under a fresh snapshot \
         generation.  Run $(b,paradb compact) offline to squash a \
         database's deltas back to one segment per relation, or let the \
         background sweeper do it: with $(b,--compact-after) $(i,N) (N >= \
         2) a dedicated domain folds any database that accumulates \
         $(i,N) live segments, off the request path, publishing the \
         result with the same atomic-rename protocol as every other \
         write.";
      `P
        "Durability: $(b,--durability) (or $(b,PARADB_DURABILITY)) picks \
         the fsync discipline.  $(b,full) (the default) syncs segment \
         bytes, then the manifest, then the directory entry before a \
         write is acknowledged, so an acked write survives $(b,kill -9) \
         and power loss.  $(b,async) queues the same syncs to a \
         background flusher: crash-consistent (recovery never sees a \
         half-published store) with a small window where an acked write \
         may be lost to power failure.  $(b,off) never syncs; only the \
         rename ordering protects you.  On every open the store \
         quarantines leftover temp files and unreferenced segments to \
         $(b,orphans/) rather than trusting or deleting them \
         ($(b,storage.orphans.cleaned) counts them).  See DESIGN.md, \
         section \"Durability model\".";
      `P
        "Stop the server with SIGINT or SIGTERM: it stops accepting, \
         drains in-flight requests for up to $(b,--grace) seconds, then \
         force-closes the rest.";
    ]
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man ~exits)
    Term.(
      const run_serve $ host_arg $ port_arg ~default:7411 $ workers_arg
      $ cache_arg $ trace_arg $ data_dir_arg $ durability_arg
      $ compact_after_arg $ compact_interval_arg $ limits_term)

(* ------------------------------------------------------------------ *)
(* coordinator *)

module Coordinator = Paradb_cluster.Coordinator

let shards_list_arg =
  let doc =
    "Comma-separated $(i,HOST:PORT) list of shard servers (a bare port \
     means 127.0.0.1).  List position is the shard id: keep the order \
     stable across restarts or data placement will not line up."
  in
  Arg.(required & opt (some string) None
       & info [ "shards" ] ~docv:"LIST" ~doc)

let replicas_arg =
  let doc =
    "Copies of each slice, including the primary.  Replica $(i,r) of \
     slice $(i,s) lives on shard $(i,s+r) (mod shards) under the entry \
     name $(i,db@r)$(i,r); reads fail over to it when the primary is \
     unreachable."
  in
  Arg.(value & opt int 1 & info [ "replicas" ] ~docv:"N" ~doc)

let shard_timeout_arg =
  let doc =
    "Seconds to wait for each shard sub-request (also bounds shard \
     connects).  A request deadline, when set, shrinks this further per \
     sub-request."
  in
  Arg.(value & opt (some float) (Some 30.0)
       & info [ "shard-timeout" ] ~docv:"SECONDS" ~doc)

let shard_retries_arg =
  let doc = "Connect retries per shard dial, with jittered backoff." in
  Arg.(value & opt int 2 & info [ "shard-retries" ] ~docv:"N" ~doc)

let max_inflight_arg =
  let doc =
    "Admission cap: concurrent $(b,EVAL)/$(b,GATHER) requests beyond \
     $(docv) are answered $(b,ERR admission-limited) instead of queueing \
     behind the shards.  Unlimited when absent."
  in
  Arg.(value & opt (some int) None & info [ "max-inflight" ] ~docv:"N" ~doc)

let hints_dir_arg =
  let doc =
    "Hinted-handoff journal directory.  A replica write that misses (its \
     shard is down or answers $(b,ERR)) is appended here as a per-shard \
     hint frame and replayed, in order, before the next write reaches \
     that shard.  Without it, missed replica writes are only counted and \
     logged, and divergence persists until $(b,REPAIR)."
  in
  Arg.(value & opt (some string) None
       & info [ "hints-dir" ] ~docv:"DIR" ~doc)

let run_coordinator host port workers shards replicas shard_timeout
    shard_retries max_inflight hints_dir limits trace =
  if workers < 1 then begin
    Printf.eprintf "error: --workers must be positive\n";
    1
  end
  else
    match Client.parse_addrs shards with
    | Error e ->
        Printf.eprintf "error: --shards: %s\n" e;
        1
    | Ok addrs when replicas < 1 || replicas > List.length addrs ->
        Printf.eprintf
          "error: --replicas must be between 1 and the number of --shards \
           (%d)\n"
          (List.length addrs);
        1
    | Ok _ when Option.fold ~none:false ~some:(fun m -> m < 1) max_inflight ->
        Printf.eprintf "error: --max-inflight must be positive\n";
        1
    | Ok _
      when Option.fold ~none:false ~some:(fun s -> not (s > 0.0)) shard_timeout
      ->
        Printf.eprintf "error: --shard-timeout must be positive\n";
        1
    | Ok addrs ->
        run_server limits ~trace ~host ~port @@ fun limits ->
        let coord =
          Coordinator.create
            {
              Coordinator.addrs = Array.of_list addrs;
              replicas;
              timeout = shard_timeout;
              retries = shard_retries;
              limits;
              max_inflight;
              hints_dir;
            }
        in
        let server = Coordinator.serve ~host coord ~port ~workers in
        ( server,
          fun () ->
            Printf.printf
              "paradb: coordinating %d shards on %s:%d (%d workers, %d \
               replicas)\n\
               %!"
              (List.length addrs) host (Server.port server) workers replicas;
            ignore )

let coordinator_cmd =
  let doc = "Run a scatter-gather coordinator over shard servers." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Speaks the same line protocol as $(b,paradb serve) but owns no \
         data: $(b,LOAD) hash-partitions every relation on its first \
         column over a consistent-hashing ring and ships one slice per \
         shard (plus replicas) as $(b,BULK) frames; $(b,EVAL) runs as \
         scatter-gather rounds — co-partitioned queries evaluate \
         shard-side in one round, general queries exchange per-atom \
         reducer relations (semijoin-reduced shard-side) and join at the \
         coordinator.  Answers are bit-for-bit identical to a single \
         server's.";
      `P
        "Failure handling: pooled shard connections redial once, reads \
         fail over along the replica ranks, and a request that exhausts \
         its replicas answers a clean $(b,ERR) naming the dead shard.  \
         $(b,--deadline-ms) is enforced at the coordinator and propagated \
         to every shard sub-request as a shrinking socket timeout; \
         $(b,--max-inflight) admission-limits concurrent evaluation on \
         top.  $(b,STATS) surfaces per-round and per-shard latency \
         histograms ($(b,telemetry.cluster.*)) — straggler p99 included.";
      `P
        "Replica self-healing: a write that misses a replica (but not the \
         primary) is counted on $(b,cluster.write.replica_miss), logged, \
         and — with $(b,--hints-dir) — journaled and replayed when the \
         shard returns (hinted handoff).  $(b,DIGEST) $(i,DB) compares \
         per-slice replica content fingerprints and reports divergence; \
         $(b,REPAIR) $(i,DB) replays hints and re-ships every divergent \
         slice with the union of all readable ranks' content.  See \
         DESIGN.md, section \"Durability model\".";
    ]
  in
  Cmd.v
    (Cmd.info "coordinator" ~doc ~man ~exits)
    Term.(
      const run_coordinator $ host_arg $ port_arg ~default:7410 $ workers_arg
      $ shards_list_arg $ replicas_arg $ shard_timeout_arg
      $ shard_retries_arg $ max_inflight_arg $ hints_dir_arg $ limits_term
      $ trace_arg)

(* ------------------------------------------------------------------ *)
(* client *)

let command_args =
  let doc =
    "Command to send (repeatable, sent in order).  Without any, commands \
     are read from standard input, one per line."
  in
  Arg.(value & opt_all string [] & info [ "c"; "command" ] ~docv:"CMD" ~doc)

let timeout_arg =
  let doc =
    "Seconds to wait for the connect and for each response before giving \
     up.  Unlimited when absent."
  in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let retries_arg =
  let doc =
    "Connect retries on refusal/reset/timeout, with exponential backoff \
     and jitter."
  in
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)

let addr_arg =
  let doc =
    "Comma-separated $(i,HOST:PORT) failover list (a bare port means \
     127.0.0.1).  Overrides $(b,--host)/$(b,--port); connect attempts \
     rotate through the list with jittered exponential backoff, so a \
     dead server is skipped instead of failing the client."
  in
  Arg.(value & opt (some string) None & info [ "addr" ] ~docv:"LIST" ~doc)

(* Resolve --addr against --host/--port and run [f] over the resulting
   failover connection.  The error paths mirror the single-address
   client's. *)
let with_any_connection ~host ~port ~timeout ~retries ~addr f =
  let addrs =
    match addr with
    | None -> Ok [ (host, port) ]
    | Some list -> Client.parse_addrs ~default_host:host list
  in
  match addrs with
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      Error 1
  | Ok addrs -> (
      match
        let conn = Client.connect_any ?timeout ~retries addrs () in
        Fun.protect ~finally:(fun () -> Client.close conn) (fun () -> f conn)
      with
      | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "error: cannot connect to %s: %s\n"
            (String.concat ","
               (List.map (fun (h, p) -> Printf.sprintf "%s:%d" h p) addrs))
            (Unix.error_message e);
          Error 1
      | exception Failure msg ->
          Printf.eprintf "error: %s\n" msg;
          Error 1
      | v -> Ok v)

let run_client host port timeout retries addr commands =
  let commands =
    if commands <> [] then commands
    else
      In_channel.input_lines In_channel.stdin
      |> List.filter (fun l -> String.trim l <> "")
  in
  match
    with_any_connection ~host ~port ~timeout ~retries ~addr (fun conn ->
        List.fold_left
          (fun failed line ->
            let response = Client.request_line conn line in
            List.iter print_endline (Protocol.response_to_lines response);
            failed || match response with Protocol.Err _ -> true | _ -> false)
          false commands)
  with
  | Error code -> code
  | Ok failed -> if failed then 1 else 0

let client_cmd =
  let doc = "Send protocol commands to a running server." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Each command's framed response is printed verbatim ($(b,OK)/$(b,ERR) \
         line, then the payload lines).  The exit status is 1 if any \
         command was answered with $(b,ERR).";
    ]
  in
  Cmd.v
    (Cmd.info "client" ~doc ~man ~exits)
    Term.(
      const run_client $ host_arg $ port_arg ~default:7411 $ timeout_arg
      $ retries_arg $ addr_arg $ command_args)

(* ------------------------------------------------------------------ *)
(* stats *)

let json_arg =
  let doc =
    "Print the $(b,METRICS) snapshot (one JSON object) instead of the \
     $(b,STATS) counter table."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let run_stats host port timeout retries addr json =
  let request = if json then "METRICS" else "STATS" in
  match
    with_any_connection ~host ~port ~timeout ~retries ~addr (fun conn ->
        Client.request_line conn request)
  with
  | Error code -> code
  | Ok (Protocol.Err msg) ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok (Protocol.Ok_ { payload; _ }) ->
      List.iter print_endline payload;
      0

let stats_cmd =
  let doc = "Print a running server's counters and latency telemetry." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Sends $(b,STATS) (or, with $(b,--json), $(b,METRICS)) to the \
         server and prints the payload.  The table includes per-verb \
         latency histograms as $(b,telemetry.server.verb.)$(i,VERB) \
         $(b,.p50)/$(b,.p95)/$(b,.p99) lines (nanoseconds); the JSON \
         form carries the same snapshot as a single object.";
    ]
  in
  Cmd.v
    (Cmd.info "stats" ~doc ~man ~exits)
    Term.(
      const run_stats $ host_arg $ port_arg ~default:7411 $ timeout_arg
      $ retries_arg $ addr_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* fuzz *)

module Oracle = Paradb_oracle.Oracle
module Oracle_engines = Paradb_oracle.Engines
module Oracle_gen = Paradb_oracle.Gen

let fuzz_exits =
  exits
  @ [ Cmd.Exit.info 2 ~doc:"when cross-engine divergences were found." ]

let cases_arg =
  Arg.(value & opt int 500
       & info [ "cases" ] ~docv:"N" ~doc:"Number of generated cases.")

let fuzz_seed_arg =
  Arg.(value & opt int 42
       & info [ "seed" ]
           ~doc:"Base seed; case $(i,i) draws from an RNG keyed on (seed, i).")

let max_vars_arg =
  Arg.(value & opt int 8
       & info [ "max-vars" ] ~docv:"N"
           ~doc:"Size knob for generated queries (bounds atoms/variables).")

let max_tuples_arg =
  Arg.(value & opt int 16
       & info [ "max-tuples" ] ~docv:"N"
           ~doc:"Upper bound on tuples per generated relation.")

let engines_filter_arg =
  let doc =
    Printf.sprintf
      "Comma-separated subset of engines to compare (default: all).  Known: \
       %s."
      (String.concat ", " Oracle_engines.names)
  in
  Arg.(value & opt (some string) None
       & info [ "engines" ] ~docv:"NAMES" ~doc)

let out_arg =
  Arg.(value & opt (some string) None
       & info [ "out" ] ~docv:"DIR"
           ~doc:"Directory (created if missing) for shrunk .case files.")

let replay_arg =
  Arg.(value & opt (some string) None
       & info [ "replay" ] ~docv:"FILE"
           ~doc:"Replay a .case counterexample instead of fuzzing.")

let print_instance (inst : Oracle_gen.instance) =
  Printf.printf "  %s: %s\n"
    (match inst.Oracle_gen.shape with
    | Oracle_gen.Query _ -> "query"
    | Oracle_gen.Sentence _ -> "sentence")
    (Oracle_gen.shape_to_string inst.Oracle_gen.shape);
  String.split_on_char '\n' (Fact_format.to_string inst.Oracle_gen.db)
  |> List.iter (fun line -> if line <> "" then Printf.printf "  | %s\n" line)

let print_divergence (d : Oracle.divergence) =
  Printf.printf
    "divergence: engine=%s case=%d class=%s shrink_steps=%d atoms=%d \
     tuples=%d\n"
    d.Oracle.engine d.Oracle.index d.Oracle.label d.Oracle.shrink_steps
    (Oracle_gen.atoms d.Oracle.shrunk.Oracle_gen.shape)
    (Oracle_gen.tuple_count d.Oracle.shrunk);
  print_instance d.Oracle.shrunk;
  Printf.printf "  expected: %s\n"
    (Oracle_engines.outcome_to_string d.Oracle.expected);
  Printf.printf "  got:      %s\n"
    (Oracle_engines.outcome_to_string d.Oracle.got);
  Option.iter (Printf.printf "  case file: %s\n") d.Oracle.case_path

let run_replay path =
  match Oracle.replay path with
  | exception Sys_error msg | exception Failure msg
  | exception Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | exception Parser.Parse_error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | inst, engine, reference, got, agree ->
      Printf.printf "replay: engine=%s\n" engine;
      print_instance inst;
      Printf.printf "  reference: %s\n"
        (Oracle_engines.outcome_to_string reference);
      Printf.printf "  engine:    %s\n"
        (Oracle_engines.outcome_to_string got);
      if agree then begin
        Printf.printf "replay: engines agree — counterexample is stale\n";
        0
      end
      else begin
        Printf.printf "replay: divergence reproduced\n";
        2
      end

let run_fuzz seed cases max_vars max_tuples engines out replay trace =
  with_trace trace @@ fun () ->
  (* Honor PARADB_FAULTS in the fuzz harness too: the serve and cluster
     engines then run with shard loss / stragglers / short reads
     injected, and the oracle checks answers stay bit-for-bit anyway. *)
  match Fault.init_from_env () with
  | exception Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | () -> (
  match replay with
  | Some path -> run_replay path
  | None ->
      if cases < 1 || max_vars < 1 || max_tuples < 1 then begin
        Printf.eprintf
          "error: --cases, --max-vars and --max-tuples must be positive\n";
        1
      end
      else begin
        let engines =
          Option.map
            (fun s ->
              String.split_on_char ',' s
              |> List.map String.trim
              |> List.filter (fun n -> n <> ""))
            engines
        in
        let cfg =
          { Oracle.seed; cases; max_vars; max_tuples; engines; out_dir = out }
        in
        Option.iter
          (Printf.printf "fuzz: mutation armed: %s\n%!")
          (Paradb_telemetry.Mutate.active ());
        let progress i =
          if (i + 1) mod 1_000 = 0 then
            Printf.eprintf "fuzz: %d/%d cases\n%!" (i + 1) cases
        in
        match Oracle.run ~progress cfg with
        | exception Invalid_argument msg ->
            Printf.eprintf "error: %s\n" msg;
            1
        | report ->
            List.iter print_divergence report.Oracle.divergences;
            Printf.printf
              "fuzz: seed=%d cases=%d comparisons=%d divergences=%d \
               shrink_steps=%d\n"
              seed report.Oracle.cases_run report.Oracle.comparisons
              (List.length report.Oracle.divergences)
              report.Oracle.shrink_steps;
            if report.Oracle.divergences = [] then 0 else 2
      end)

let fuzz_cmd =
  let doc = "Differential fuzzing: cross-engine equivalence on random instances." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates seeded random (query, database) instances — acyclic and \
         cyclic conjunctive queries, with and without $(b,!=) and \
         order-comparison constraints, plus positive first-order sentences \
         — and runs each through every applicable engine path: the naive \
         backtracking reference, both join algorithms, Yannakakis, the \
         Theorem-2 fpt engine (deterministic sweep and Monte-Carlo \
         colorings), the comparison-preprocessing path, bottom-up Datalog, \
         the FO evaluator, and a live $(b,paradb serve) round-trip.  \
         Deterministic engines must reproduce the reference answer set \
         bit-for-bit; the Monte-Carlo family must produce a subset (its \
         error is one-sided).";
      `P
        "On divergence the instance is shrunk (drop atoms and constraints, \
         merge variables, drop tuples, collapse domain values) to a minimal \
         counterexample, printed and — with $(b,--out) — written as a \
         replayable $(b,.case) file; $(b,--replay) re-checks one.  The \
         $(b,PARADB_MUTATE) environment variable arms a known single-point \
         bug (see DESIGN.md §12) so CI can verify the oracle catches it.";
    ]
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc ~man ~exits:fuzz_exits)
    Term.(
      const run_fuzz $ fuzz_seed_arg $ cases_arg $ max_vars_arg
      $ max_tuples_arg $ engines_filter_arg $ out_arg $ replay_arg $ trace_arg)

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc =
    "Parameterized query evaluation (Papadimitriou & Yannakakis, PODS 1997)"
  in
  Cmd.group (Cmd.info "paradb" ~version:"1.26.0" ~doc ~exits)
    [
      eval_cmd; check_cmd; datalog_cmd; generate_cmd; compact_cmd; serve_cmd;
      coordinator_cmd; client_cmd; stats_cmd; fuzz_cmd;
    ]

let () =
  (* usage and CLI parse errors exit 1, not cmdliner's default 124 *)
  match Cmd.eval_value main_cmd with
  | Ok (`Ok code) -> exit code
  | Ok (`Version | `Help) -> exit 0
  | Error _ -> exit 1
