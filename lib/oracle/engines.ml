module Cq = Paradb_query.Cq
module Fo = Paradb_query.Fo
module Atom = Paradb_query.Atom
module Rule = Paradb_query.Rule
module Program = Paradb_query.Program
module Binding = Paradb_query.Binding
module Relation = Paradb_relational.Relation
module Tuple = Paradb_relational.Tuple
module Semiring = Paradb_relational.Semiring
module Hypergraph = Paradb_hypergraph.Hypergraph
module Cq_naive = Paradb_eval.Cq_naive
module Join_eval = Paradb_eval.Join_eval
module Fo_naive = Paradb_eval.Fo_naive
module Yannakakis = Paradb_yannakakis.Yannakakis
module Engine = Paradb_core.Engine
module Comparisons = Paradb_core.Comparisons
module Ineq = Paradb_core.Ineq
module Hashing = Paradb_core.Hashing
module Datalog = Paradb_datalog.Engine

type mode = Exact | Subset | Exact_count | Exact_cost

type outcome =
  | Rows of string list
  | Sat of bool
  | Count of int
  | Cost of int option
  | Not_applicable
  | Engine_error of string

type t = {
  name : string;
  mode : mode;
  run : Gen.instance -> outcome;
}

(* Canonical answer set: sorted tuple strings — the same serialization
   the server frames in EVAL payloads. *)
let canon rel =
  List.map Tuple.to_string (List.sort Tuple.compare (Relation.tuples rel))

let acyclic q = Hypergraph.is_acyclic (Hypergraph.of_cq q)

(* Deterministic per-row weight for the Tropical (min-cost witness)
   engines: a small positive hash of the atom index and the row's
   values over the atom's variables.  Value-based rather than
   code-based, so the engine side (pricing reduced code rows) and the
   brute-force reference (pricing bindings) agree in any process,
   replay included. *)
let cost_of_values i values =
  List.fold_left
    (fun acc v -> ((acc * 131) + Hashtbl.hash v) land 0x3f)
    (17 + (31 * i))
    values
  + 1

(* Engine side: [Yannakakis.aggregate] annotates the semijoin-reduced
   atom relations, whose schema is the atom's variables in [Atom.vars]
   order — decode the row back to values and price it. *)
let tropical_weight i rel row =
  cost_of_values i
    (Array.to_list (Array.map (Relation.decode_value rel) row))

(* Reference side: every satisfying binding prices each atom by the
   same variables in the same order, and [min] is hardcoded — a mutant
   that turns the Tropical ⊕ into a sum cannot hide in the reference. *)
let min_cost db q =
  let indexed = List.mapi (fun i a -> (i, Atom.vars a)) q.Cq.body in
  let binding_cost b =
    List.fold_left
      (fun acc (i, vars) ->
        acc
        + cost_of_values i
            (List.map
               (fun x ->
                 match Binding.find x b with
                 | Some v -> v
                 | None -> assert false)
               vars))
      0 indexed
  in
  List.fold_left
    (fun best b ->
      let c = binding_cost b in
      match best with
      | Some best -> Some (Stdlib.min best c)
      | None -> Some c)
    None
    (Cq_naive.all_bindings db q)

(* The reference path is per-contract: the answer set (or truth bit)
   for the set-semantics contracts, the brute-force valuation count for
   [Exact_count], the brute-force min-cost witness for [Exact_cost].
   Count and cost are query-only notions; a sentence instance reads as
   [Not_applicable] (and every count/cost engine guards on queries, so
   the comparison never reaches that pairing). *)
let reference mode inst =
  match (mode, inst.Gen.shape) with
  | (Exact | Subset), Gen.Query q ->
      Rows (canon (Cq_naive.evaluate inst.Gen.db q))
  | (Exact | Subset), Gen.Sentence f ->
      Sat (Fo_naive.sentence_holds inst.Gen.db f)
  | Exact_count, Gen.Query q -> Count (Cq_naive.count inst.Gen.db q)
  | Exact_cost, Gen.Query q -> Cost (min_cost inst.Gen.db q)
  | (Exact_count | Exact_cost), Gen.Sentence _ -> Not_applicable

(* [agrees] is where the one-sided engines are handled: a
   [Random_trials] coloring family may miss answers (probability ~e^-c
   per answer) but never invents them, so its contract is [Subset], not
   [Exact]. *)
let agrees ~mode ~reference got =
  match (got, reference) with
  | Not_applicable, _ -> true
  | Engine_error _, _ -> false
  | _, Engine_error _ -> false
  | Rows got, Rows want -> (
      match mode with
      | Exact -> got = want
      | Subset -> List.for_all (fun r -> List.mem r want) got
      | Exact_count | Exact_cost -> false)
  | Sat b, Rows want -> (
      match mode with
      | Exact -> b = (want <> [])
      | Subset -> (not b) || want <> []
      | Exact_count | Exact_cost -> false)
  | Sat b, Sat want -> (
      match mode with
      | Exact -> b = want
      | Subset -> (not b) || want
      | Exact_count | Exact_cost -> false)
  | Count got, Count want -> got = want
  | Cost got, Cost want -> got = want
  | (Rows _ | Sat _ | Count _ | Cost _), _ -> false

(* Adapter combinators: applicability guards run first (so an engine
   that cannot take the instance reports [Not_applicable] instead of an
   error); anything the engine raises past its guard is a finding. *)
let query_engine ~name ~mode ?(guard = fun _ -> true) f =
  let run inst =
    match inst.Gen.shape with
    | Gen.Sentence _ -> Not_applicable
    | Gen.Query q ->
        if not (guard q) then Not_applicable
        else (
          try f inst.Gen.db q
          with e -> Engine_error (Printexc.to_string e))
  in
  { name; mode; run }

let sentence_engine ~name f =
  let run inst =
    match inst.Gen.shape with
    | Gen.Query _ -> Not_applicable
    | Gen.Sentence s -> (
        try f inst.Gen.db s with e -> Engine_error (Printexc.to_string e))
  in
  { name; mode = Exact; run }

let no_constraints q = not (Cq.has_constraints q)
let acyclic_neq q = acyclic q && Cq.neq_only q

let sweep = Hashing.Multiplicative_sweep

let random_family q seed =
  let k = max 1 (Ineq.partition q).Ineq.k in
  Hashing.Random_trials { trials = Hashing.default_trials ~c:3.0 ~k; seed }

(* The goal predicate for the Datalog path; must not collide with the
   generated EDB names (r1/r2/r3, e). *)
let datalog_goal = "fz_goal"

(* Scratch directories for the storage round-trip path: one per call,
   removed afterwards even when the engine raises. *)
let segment_counter = Atomic.make 0

let with_scratch_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "paradb-oracle-seg-%d-%d" (Unix.getpid ())
         (Atomic.fetch_and_add segment_counter 1))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

(* [with_reopened db f] compacts [db] into a scratch segment directory
   and runs [f] on the mmap-reopened snapshot. *)
let with_reopened db f =
  with_scratch_dir (fun dir ->
      ignore (Paradb_storage.Store.compact ~dir db);
      f (Paradb_storage.Store.open_dir dir))

let all ?serve ?cluster () =
  [
    query_engine ~name:"naive-unordered" ~mode:Exact (fun db q ->
        Rows (canon (Cq_naive.evaluate ~order_atoms:false db q)));
    query_engine ~name:"join-hash" ~mode:Exact (fun db q ->
        Rows (canon (Join_eval.evaluate ~algorithm:Join_eval.Hash_join db q)));
    query_engine ~name:"join-merge" ~mode:Exact (fun db q ->
        Rows (canon (Join_eval.evaluate ~algorithm:Join_eval.Sort_merge db q)));
    query_engine ~name:"yannakakis" ~mode:Exact
      ~guard:(fun q -> acyclic q && no_constraints q)
      (fun db q -> Rows (canon (Yannakakis.evaluate db q)));
    query_engine ~name:"yannakakis-sat" ~mode:Exact
      ~guard:(fun q -> acyclic q && no_constraints q)
      (fun db q -> Sat (Yannakakis.is_satisfiable db q));
    query_engine ~name:"fpt" ~mode:Exact ~guard:acyclic_neq (fun db q ->
        Rows (canon (Engine.evaluate ~family:sweep db q)));
    query_engine ~name:"fpt-sat" ~mode:Exact ~guard:acyclic_neq (fun db q ->
        Sat (Engine.is_satisfiable ~family:sweep db q));
    query_engine ~name:"fpt-random" ~mode:Subset ~guard:acyclic_neq
      (fun db q ->
        Rows (canon (Engine.evaluate ~family:(random_family q 0x0dd5) db q)));
    query_engine ~name:"comparisons" ~mode:Exact (fun db q ->
        Rows (canon (Comparisons.evaluate db q)));
    (* The compiled planner pipeline: no guard — it must take every
       query class (acyclic, cyclic, constraints, comparisons) and agree
       exactly with the naive reference. *)
    query_engine ~name:"compiled" ~mode:Exact (fun db q ->
        Rows (canon (Paradb_eval.Compile.evaluate db q)));
    (* The storage round-trip: compact the database to a scratch segment
       directory, reopen it by mmap, evaluate with the naive engine.
       Both sides run the same evaluator, so any divergence (or raised
       [Corrupt]) isolates a storage bug — writer, checksum, mmap decode
       or manifest — never an engine bug. *)
    query_engine ~name:"segment" ~mode:Exact (fun db q ->
        with_reopened db (fun db -> Rows (canon (Cq_naive.evaluate db q))));
    (* The compiled pipelines over the reopened snapshot: their views and
       index probes read the sealed, segment-decoded base relations
       directly. *)
    query_engine ~name:"segment-compiled" ~mode:Exact (fun db q ->
        with_reopened db (fun db ->
            Rows (canon (Paradb_eval.Compile.evaluate db q))));
    query_engine ~name:"count-segment-compiled" ~mode:Exact_count (fun db q ->
        with_reopened db (fun db -> Count (Paradb_eval.Compile.count db q)));
    query_engine ~name:"datalog" ~mode:Exact
      ~guard:(fun q -> no_constraints q && q.Cq.body <> [])
      (fun db q ->
        let rule = Rule.make (Atom.make datalog_goal q.Cq.head) q.Cq.body in
        let program = Program.make [ rule ] ~goal:datalog_goal in
        Rows (canon (Datalog.evaluate db program)));
    (* Counting engines ([Exact_count]): the number of satisfying
       valuations under the Nat semiring, against the brute-force
       counting reference.  [count-compiled] is the warm path and must
       take every query class; [count-yannakakis] is join-tree message
       passing, acyclic and constraint-free only. *)
    query_engine ~name:"count-compiled" ~mode:Exact_count (fun db q ->
        Count (Paradb_eval.Compile.count db q));
    query_engine ~name:"count-yannakakis" ~mode:Exact_count
      ~guard:(fun q -> acyclic q && no_constraints q)
      (fun db q -> Count (Yannakakis.count db q));
    (* Min-cost witness ([Exact_cost]): the Tropical semiring over the
       deterministic per-row weights, against the brute-force min. *)
    query_engine ~name:"tropical-yannakakis" ~mode:Exact_cost
      ~guard:(fun q -> acyclic q && no_constraints q)
      (fun db q ->
        let sr = Semiring.tropical () in
        let c = Yannakakis.aggregate sr ~weight:tropical_weight db q in
        Cost (if c = max_int then None else Some c));
    query_engine ~name:"fo-sat" ~mode:Exact ~guard:Cq.neq_only (fun db q ->
        let boolean =
          Cq.make ~name:q.Cq.name ~constraints:q.Cq.constraints ~head:[]
            q.Cq.body
        in
        Sat (Fo_naive.sentence_holds db (Fo.of_boolean_cq boolean)));
    sentence_engine ~name:"positive-cqs" (fun db f ->
        Sat
          (List.exists
             (fun cq -> Cq_naive.is_satisfiable db cq)
             (Fo.positive_to_cqs f)));
  ]
  @ (match serve with
    | None -> []
    | Some live ->
        [
          query_engine ~name:"serve" ~mode:Exact (fun db q ->
              match Serve.eval live db q with
              | Ok rows -> Rows rows
              | Error e -> Engine_error e);
          query_engine ~name:"count-serve" ~mode:Exact_count (fun db q ->
              match Serve.count live db q with
              | Ok n -> Count n
              | Error e -> Engine_error e);
        ])
  @
  (* The sharded path: hash-partition, scatter-gather, merge — must be
     bit-for-bit with the single node, including under injected shard
     loss and stragglers (the coordinator's failover machinery has to
     hide them, not merely survive them).  COUNT rides the same wire:
     per-shard partial counts summed under scatter, reducer exchange
     otherwise. *)
  match cluster with
  | None -> []
  | Some live ->
      [
        query_engine ~name:"cluster" ~mode:Exact (fun db q ->
            match Serve.eval_cluster live db q with
            | Ok rows -> Rows rows
            | Error e -> Engine_error e);
        query_engine ~name:"count-cluster" ~mode:Exact_count (fun db q ->
            match Serve.count_cluster live db q with
            | Ok n -> Count n
            | Error e -> Engine_error e);
      ]

(* Every engine name the CLI accepts; the serve- and cluster-backed
   engines are only instantiated when the live servers are wired in. *)
let names =
  List.map (fun e -> e.name) (all ())
  @ [ "serve"; "count-serve"; "cluster"; "count-cluster" ]

let outcome_to_string = function
  | Rows rows ->
      let shown = List.filteri (fun i _ -> i < 8) rows in
      Printf.sprintf "rows=%d [%s%s]" (List.length rows)
        (String.concat "; " shown)
        (if List.length rows > 8 then "; ..." else "")
  | Sat b -> Printf.sprintf "sat=%b" b
  | Count n -> Printf.sprintf "count=%d" n
  | Cost None -> "cost=unsat"
  | Cost (Some c) -> Printf.sprintf "cost=%d" c
  | Not_applicable -> "n/a"
  | Engine_error e -> "error: " ^ e
