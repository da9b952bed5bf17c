(* The experiment harness.

   The paper's "evaluation" is its classification table (Theorem 1),
   Figure 1's partial order, the Theorem-2 algorithm, Theorem 3, and the
   Section-4/5 remarks.  Each paper experiment below regenerates the
   observable counterpart of one such artifact: workload generator,
   parameter sweep, baseline, and a printed table (rows recorded in
   EXPERIMENTS.md).  The ablations follow, then the kernel and storage
   experiments recorded in BENCH_kernel.json.  The served path (wire,
   plan cache, encode, cluster) is measured by bench/e2e, not here.

   Usage:
     dune exec bench/main.exe               # all experiment tables
     dune exec bench/main.exe -- --only t2-scaling-n
     dune exec bench/main.exe -- --list
*)

module Relation = Paradb_relational.Relation
module Database = Paradb_relational.Database
module Value = Paradb_relational.Value
module Graph = Paradb_graph.Graph
module Circuit = Paradb_wsat.Circuit
module Formula = Paradb_wsat.Formula
module Cnf = Paradb_wsat.Cnf
module Cq_naive = Paradb_eval.Cq_naive
module Fo_naive = Paradb_eval.Fo_naive
module Engine = Paradb_core.Engine
module Hashing = Paradb_core.Hashing
module Color_coding = Paradb_core.Color_coding
module Generators = Paradb_workload.Generators
module Vardi = Paradb_workload.Vardi
module B = Paradb_workload.Bench_util
open Paradb_query
open Paradb_reductions

let rng seed = Random.State.make [| seed; 0xBEEF |]

let header title =
  Printf.printf "\n### %s\n\n" title

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* Order-insensitive, process-independent database digest for the
   cold-load experiment: hashes tuple *values*, not dictionary codes,
   so a fresh process (whose dictionary interns in segment order)
   computes the same digest as the process that parsed the text. *)
let store_digest db =
  List.fold_left
    (fun acc r ->
      let rx =
        Relation.fold
          (fun tup x -> x lxor Paradb_relational.Tuple.hash tup)
          r 0
      in
      acc lxor Hashtbl.hash (Relation.name r, Relation.cardinality r, rx))
    0 (Database.relations db)

(* Empirical exponent between two measurements: log(y2/y1)/log(x2/x1). *)
let exponent (x1, y1) (x2, y2) =
  if y1 <= 0.0 || y2 <= 0.0 then nan
  else log (y2 /. y1) /. log (float_of_int x2 /. float_of_int x1)

let fmt_exp e = if Float.is_nan e then "-" else Printf.sprintf "%.2f" e

(* ------------------------------------------------------------------ *)
(* E-FIG1: the four parametric problems and Proposition 1 *)

let fig1_partial_order () =
  header
    "E-FIG1 — Figure 1: four parameterizations, identity reductions \
     (Prop. 1)";
  let rows = ref [] in
  List.iter
    (fun n ->
      let g = Graph.gnp (rng n) n 0.4 in
      let k = 3 in
      let q, db = Clique_to_cq.reduce g ~k in
      (* parameter q, schema as given *)
      let sat_q, t_q = B.time (fun () -> Cq_naive.is_satisfiable db q) in
      (* parameter v route: the bounded-variables rewrite (upper-bound
         construction), then the same decision problem *)
      let (q', db'), t_rw = B.time (fun () -> Bounded_vars.reduce db q) in
      let sat_v, t_v = B.time (fun () -> Cq_naive.is_satisfiable db' q') in
      (* schema axis: the same instance over the fixed tup/cell schema *)
      let (qf, dbf), t_fx = B.time (fun () -> Fixed_schema.reduce db q) in
      let sat_f, t_f =
        B.time (fun () -> Paradb_eval.Join_eval.is_satisfiable dbf qf)
      in
      rows :=
        [
          string_of_int n;
          string_of_int (Cq.size q);
          string_of_int (Cq.num_vars q);
          string_of_bool sat_q;
          B.pretty_seconds t_q;
          B.pretty_seconds (t_rw +. t_v);
          B.pretty_seconds (t_fx +. t_f);
          string_of_bool (sat_q = sat_v && sat_q = sat_f);
        ]
        :: !rows)
    [ 12; 24; 48 ];
  B.print_table
    ~header:
      [ "n"; "q"; "v"; "answer"; "t(param q)"; "t(param v route)";
        "t(fixed schema)"; "agree" ]
    (List.rev !rows);
  print_endline
    "\nThe identity map carries instances between the four regimes; the\n\
     bounded-variable rewrite and the fixed tup/cell schema encoding\n\
     both decide the same set (Proposition 1's arrows, both axes)."

(* ------------------------------------------------------------------ *)
(* E-T1-CQ: conjunctive queries, the n^k shape and the 2CNF bridge *)

let t1_conjunctive () =
  header "E-T1-CQ — Theorem 1 row 1: clique -> CQ, naive n^Theta(k) scaling";
  let rows = ref [] in
  List.iter
    (fun (k, ns) ->
      let prev = ref None in
      List.iter
        (fun n ->
          (* (k-1)-partite graphs have no k-clique by construction, which
             forces the full backtracking search (worst case) *)
          let g = Graph.multipartite_gnp (rng (n + (k * 1000))) n (k - 1) 0.5 in
          let q, db = Clique_to_cq.reduce g ~k in
          let stats = Cq_naive.new_stats () in
          let sat, t =
            B.time (fun () -> Cq_naive.is_satisfiable ~stats ~order_atoms:false db q)
          in
          let probes = float_of_int stats.Cq_naive.probes in
          let tuples = Database.size db in
          (* exponent measured against the database size, the paper's n *)
          let e =
            match !prev with
            | Some (t0, p0) -> exponent (t0, p0) (tuples, probes)
            | None -> nan
          in
          prev := Some (tuples, probes);
          rows :=
            [
              string_of_int k;
              string_of_int n;
              string_of_int tuples;
              string_of_bool sat;
              Printf.sprintf "%.0f" probes;
              fmt_exp e;
              B.pretty_seconds t;
            ]
            :: !rows)
        ns)
    [ (3, [ 12; 24; 48 ]); (4, [ 8; 16; 32 ]) ];
  B.print_table
    ~header:[ "k"; "n"; "db tuples"; "clique?"; "probes"; "exponent vs |d|"; "time" ]
    (List.rev !rows);
  print_endline
    "\nThe probe exponent climbs with k: the query size sits in the\n\
     exponent of the data complexity, as the W[1]-hardness predicts.";

  header "E-T1-CQ — the upper-bound bridge: CQ -> weighted all-negative 2-CNF";
  let rows = ref [] in
  List.iter
    (fun (n, k) ->
      let g = Graph.gnp (rng (7 * n)) n 0.5 in
      let q, db = Clique_to_cq.reduce g ~k in
      let lab, t_red = B.time (fun () -> Cq_to_wsat.reduce db q) in
      let expected = Cq_naive.is_satisfiable db q in
      let got, t_sat =
        B.time (fun () ->
            Cnf.weighted_sat_neg2cnf lab.Cq_to_wsat.cnf lab.Cq_to_wsat.k <> None)
      in
      rows :=
        [
          string_of_int n;
          string_of_int k;
          string_of_int lab.Cq_to_wsat.cnf.Cnf.n_vars;
          string_of_int (Cnf.n_clauses lab.Cq_to_wsat.cnf);
          string_of_int lab.Cq_to_wsat.k;
          string_of_bool (got = expected);
          B.pretty_seconds (t_red +. t_sat);
        ]
        :: !rows)
    [ (8, 3); (12, 3); (8, 4) ];
  B.print_table
    ~header:[ "n"; "k"; "cnf vars"; "clauses"; "weight"; "equivalent"; "time" ]
    (List.rev !rows)

let t1_conjunctive_v () =
  header
    "E-T1-CQ-v — Theorem 1 row 1, parameter v: the 2^v rewrite (Q,d) -> \
     (Q',d')";
  (* Chains with both edge orientations plus a unary atom per variable:
     many atoms share one variable set, so the rewrite genuinely
     compresses the query. *)
  let both_ways_chain v =
    let x i = Term.var (Printf.sprintf "x%d" i) in
    let binary =
      List.concat
        (List.init (v - 1) (fun i ->
             [ Atom.make "r2" [ x i; x (i + 1) ];
               Atom.make "r2" [ x (i + 1); x i ] ]))
    in
    let unary = List.init v (fun i -> Atom.make "r1" [ x i ]) in
    Cq.make ~head:[] (binary @ unary)
  in
  let rows = ref [] in
  List.iter
    (fun v ->
      let r = rng (v * 3) in
      let db = Qgen_db.tree_db r in
      let q = both_ways_chain v in
      let (q', db'), t = B.time (fun () -> Bounded_vars.reduce db q) in
      rows :=
        [
          string_of_int v;
          string_of_int (List.length q.Cq.body);
          string_of_int (List.length q'.Cq.body);
          string_of_int (1 lsl v);
          string_of_bool
            (Cq_naive.is_satisfiable db' q' = Cq_naive.is_satisfiable db q);
          B.pretty_seconds t;
        ]
        :: !rows)
    [ 2; 3; 4; 5; 6 ];
  B.print_table
    ~header:
      [ "v"; "atoms before"; "atoms after"; "2^v bound"; "equivalent"; "time" ]
    (List.rev !rows);
  print_endline
    "\nAtoms sharing a variable set merge into one intersection relation;\n\
     the rewritten query has at most 2^v atoms regardless of |Q|."

(* ------------------------------------------------------------------ *)
(* E-T1-POS: positive queries *)

let t1_positive () =
  header
    "E-T1-POS — Theorem 1 row 2: positive query -> union of CQs (2^Theta(q)) \
     -> clique (footnote 2)";
  let db =
    Generators.random_database (rng 5) ~schema:[ ("r1", 1); ("r2", 2) ]
      ~domain_size:4 ~tuples:8
  in
  (* balanced And-of-Or alternations: DNF size doubles per And level *)
  let balanced rng depth =
    let rec go depth conj =
      if depth = 0 then
        Fo.atom "r2"
          [ Term.var "x"; Term.int (Random.State.int rng 4) ]
      else
        let sub = List.init 2 (fun _ -> go (depth - 1) (not conj)) in
        if conj then Fo.conj sub else Fo.disj sub
    in
    Fo.exists [ "x" ] (go depth true)
  in
  let rows = ref [] in
  List.iter
    (fun depth ->
      let f = balanced (rng (depth * 31)) depth in
      let cqs, t_dnf = B.time (fun () -> Fo.positive_to_cqs f) in
      let truth = Fo_naive.sentence_holds db f in
      let union_sat =
        List.exists (fun q -> Cq_naive.is_satisfiable db q) cqs
      in
      let (g, k), t_clique = B.time (fun () -> Cqs_to_clique.reduce db cqs) in
      let clique_sat = Graph.has_clique g k in
      rows :=
        [
          string_of_int depth;
          string_of_int (Fo.size f);
          string_of_int (List.length cqs);
          string_of_bool (union_sat = truth);
          Printf.sprintf "%d / k=%d" (Graph.n_vertices g) k;
          string_of_bool (clique_sat = truth);
          B.pretty_seconds (t_dnf +. t_clique);
        ]
        :: !rows)
    [ 2; 3; 4; 5 ];
  B.print_table
    ~header:
      [ "depth"; "q (size)"; "disjuncts"; "union = Q"; "clique instance";
        "clique = Q"; "time" ]
    (List.rev !rows);
  print_endline
    "\nDisjunct count grows exponentially in the query size (the parametric\n\
     reduction, not a polynomial transformation) while footnote 2 then\n\
     packs the whole union back into a single clique instance."

let t1_positive_v () =
  header
    "E-T1-POS-v — Theorem 1 row 2, parameter v: weighted formula sat <-> \
     positive queries";
  let rows = ref [] in
  List.iter
    (fun k ->
      let nv = 6 in
      let phi = Formula.random (rng (k + 77)) ~n_vars:nv ~depth:3 in
      let (fo, db), t_red = B.time (fun () -> Wformula_to_positive.reduce ~n_vars:nv phi ~k) in
      let expected = Formula.weighted_sat_exists ~n_vars:nv phi k in
      let got, t_eval = B.time (fun () -> Fo_naive.sentence_holds db fo) in
      (* and back again: the W[SAT] membership construction *)
      let lab = Positive_to_wformula.reduce db fo in
      let back =
        Formula.weighted_sat_exists
          ~n_vars:(Array.length lab.Positive_to_wformula.z)
          lab.Positive_to_wformula.formula lab.Positive_to_wformula.k
      in
      rows :=
        [
          string_of_int k;
          string_of_int (Formula.size phi);
          string_of_int (Fo.size fo);
          string_of_int (Fo.num_vars fo);
          string_of_bool (got = expected);
          string_of_bool (back = expected);
          B.pretty_seconds (t_red +. t_eval);
        ]
        :: !rows)
    [ 0; 1; 2; 3; 4 ];
  B.print_table
    ~header:
      [ "k"; "|phi|"; "query size"; "v (= k)"; "reduce ok"; "membership ok";
        "time" ]
    (List.rev !rows);
  print_endline
    "\nThe query's variable count is exactly k: weighted formula\n\
     satisfiability embeds into positive queries with v as the parameter\n\
     (W[SAT]-hardness), and prenex positive queries embed back (membership)."

(* ------------------------------------------------------------------ *)
(* E-T1-FO: first-order queries *)

let t1_first_order () =
  header
    "E-T1-FO — Theorem 1 row 3: monotone circuit -> first-order query \
     (theta_2t construction)";
  let rows = ref [] in
  List.iter
    (fun (n_inputs, n_gates, k) ->
      let c = Qgen_db.monotone_circuit (rng (n_gates * 13)) ~n_inputs ~n_gates in
      let nz = Circuit_to_fo.normalize c in
      let (fo, db), t_red = B.time (fun () -> Circuit_to_fo.reduce c ~k) in
      let expected = Circuit.weighted_sat_exists c k in
      let got, t_eval = B.time (fun () -> Fo_naive.sentence_holds db fo) in
      rows :=
        [
          Printf.sprintf "%d/%d" n_inputs (Circuit.n_gates c);
          string_of_int nz.Circuit_to_fo.t;
          string_of_int k;
          string_of_int (Fo.size fo);
          string_of_int (Fo.num_vars fo);
          string_of_bool (got = expected);
          B.pretty_seconds (t_red +. t_eval);
        ]
        :: !rows)
    [ (3, 4, 1); (3, 4, 2); (4, 6, 2); (4, 8, 2); (5, 8, 3) ];
  B.print_table
    ~header:
      [ "inputs/gates"; "t (levels/2)"; "k"; "query size"; "v (= k+2)";
        "equivalent"; "time" ]
    (List.rev !rows);
  print_endline
    "\nQuery size stays O(t + k) and the variable count k + 2 — the fixed\n\
     schema, reused-variable construction behind W[t]- and W[P]-hardness."

(* ------------------------------------------------------------------ *)
(* E-DATALOG: recursion puts k in the exponent, provably *)

let datalog_vardi () =
  header
    "E-DATALOG — Section 4: recursion makes the exponent provable \
     (k-pebble product reachability)";
  let db = Vardi.layered_instance (rng 3) ~layers:5 ~width:4 ~edge_prob:0.5 in
  let rows = ref [] in
  let prev = ref None in
  List.iter
    (fun k ->
      let p = Vardi.program ~k in
      let stats = Paradb_datalog.Engine.new_stats () in
      let holds, t =
        B.time (fun () -> Paradb_datalog.Engine.goal_holds ~stats db p)
      in
      let derived = float_of_int stats.Paradb_datalog.Engine.derived in
      let growth =
        match !prev with
        | Some d0 -> Printf.sprintf "x%.1f" (derived /. d0)
        | None -> "-"
      in
      prev := Some derived;
      rows :=
        [
          string_of_int k;
          string_of_int (Program.size p);
          string_of_int (Program.max_idb_arity p);
          string_of_bool holds;
          Printf.sprintf "%.0f" derived;
          growth;
          B.pretty_seconds t;
        ]
        :: !rows)
    [ 1; 2; 3 ];
  B.print_table
    ~header:
      [ "k"; "program size"; "IDB arity"; "goal"; "derivations"; "growth";
        "time" ]
    (List.rev !rows);
  print_endline
    "\nProgram size grows linearly in k; the derivation count multiplies by\n\
     roughly n each step — Vardi's unconditional n^k, visible in the data."

(* ------------------------------------------------------------------ *)
(* E-T2: the positive result *)

let t2_scaling_n () =
  header
    "E-T2-N — Theorem 2: acyclic + != scales near-linearly in n (naive \
     does not)";
  (* Disjoint 2-cycles: every length-3 walk repeats a vertex, so the
     all-pairs-distinct chain query is unsatisfiable and both algorithms
     must do their full work — no lucky early witness. *)
  let q =
    Generators.chain_query ~length:3
      ~neq:[ (0, 1); (1, 2); (2, 3); (0, 2); (1, 3); (0, 3) ]
  in
  let family =
    Hashing.Random_trials
      { trials = Hashing.default_trials ~c:3.0 ~k:4; seed = 4 }
  in
  let rows = ref [] in
  let prev_naive = ref None and prev_fpt = ref None in
  List.iter
    (fun n ->
      let db = Generators.two_cycle_database ~pairs:(n / 2) in
      let sat_fpt, t_fpt =
        B.time_median ~runs:3 (fun () -> Engine.is_satisfiable ~family db q)
      in
      let stats = Cq_naive.new_stats () in
      let sat_naive, t_naive =
        B.time_median ~runs:3 (fun () ->
            Cq_naive.is_satisfiable ~stats ~order_atoms:false db q)
      in
      let e_naive =
        match !prev_naive with Some p -> exponent p (n, t_naive) | None -> nan
      in
      let e_fpt =
        match !prev_fpt with Some p -> exponent p (n, t_fpt) | None -> nan
      in
      prev_naive := Some (n, t_naive);
      prev_fpt := Some (n, t_fpt);
      (* q = atoms in the chain query, v = variables, rows = edge tuples. *)
      B.record
        [
          ("name", B.J_string "t2-scaling-n");
          ("n", B.J_int n);
          ("q", B.J_int 3);
          ("v", B.J_int 4);
          ("median_ns", B.J_int (int_of_float (t_fpt *. 1e9)));
          ("rows", B.J_int n);
        ];
      B.record
        [
          ("name", B.J_string "t2-scaling-n-naive");
          ("n", B.J_int n);
          ("q", B.J_int 3);
          ("v", B.J_int 4);
          ("median_ns", B.J_int (int_of_float (t_naive *. 1e9)));
          ("rows", B.J_int n);
        ];
      rows :=
        [
          string_of_int n;
          string_of_bool (sat_fpt = sat_naive && not sat_fpt);
          B.pretty_seconds t_fpt;
          fmt_exp e_fpt;
          B.pretty_seconds t_naive;
          fmt_exp e_naive;
          string_of_int (stats.Cq_naive.probes / 3);
        ]
        :: !rows)
    [ 250; 500; 1000; 2000; 4000 ];
  B.print_table
    ~header:
      [ "n (nodes)"; "agree (unsat)"; "t FPT decide"; "exp"; "t naive"; "exp";
        "naive probes" ]
    (List.rev !rows);
  print_endline
    "\nOn guaranteed-negative instances the Theorem-2 engine's exponent\n\
     stays near 1 while the backtracking baseline's sits near 2: the\n\
     inequalities no longer push the database size into the exponent."

let t2_scaling_k () =
  header "E-T2-K — Theorem 2: the parameter pays only a f(k) factor";
  let n = 60 in
  let rows = ref [] in
  List.iter
    (fun k ->
      let g, _ = Graph.planted_path (rng (k * 5)) n 0.02 k in
      let trials = Hashing.default_trials ~c:3.0 ~k in
      let family = Hashing.Random_trials { trials; seed = k } in
      let found_cc, t_cc =
        B.time (fun () -> Color_coding.has_simple_path ~family g k)
      in
      let found_bt, t_bt = B.time (fun () -> Graph.has_simple_path g k) in
      rows :=
        [
          string_of_int k;
          string_of_int trials;
          string_of_bool found_cc;
          string_of_bool (found_cc = found_bt);
          B.pretty_seconds t_cc;
          B.pretty_seconds t_bt;
        ]
        :: !rows)
    [ 2; 3; 4; 5; 6 ];
  B.print_table
    ~header:
      [ "k"; "trials (3e^k)"; "found"; "agrees"; "t color-coding";
        "t backtracking" ]
    (List.rev !rows);
  print_endline
    "\nThe trial budget c*e^k grows exponentially in k — but only in k;\n\
     the per-trial work stays almost linear in the database."

let t2_colorings () =
  header
    "E-T2-PROB — Theorem 2: success probability of a random coloring \
     (paper bound: l!/l^k >= e^-k)";
  let n = 40 in
  let rows = ref [] in
  List.iter
    (fun k ->
      let g, _ = Graph.planted_path (rng (k * 17)) n 0.015 k in
      let db = Color_coding.graph_database g in
      let q = Color_coding.path_query ~k in
      let q = Cq.make ~name:q.Cq.name ~constraints:q.Cq.constraints ~head:[] q.Cq.body in
      let trials = 400 in
      let family = Hashing.Random_trials { trials; seed = 1234 + k } in
      let domain = Value.Set.elements (Database.domain db) in
      let part = Paradb_core.Ineq.partition q in
      let successes = ref 0 in
      let first = ref None in
      let i = ref 0 in
      Seq.iter
        (fun h ->
          incr i;
          if Engine.satisfiable_with db q h then begin
            incr successes;
            if !first = None then first := Some !i
          end)
        (Hashing.functions family ~domain ~k:part.Paradb_core.Ineq.k);
      let fraction = float_of_int !successes /. float_of_int trials in
      rows :=
        [
          string_of_int k;
          string_of_int part.Paradb_core.Ineq.k;
          Printf.sprintf "%.3f" fraction;
          Printf.sprintf "%.3f" (exp (-.float_of_int part.Paradb_core.Ineq.k));
          (match !first with Some i -> string_of_int i | None -> "-");
        ]
        :: !rows)
    [ 3; 4; 5 ];
  B.print_table
    ~header:
      [ "path k"; "|V1|"; "empirical success"; "e^-|V1| bound";
        "first success at trial" ]
    (List.rev !rows);
  print_endline
    "\nEvery row's empirical success rate is at or above the paper's e^-k\n\
     lower bound, so c*e^k trials suffice with probability 1 - e^-c."

let t2_output () =
  header "E-T2-OUT — Theorem 2: evaluation is output-sensitive";
  (* |V1| = 2, so c.e^k random colorings evaluate the query; each output
     tuple is found by a given coloring with probability >= e^-2, so with
     c = 6 a tuple is missed with probability < 0.5%. *)
  let family =
    Hashing.Random_trials
      { trials = Hashing.default_trials ~c:6.0 ~k:2; seed = 6 }
  in
  let rows = ref [] in
  List.iter
    (fun assignments ->
      let db, q =
        Generators.employees_multi_project (rng assignments)
          ~employees:(assignments / 2) ~projects:8 ~assignments
      in
      let result, t = B.time (fun () -> Engine.evaluate ~family db q) in
      let m = Relation.cardinality result in
      let reference = Cq_naive.evaluate db q in
      let complete = Relation.set_equal result reference in
      rows :=
        [
          string_of_int assignments;
          string_of_int m;
          string_of_bool complete;
          B.pretty_seconds t;
          (if m > 0 then B.pretty_seconds (t /. float_of_int m) else "-");
        ]
        :: !rows)
    [ 200; 400; 800; 1600; 3200 ];
  B.print_table
    ~header:
      [ "|EP| tuples"; "output size m"; "complete"; "t evaluate"; "t / m" ]
    (List.rev !rows);
  print_endline
    "\nTime grows with input and output together (the paper's\n\
     O(g(v) q m n log n)); time per output tuple stays in a narrow band.\n\
     (Completeness of the Monte-Carlo union is checked against brute\n\
     force; the deterministic sweep family trades those odds for an\n\
     O(|D|)-function pass.)"

(* ------------------------------------------------------------------ *)
(* E-HAM: NP-hardness of the combined problem *)

let ham_np () =
  header
    "E-HAM — Section 5: with the query as large as the database \
     (Hamiltonian path), the exponential returns";
  let rows = ref [] in
  List.iter
    (fun n ->
      (* sparse, near the Hamiltonicity threshold: hard both ways *)
      let p = 1.1 *. log (float_of_int n) /. float_of_int n in
      let g = Graph.gnp (rng (n * 3)) n p in
      let q, db = Hamiltonian_to_neq.reduce g in
      let expected, t_bt = B.time (fun () -> Graph.hamiltonian_path g <> None) in
      let got, t = B.time (fun () -> Engine.is_satisfiable db q) in
      rows :=
        [
          string_of_int n;
          string_of_int (Cq.size q);
          string_of_bool expected;
          string_of_bool (got = expected);
          B.pretty_seconds t;
          B.pretty_seconds t_bt;
        ]
        :: !rows)
    [ 4; 5; 6; 7; 8 ];
  B.print_table
    ~header:
      [ "n = k"; "query size"; "hamiltonian"; "correct"; "t engine";
        "t backtracking" ]
    (List.rev !rows);
  print_endline
    "\nHere the parameter k equals n, so the f(k) factor — harmless when k\n\
     is fixed — now grows with the input: combined complexity is\n\
     NP-complete, and the parameterized view is what separates this from\n\
     the fixed-k regime of E-T2-N."

(* ------------------------------------------------------------------ *)
(* E-T3: comparisons *)

let t3_comparisons () =
  header
    "E-T3 — Theorem 3: acyclic queries with < are W[1]-complete (clique \
     embeds)";
  let rows = ref [] in
  List.iter
    (fun (n, k) ->
      let g = Graph.gnp (rng (n * k)) n 0.6 in
      let q, db = Clique_to_comparisons.reduce g ~k in
      let expected = Graph.has_clique g k in
      let stats = Cq_naive.new_stats () in
      let got, t =
        B.time (fun () -> Cq_naive.is_satisfiable ~stats db q)
      in
      rows :=
        [
          string_of_int n;
          string_of_int k;
          string_of_int (Database.size db);
          string_of_int (List.length q.Cq.body);
          string_of_bool (got = expected);
          string_of_int stats.Cq_naive.probes;
          B.pretty_seconds t;
        ]
        :: !rows)
    [ (6, 2); (8, 2); (6, 3); (8, 3); (10, 3) ];
  B.print_table
    ~header:[ "n"; "k"; "db tuples"; "atoms"; "correct"; "probes"; "time" ]
    (List.rev !rows);
  print_endline
    "\nThe encoded database carries n^3 tuples and the only evaluator is\n\
     the naive one: no analogue of Theorem 2 exists for < constraints."

(* ------------------------------------------------------------------ *)
(* Ablations *)

let ablation_families () =
  header "A-FAMILY — hash family strategies, satisfiable vs unsatisfiable";
  let q =
    Generators.chain_query ~length:3
      ~neq:[ (0, 1); (1, 2); (2, 3); (0, 2); (1, 3); (0, 3) ]
  in
  let sat_db = Generators.edge_database (rng 8) ~nodes:40 ~edges:200 in
  let unsat_db = Generators.two_cycle_database ~pairs:20 in
  let rows = ref [] in
  let run instance db name family =
    let reference = Cq_naive.is_satisfiable db q in
    let stats = Engine.new_stats () in
    let got, t =
      B.time (fun () -> Engine.is_satisfiable ~family ~stats db q)
    in
    rows :=
      [
        instance;
        name;
        string_of_bool (got = reference);
        string_of_int stats.Engine.trials;
        B.pretty_seconds t;
      ]
      :: !rows
  in
  let random =
    Hashing.Random_trials
      { trials = Hashing.default_trials ~c:3.0 ~k:4; seed = 2 }
  in
  run "satisfiable" sat_db "random 3e^k" random;
  run "satisfiable" sat_db "multiplicative sweep" Hashing.Multiplicative_sweep;
  run "unsatisfiable" unsat_db "random 3e^k" random;
  run "unsatisfiable" unsat_db "multiplicative sweep" Hashing.Multiplicative_sweep;
  B.print_table
    ~header:[ "instance"; "family"; "correct"; "colorings run"; "time" ]
    (List.rev !rows);
  print_endline
    "\nOn satisfiable instances both families exit at the first working\n\
     coloring; on unsatisfiable ones the random family runs its whole\n\
     3e^k budget (a Monte-Carlo 'probably empty') while the sweep runs\n\
     O(|D|) functions for a certain answer."

let ablation_i2_placement () =
  header
    "A-I2 — pushing same-atom inequalities into the selections vs \
     checking everything at the root";
  let db = Generators.edge_database (rng 10) ~nodes:60 ~edges:360 in
  let q0 = Generators.chain_query ~length:3 ~neq:[] in
  let all_pairs =
    [ (0, 1); (1, 2); (2, 3); (0, 2); (1, 3); (0, 3) ]
  in
  let constraints =
    List.map
      (fun (i, j) ->
        Constr.neq (Term.var (Printf.sprintf "x%d" i))
          (Term.var (Printf.sprintf "x%d" j)))
      all_pairs
  in
  let pushed =
    Cq.make ~name:"ans" ~constraints ~head:q0.Cq.head q0.Cq.body
  in
  let formula = Ineq_formula.of_conjunction constraints in
  let r1, t_pushed = B.time (fun () -> Engine.evaluate db pushed) in
  let r2, t_root = B.time (fun () -> Engine.evaluate_formula db q0 formula) in
  B.print_table ~header:[ "placement"; "rows"; "time" ]
    [
      [ "I1/I2 split (Theorem 2)"; string_of_int (Relation.cardinality r1);
        B.pretty_seconds t_pushed ];
      [ "all at root (formula mode)"; string_of_int (Relation.cardinality r2);
        B.pretty_seconds t_root ];
    ];
  Printf.printf "\nresults agree: %b\n" (Relation.set_equal r1 r2);
  print_endline
    "Pushing I2 into the per-atom selections and checking I1 at the\n\
     subtree meeting points (Lemma 1) beats hauling every shadow\n\
     attribute to the root."

let ablation_seminaive () =
  header "A-DATALOG — naive vs semi-naive bottom-up";
  let db = Generators.edge_database (rng 11) ~nodes:30 ~edges:90 in
  let tc =
    Parser.parse_program "tc(X, Y) :- e(X, Y). tc(X, Z) :- e(X, Y), tc(Y, Z)."
      ~goal:"tc"
  in
  let rows = ref [] in
  List.iter
    (fun (name, strategy) ->
      let stats = Paradb_datalog.Engine.new_stats () in
      let r, t =
        B.time (fun () -> Paradb_datalog.Engine.evaluate ~strategy ~stats db tc)
      in
      rows :=
        [
          name;
          string_of_int (Relation.cardinality r);
          string_of_int stats.Paradb_datalog.Engine.rounds;
          string_of_int stats.Paradb_datalog.Engine.derived;
          B.pretty_seconds t;
        ]
        :: !rows)
    [ ("naive", Paradb_datalog.Engine.Naive);
      ("semi-naive", Paradb_datalog.Engine.Seminaive) ];
  B.print_table
    ~header:[ "strategy"; "|tc|"; "rounds"; "derivations"; "time" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* E-AW: alternating quantification (Section 4's AW classes) *)

let aw_alternating () =
  header
    "E-AW — Section 4: alternating quantification (AW[P] hardness, \
     AW[SAT] membership)";
  let module A = Paradb_wsat.Alternating in
  let rows = ref [] in
  List.iter
    (fun (label, quants) ->
      let c =
        Qgen_db.monotone_circuit (rng (String.length label * 7)) ~n_inputs:4
          ~n_gates:4
      in
      let r = List.length quants in
      let blocks =
        List.mapi
          (fun i q ->
            { A.quantifier = q;
              vars = List.filter (fun v -> v mod r = i) (List.init 4 Fun.id);
              weight = 1 })
          quants
        |> List.filter (fun b -> b.A.vars <> [])
      in
      let expected = A.holds_circuit c blocks in
      let (fo, db), t_red =
        B.time (fun () -> Alternating_to_fo.reduce c blocks)
      in
      let got, t_eval = B.time (fun () -> Fo_naive.sentence_holds db fo) in
      rows :=
        [
          label;
          string_of_int (A.parameter blocks);
          string_of_int (Fo.size fo);
          string_of_int (Fo.num_vars fo);
          string_of_bool (got = expected);
          B.pretty_seconds (t_red +. t_eval);
        ]
        :: !rows)
    [ ("E", [ A.Q_exists ]);
      ("EA", [ A.Q_exists; A.Q_forall ]);
      ("AE", [ A.Q_forall; A.Q_exists ]);
      ("EAE", [ A.Q_exists; A.Q_forall; A.Q_exists ]) ];
  B.print_table
    ~header:[ "prefix"; "parameter"; "query size"; "v"; "equivalent"; "time" ]
    (List.rev !rows);
  print_endline
    "\nThe Theorem-1 circuit reduction adapts to quantifier blocks: the\n\
     query gains the psi_i block-discipline formulas and keeps the fixed\n\
     schema (AW[P]-hardness for parameter v).";
  (* membership: prenex FO -> alternating weighted formula *)
  let db = Parser.parse_facts "e(1, 2). e(2, 3). e(3, 1). u(2)." in
  let rows = ref [] in
  List.iter
    (fun text ->
      let f = Parser.parse_fo text in
      let expected = Fo_naive.sentence_holds db f in
      let lab, t = B.time (fun () -> Fo_to_awsat.reduce db f) in
      let got, t2 = B.time (fun () -> Fo_to_awsat.holds lab) in
      rows :=
        [
          text;
          string_of_int
            (Paradb_wsat.Alternating.parameter lab.Fo_to_awsat.blocks);
          string_of_int lab.Fo_to_awsat.n_vars;
          string_of_bool (got = expected);
          B.pretty_seconds (t +. t2);
        ]
        :: !rows)
    [ "forall X. exists Y. e(X, Y)";
      "exists X. forall Y. (e(Y, X) -> u(Y))";
      "forall X Y. (e(X, Y) -> exists Z. e(Y, Z))" ];
  B.print_table
    ~header:[ "sentence"; "parameter"; "bool vars"; "equivalent"; "time" ]
    (List.rev !rows);
  print_endline
    "\nOne weight-1 block of z_{i,c} variables per quantifier: prenex FO\n\
     sentences live in AW[SAT], with the quantifier count as the parameter."

(* ------------------------------------------------------------------ *)
(* E-EXPR: footnote 1's third kind of complexity *)

let expression_complexity () =
  header
    "E-EXPR — footnote 1: expression complexity (database fixed, query      grows)";
  (* a fixed K4 (24 directed edge tuples); chains that must end at an
     unreachable sink force the full 3^l exploration before failing *)
  let k4 = Graph.complete_graph 4 in
  let db =
    Paradb_core.Color_coding.graph_database k4
  in
  let rows = ref [] in
  let prev = ref None in
  List.iter
    (fun l ->
      let x i = Term.var (Printf.sprintf "x%d" i) in
      let q =
        Cq.make ~head:[]
          (List.init l (fun i -> Atom.make "e" [ x i; x (i + 1) ])
          @ [ Atom.make "e" [ x l; Term.int 99 ] ])
      in
      let stats = Cq_naive.new_stats () in
      let sat, t =
        B.time (fun () ->
            Cq_naive.is_satisfiable ~stats ~order_atoms:false db q)
      in
      let probes = float_of_int stats.Cq_naive.probes in
      let growth =
        match !prev with
        | Some p -> Printf.sprintf "x%.1f" (probes /. p)
        | None -> "-"
      in
      prev := Some probes;
      rows :=
        [
          string_of_int (Cq.size q);
          string_of_int (Cq.num_vars q);
          string_of_bool sat;
          Printf.sprintf "%.0f" probes;
          growth;
          B.pretty_seconds t;
        ]
        :: !rows)
    [ 2; 4; 6; 8; 10 ];
  B.print_table
    ~header:[ "q (size)"; "v"; "sat"; "probes"; "growth"; "time" ]
    (List.rev !rows);
  print_endline
    "\nWith the database pinned to a K4, the work still multiplies by ~9\n\
     per two extra atoms (3^l partial chains): expression complexity\n\
     tracks combined complexity, which is why the paper leaves it\n\
     undifferentiated (footnote 1)."

(* ------------------------------------------------------------------ *)
(* E-W2: dominating set, the canonical W[2] problem, as an FO query *)

let w2_dominating () =
  header
    "E-W2 — dominating set (W[2]-complete) as a first-order query with      one alternation";
  let rows = ref [] in
  List.iter
    (fun (n, k) ->
      let g = Graph.gnp (rng (n * 31 + k)) n (2.0 /. float_of_int n) in
      let expected, t_bt = B.time (fun () -> Graph.has_dominating_set g k) in
      let fo, db = Dominating_to_fo.reduce g ~k in
      let got, t_fo = B.time (fun () -> Fo_naive.sentence_holds db fo) in
      rows :=
        [
          string_of_int n;
          string_of_int k;
          string_of_bool expected;
          string_of_bool (got = expected);
          string_of_int (Fo.num_vars fo);
          B.pretty_seconds t_fo;
          B.pretty_seconds t_bt;
        ]
        :: !rows)
    [ (10, 2); (14, 2); (10, 3); (14, 3); (18, 3) ];
  (* a positive instance: one apex vertex dominates everything *)
  let g = Graph.add_apex_clique (Graph.gnp (rng 77) 12 0.1) 1 in
  let fo, db = Dominating_to_fo.reduce g ~k:1 in
  rows :=
    [ "13 (apex)"; "1"; "true";
      string_of_bool (Fo_naive.sentence_holds db fo = Graph.has_dominating_set g 1);
      "2"; "-"; "-" ]
    :: !rows;
  B.print_table
    ~header:
      [ "n"; "k"; "dominating?"; "correct"; "v (= k+1)"; "t FO eval";
        "t brute force" ]
    (List.rev !rows);
  print_endline
    "\nThe FO query has k+1 variables and one forall: active-domain\n\
     evaluation costs n^{k+1} — the W[2] problem sits exactly where the\n\
     first-order row of Theorem 1 predicts."

(* ------------------------------------------------------------------ *)
(* E-CM: Chandra-Merlin containment has the same parametric face *)

let cm_containment () =
  header
    "E-CM — Chandra-Merlin containment: clique-hard in the contained-in      query";
  let rows = ref [] in
  List.iter
    (fun k ->
      let n = 10 in
      let g = Graph.multipartite_gnp (rng (k * 101)) n (k - 1) 0.6 in
      let clique_q, db = Clique_to_cq.reduce g ~k in
      (* freeze the graph itself as a Boolean query *)
      let graph_q =
        Cq.make ~name:"p" ~head:[]
          (List.map
             (fun row ->
               Atom.make "g"
                 [ Term.var ("v" ^ Value.to_string row.(0));
                   Term.var ("v" ^ Value.to_string row.(1)) ])
             (Relation.tuples (Database.find db "g")))
      in
      let expected = Graph.has_clique g k in
      let got, t =
        B.time (fun () ->
            Paradb_containment.Containment.contained graph_q clique_q)
      in
      rows :=
        [
          string_of_int k;
          string_of_int (List.length graph_q.Cq.body);
          string_of_int (List.length clique_q.Cq.body);
          string_of_bool (got = expected);
          B.pretty_seconds t;
        ]
        :: !rows)
    [ 3; 4; 5 ];
  B.print_table
    ~header:
      [ "k"; "|Q1| atoms"; "|Q2| atoms"; "matches clique search"; "time" ]
    (List.rev !rows);
  (* minimization workload *)
  let rows = ref [] in
  List.iter
    (fun seed ->
      let r = rng seed in
      let q0 = Qgen_db.tree_query r in
      (* duplicate some atoms under renamed variables to create redundancy *)
      let renamed = Cq.rename (fun v -> v ^ "r") q0 in
      let q =
        Cq.make ~name:"g" ~head:[] (q0.Cq.body @ renamed.Cq.body)
      in
      let m, t = B.time (fun () -> Paradb_containment.Containment.minimize q) in
      rows :=
        [
          string_of_int seed;
          string_of_int (List.length q.Cq.body);
          string_of_int (List.length m.Cq.body);
          B.pretty_seconds t;
        ]
        :: !rows)
    [ 1; 2; 3; 4 ];
  B.print_table
    ~header:[ "seed"; "atoms"; "core atoms"; "time" ]
    (List.rev !rows);
  print_endline
    "\nA disjoint renamed copy of a Boolean query always folds back onto\n\
     the core of the original: minimization strips both the copy and any\n\
     redundancy the original already had."

(* ------------------------------------------------------------------ *)
(* Ablations: join algorithms and path algorithms *)

let ablation_joins () =
  header "A-JOIN — evaluator and join-algorithm choices on one acyclic query";
  let db = Generators.edge_database (rng 12) ~nodes:800 ~edges:3200 in
  let q = Generators.chain_query ~length:3 ~neq:[] in
  let rows = ref [] in
  let run name f =
    let r, t = B.time f in
    rows :=
      [ name; string_of_int (Relation.cardinality r); B.pretty_seconds t ]
      :: !rows;
    r
  in
  let reference = run "naive backtracking" (fun () -> Cq_naive.evaluate db q) in
  let check r = Relation.set_equal r reference in
  let r1 =
    run "join-based (hash)" (fun () -> Paradb_eval.Join_eval.evaluate db q)
  in
  let r2 =
    run "join-based (sort-merge)" (fun () ->
        Paradb_eval.Join_eval.evaluate
          ~algorithm:Paradb_eval.Join_eval.Sort_merge db q)
  in
  let r3 =
    run "yannakakis" (fun () -> Paradb_yannakakis.Yannakakis.evaluate db q)
  in
  B.print_table ~header:[ "evaluator"; "rows"; "time" ] (List.rev !rows);
  Printf.printf "\nall agree: %b\n" (check r1 && check r2 && check r3)

let ablation_path_algorithms () =
  header
    "A-PATH — three routes to a simple path: generic engine, direct DP, \
     backtracking";
  let rows = ref [] in
  List.iter
    (fun (label, g, k) ->
      let expected = Graph.has_simple_path g k in
      let family =
        Hashing.Random_trials
          { trials = Hashing.default_trials ~c:3.0 ~k; seed = 5 }
      in
      let e1, t_engine =
        B.time (fun () -> Color_coding.has_simple_path ~family g k)
      in
      let e2, t_dp =
        B.time (fun () ->
            Color_coding.has_simple_path_dp
              ~trials:(Hashing.default_trials ~c:3.0 ~k) g k)
      in
      let _, t_bt = B.time (fun () -> Graph.has_simple_path g k) in
      rows :=
        [
          label;
          string_of_int k;
          string_of_bool expected;
          string_of_bool (e1 = expected && e2 = expected);
          B.pretty_seconds t_engine;
          B.pretty_seconds t_dp;
          B.pretty_seconds t_bt;
        ]
        :: !rows)
    [ ("planted, sparse", fst (Graph.planted_path (rng 21) 60 0.02 5), 5);
      ("planted, sparse", fst (Graph.planted_path (rng 22) 60 0.02 6), 6);
      ( "no long path",
        Graph.of_edges 40 (List.init 20 (fun i -> (2 * i, (2 * i) + 1))),
        3 ) ];
  B.print_table
    ~header:
      [ "instance"; "k"; "path?"; "correct"; "t engine"; "t DP"; "t backtrack" ]
    (List.rev !rows);
  print_endline
    "\nThe direct Alon-Yuster-Zwick DP pays 2^k per coloring where the\n\
     generic engine pays relational-join overhead; both inherit the same\n\
     e^k trial budget.  Generality costs a constant factor, not the\n\
     exponent."

let ablation_prereduce () =
  header
    "A-PREREDUCE — one h-independent semijoin pass before the colorings";
  (* unsatisfiable core (2-cycles) drowned in dangling pendant edges:
     the reducer deletes the pendants once; without it, every one of the
     164 colorings rediscovers them *)
  let pairs = 400 in
  let pendants = 4000 in
  let core =
    Paradb_relational.Database.find
      (Generators.two_cycle_database ~pairs) "e"
  in
  let pendant_rows =
    List.init pendants (fun i ->
        [| Value.Int ((2 * pairs) + (2 * i));
           Value.Int ((2 * pairs) + (2 * i) + 1) |])
  in
  let db =
    Database.of_relations
      [ Relation.of_set ~name:"e" ~schema:[ "a"; "b" ]
          (Paradb_relational.Tuple.Set.union
             (Relation.tuple_set core)
             (Paradb_relational.Tuple.Set.of_list pendant_rows)) ]
  in
  let q =
    Generators.chain_query ~length:3
      ~neq:[ (0, 1); (1, 2); (2, 3); (0, 2); (1, 3); (0, 3) ]
  in
  let family =
    Hashing.Random_trials
      { trials = Hashing.default_trials ~c:3.0 ~k:4; seed = 3 }
  in
  let rows = ref [] in
  List.iter
    (fun (label, prereduce) ->
      let stats = Engine.new_stats () in
      let got, t =
        B.time (fun () -> Engine.is_satisfiable ~prereduce ~family ~stats db q)
      in
      rows :=
        [
          label;
          string_of_bool got;
          string_of_int stats.Engine.peak_rows;
          B.pretty_seconds t;
        ]
        :: !rows)
    [ ("with prereduce", true); ("without", false) ];
  B.print_table
    ~header:[ "variant"; "answer"; "peak intermediate rows"; "time" ]
    (List.rev !rows);
  print_endline
    "\nDangling tuples cannot appear in any Q_h, so reducing once before\n\
     the coloring loop shrinks every trial's intermediate relations."

(* ------------------------------------------------------------------ *)
(* E-DURABILITY: the fsync discipline on the durable write path, and
   recovery-on-open over planted crash debris *)

let durability_overhead () =
  header
    "E-DURABILITY — fsync modes on the FACT path (full / async / off) and \
     recovery-on-open over crash debris";
  let module Server = Paradb_server.Server in
  let module Session = Paradb_server.Session in
  let module Client = Paradb_server.Client in
  let module Protocol = Paradb_server.Protocol in
  let module Durability = Paradb_storage.Durability in
  let module Store = Paradb_storage.Store in
  let expect c line =
    match Client.request_line c line with
    | Protocol.Ok_ _ -> ()
    | Protocol.Err e -> failwith ("durability-overhead: " ^ e)
  in
  let median samples =
    let a = List.sort compare samples in
    List.nth a (List.length a / 2)
  in
  let mk_dir () =
    let d = Filename.temp_file "paradb_bench" ".data" in
    Sys.remove d;
    Unix.mkdir d 0o755;
    d
  in
  let saved = Durability.mode () in
  Fun.protect ~finally:(fun () -> Durability.set saved) @@ fun () ->
  (* Three persistent catalogs in one process, one per mode.  The mode
     is a process-global atomic read at every sync point, so it can be
     switched fact-by-fact: each triple of FACT round-trips sees the
     same heap, plan cache and page-cache state, and per-triple ratios
     cancel the drift that back-to-back per-mode blocks would keep. *)
  let d_full = mk_dir () and d_async = mk_dir () and d_off = mk_dir () in
  Fun.protect ~finally:(fun () ->
      remove_tree d_full;
      remove_tree d_async;
      remove_tree d_off)
  @@ fun () ->
  let start dir =
    Server.start ~port:0 ~workers:2
      (Session.make_shared ~data_dir:dir ~cache_capacity:16 ())
  in
  let s_full = start d_full and s_async = start d_async and s_off = start d_off in
  Fun.protect ~finally:(fun () ->
      Server.stop s_full;
      Server.stop s_async;
      Server.stop s_off;
      Durability.drain ())
  @@ fun () ->
  Client.with_connection ~port:(Server.port s_full) @@ fun c_full ->
  Client.with_connection ~port:(Server.port s_async) @@ fun c_async ->
  Client.with_connection ~port:(Server.port s_off) @@ fun c_off ->
  let fact_under mode c j =
    Durability.set mode;
    let t0 = Unix.gettimeofday () in
    expect c (Printf.sprintf "FACT g e(%d, %d)." j (j + 1));
    Unix.gettimeofday () -. t0
  in
  (* first write creates each store outside the timed window *)
  List.iter
    (fun (m, c) -> ignore (fact_under m c 0))
    [
      (Durability.Full, c_full);
      (Durability.Async, c_async);
      (Durability.Off, c_off);
    ];
  let samples = 150 in
  let triples =
    List.init samples (fun j ->
        let j = j + 1 in
        let f () = fact_under Durability.Full c_full j
        and a () = fact_under Durability.Async c_async j
        and o () = fact_under Durability.Off c_off j in
        (* rotate the order inside each triple: on one core the first
           request pays any pending GC or flusher debt for the others *)
        match j mod 3 with
        | 0 ->
            let tf = f () in
            let ta = a () in
            let to_ = o () in
            (tf, ta, to_)
        | 1 ->
            let ta = a () in
            let to_ = o () in
            let tf = f () in
            (tf, ta, to_)
        | _ ->
            let to_ = o () in
            let tf = f () in
            let ta = a () in
            (tf, ta, to_))
  in
  Durability.drain ();
  let full_m = median (List.map (fun (f, _, _) -> f) triples) in
  let async_m = median (List.map (fun (_, a, _) -> a) triples) in
  let off_m = median (List.map (fun (_, _, o) -> o) triples) in
  let full_vs_off = median (List.map (fun (f, _, o) -> f /. o) triples) in
  let async_vs_off = median (List.map (fun (_, a, o) -> a /. o) triples) in
  let async_overhead = async_vs_off -. 1.0 in
  (* async must stay within a 10% budget of no-sync: the ack never
     waits on the flusher, so all it can pay is the enqueue and the
     flusher's time-slice on this single core *)
  let budget = 0.10 in
  (* Recovery-on-open: a store with real bulk, delta fragmentation, and
     planted kill -9 debris (an orphaned manifest rename, an orphaned
     segment temp, an unreferenced segment).  The restart must
     quarantine the debris and re-attach by mmap before accepting
     clients; the wall time is the operational recovery cost. *)
  let root = mk_dir () in
  Fun.protect ~finally:(fun () -> remove_tree root) @@ fun () ->
  let dir = Filename.concat root "g" in
  let rec_db = Generators.edge_database (rng 17) ~nodes:200 ~edges:4000 in
  ignore (Store.compact ~dir rec_db);
  for j = 1 to 8 do
    List.iter
      (fun r -> Store.append ~dir r)
      (Database.relations (Generators.edge_database (rng (100 + j)) ~nodes:5 ~edges:5))
  done;
  let plant name =
    Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
        output_string oc "crash debris, not a segment")
  in
  plant "MANIFEST.tmp";
  plant "seg-000099-e.seg.tmp";
  plant "seg-000042-stray.seg";
  let segments = List.length (Store.entries dir) in
  let recovery_s =
    let t0 = Unix.gettimeofday () in
    let sv = start root in
    let dt = Unix.gettimeofday () -. t0 in
    Server.stop sv;
    dt
  in
  B.record
    [
      ("name", B.J_string "durability-overhead");
      ("facts", B.J_int samples);
      ("full_fact_ns", B.J_int (int_of_float (full_m *. 1e9)));
      ("async_fact_ns", B.J_int (int_of_float (async_m *. 1e9)));
      ("off_fact_ns", B.J_int (int_of_float (off_m *. 1e9)));
      ("full_vs_off", B.J_float full_vs_off);
      ("async_vs_off", B.J_float async_vs_off);
      ("async_overhead", B.J_float async_overhead);
      ("async_within_budget", B.J_bool (async_overhead < budget));
      ("recovery_tuples", B.J_int (Database.size rec_db));
      ("recovery_segments", B.J_int segments);
      ("recovery_orphans", B.J_int 3);
      ("recovery_ns", B.J_int (int_of_float (recovery_s *. 1e9)));
    ];
  B.print_table
    ~header:[ "metric"; "value" ]
    [
      [ Printf.sprintf "FACT latency, full (median of %d)" samples;
        B.pretty_seconds full_m ];
      [ Printf.sprintf "FACT latency, async (median of %d)" samples;
        B.pretty_seconds async_m ];
      [ Printf.sprintf "FACT latency, off (median of %d)" samples;
        B.pretty_seconds off_m ];
      [ "full vs off (median per-triple ratio)";
        Printf.sprintf "×%.2f" full_vs_off ];
      [ "async vs off (median per-triple ratio)";
        Printf.sprintf "%+.2f%% (budget %+.0f%%)" (async_overhead *. 100.0)
          (budget *. 100.0) ];
      [ Printf.sprintf "recovery + attach (%d tuples, %d segments, 3 orphans)"
          (Database.size rec_db) segments;
        B.pretty_seconds recovery_s ];
    ];
  if async_overhead >= budget then
    Printf.printf "\nWARNING: async overhead %.1f%% exceeds the %.0f%% budget\n"
      (async_overhead *. 100.0) (budget *. 100.0);
  print_endline
    "\nFull pays one fsync per file in publish order (segment, manifest,\n\
     directory) before the ack — the price of surviving power loss, not\n\
     just kill -9.  Async queues the same syncs to a background flusher\n\
     and acks immediately: crash atomicity is the rename's, so the only\n\
     cost left is the enqueue.  Recovery-on-open quarantines crash\n\
     debris into orphans/ and re-attaches the manifest's segments by\n\
     mmap before the listener opens."

(* ------------------------------------------------------------------ *)
(* E-COMPILED: the compiled push-based pipeline vs the interpreters *)

let compiled_vs_interpreted () =
  header
    "E-COMPILED — compiled push-based pipeline vs the interpreted engines \
     (warm path: plan + compile amortized, as under a plan-cache hit)";
  let module Planner = Paradb_planner.Planner in
  let module Compile = Paradb_eval.Compile in
  let db = Generators.edge_database (rng 21) ~nodes:600 ~edges:2400 in
  let runs = 9 in
  let cases =
    [
      ( "acyclic chain",
        Generators.chain_query ~length:3 ~neq:[],
        `Yannakakis );
      ( "acyclic chain + !=",
        Generators.chain_query ~length:3 ~neq:[ (0, 3) ],
        `Fpt );
      ( "comparison",
        Parser.parse_cq "ans(X, Y) :- e(X, Z), e(Z, Y), X < Y.",
        `Comparisons );
      ( "cyclic triangle",
        Parser.parse_cq "ans(X) :- e(X, Y), e(Y, Z), e(Z, X).",
        `Naive );
    ]
  in
  let rows = ref [] in
  let all_agree = ref true in
  List.iter
    (fun (label, q, base) ->
      (* the interpreter the old auto dispatch picked for this class *)
      let engine_name, interp =
        match base with
        | `Yannakakis ->
            ( "yannakakis",
              fun () -> Paradb_yannakakis.Yannakakis.evaluate db q )
        | `Fpt ->
            ( "fpt (sweep)",
              fun () ->
                Engine.evaluate ~family:Hashing.Multiplicative_sweep db q )
        | `Comparisons ->
            ("comparisons", fun () -> Paradb_core.Comparisons.evaluate db q)
        | `Naive -> ("naive", fun () -> Cq_naive.evaluate db q)
      in
      let r_interp, t_interp = B.time_median ~runs interp in
      let pplan = Planner.plan q in
      let exec, t_compile =
        B.time_median ~runs:3 (fun () -> Compile.compile pplan db)
      in
      let r_comp, t_warm = B.time_median ~runs (fun () -> Compile.run exec) in
      let agree = Relation.set_equal r_comp r_interp in
      all_agree := !all_agree && agree;
      let speedup = t_interp /. t_warm in
      B.record
        [
          ("name", B.J_string "compiled-vs-interpreted");
          ("query", B.J_string label);
          ("class", B.J_string (Planner.classification_name
                                  pplan.Planner.classification));
          ("baseline_engine", B.J_string engine_name);
          ("n", B.J_int (Database.size db));
          ("rows", B.J_int (Relation.cardinality r_comp));
          ("interpreted_ns", B.J_int (int_of_float (t_interp *. 1e9)));
          ("median_ns", B.J_int (int_of_float (t_warm *. 1e9)));
          ("compile_ns", B.J_int (int_of_float (t_compile *. 1e9)));
          ("speedup", B.J_float speedup);
          ("agree", B.J_bool agree);
        ];
      rows :=
        [
          label;
          engine_name;
          string_of_int (Relation.cardinality r_comp);
          B.pretty_seconds t_interp;
          B.pretty_seconds t_warm;
          B.pretty_seconds t_compile;
          Printf.sprintf "%.1fx" speedup;
          string_of_bool agree;
        ]
        :: !rows)
    cases;
  B.print_table
    ~header:
      [ "query"; "interpreter"; "rows"; "interpreted"; "compiled (warm)";
        "compile once"; "speedup"; "agree" ]
    (List.rev !rows);
  print_endline
    "\nThe compiled pipeline pays planning, per-atom materialization and\n\
     semijoin reduction once at compile time; each warm run is fused\n\
     scan/probe closures over int-code registers — no Value.t decoding,\n\
     no binding allocation, no per-tuple variant dispatch.";
  Printf.printf "all classes agree with their interpreter: %b\n" !all_agree

(* ------------------------------------------------------------------ *)
(* E-COUNT: the Nat-semiring counting pipeline vs the Bool fast path *)

let count_overhead () =
  header
    "E-COUNT — compiled COUNT vs compiled EVAL on the same warm plans \
     (the Bool path is untouched; COUNT swaps dedup barriers for memoized \
     Nat aggregation)";
  let module Planner = Paradb_planner.Planner in
  let module Compile = Paradb_eval.Compile in
  let db = Generators.edge_database (rng 23) ~nodes:600 ~edges:2400 in
  let runs = 9 in
  let cases =
    [
      ("acyclic chain", Generators.chain_query ~length:3 ~neq:[]);
      ("acyclic chain + !=", Generators.chain_query ~length:3 ~neq:[ (0, 3) ]);
      ("boolean head", Parser.parse_cq "ans() :- e(X, Y), e(Y, Z).");
      ("cyclic triangle", Parser.parse_cq "ans(X) :- e(X, Y), e(Y, Z), e(Z, X).");
    ]
  in
  let rows = ref [] in
  let all_agree = ref true in
  List.iter
    (fun (label, q) ->
      let pplan = Planner.plan q in
      let exec = Compile.compile pplan db in
      let cexec = Compile.compile_count pplan db in
      let r_eval, t_eval = B.time_median ~runs (fun () -> Compile.run exec) in
      let n_count, t_count =
        B.time_median ~runs (fun () -> Compile.run_count cexec)
      in
      let agree = n_count = Cq_naive.count db q in
      all_agree := !all_agree && agree;
      let ratio = t_count /. t_eval in
      B.record
        [
          ("name", B.J_string "count-overhead");
          ("query", B.J_string label);
          ("class", B.J_string (Planner.classification_name
                                  pplan.Planner.classification));
          ("n", B.J_int (Database.size db));
          ("rows", B.J_int (Relation.cardinality r_eval));
          ("count", B.J_int n_count);
          ("eval_ns", B.J_int (int_of_float (t_eval *. 1e9)));
          ("median_ns", B.J_int (int_of_float (t_count *. 1e9)));
          ("ratio", B.J_float ratio);
          ("agree", B.J_bool agree);
        ];
      rows :=
        [
          label;
          string_of_int (Relation.cardinality r_eval);
          string_of_int n_count;
          B.pretty_seconds t_eval;
          B.pretty_seconds t_count;
          Printf.sprintf "%.2fx" ratio;
          string_of_bool agree;
        ]
        :: !rows)
    cases;
  B.print_table
    ~header:
      [ "query"; "rows"; "count"; "eval (warm)"; "count (warm)"; "count/eval";
        "agree" ]
    (List.rev !rows);
  print_endline
    "\nCounting valuations skips answer-tuple materialization but keeps\n\
     the same scan/probe pipeline, so warm COUNT tracks warm EVAL; the\n\
     memoized barriers pay off when dedup points collapse many partial\n\
     valuations (boolean heads, projections)."

(* ------------------------------------------------------------------ *)
(* E-COLD-LOAD: text parse vs checksummed mmap segments *)

let cold_load () =
  header
    "E-COLD-LOAD — cold start: streaming text parse vs compact + mmap open";
  let module Store = Paradb_storage.Store in
  let sizes = [ 10_000; 100_000; 1_000_000; 10_000_000 ] in
  let rows = ref [] in
  List.iter
    (fun n ->
      let st = rng n in
      (* write the text form directly: materializing a 10M-tuple
         database first would measure the generator, not the loader *)
      let path = Filename.temp_file "paradb_cold" ".facts" in
      let nodes = max 64 (n / 50) in
      Out_channel.with_open_text path (fun oc ->
          for _ = 1 to n do
            Printf.fprintf oc "e(%d, %d).\n" (Random.State.int st nodes)
              (Random.State.int st nodes)
          done);
      let dir = Filename.temp_file "paradb_cold" ".seg" in
      Sys.remove dir;
      Fun.protect
        ~finally:(fun () ->
          Sys.remove path;
          remove_tree dir)
        (fun () ->
          let parsed, t_parse =
            B.time (fun () ->
                match Source.load_database path with
                | Ok db -> db
                | Error e -> failwith e)
          in
          let seg_bytes, t_compact =
            B.time (fun () -> Store.compact ~dir parsed)
          in
          (* An order-insensitive digest stands in for the parsed
             database during the timed open: keeping 10M live tuples
             around would bill their GC marking to the open, which a
             real cold start (fresh process) never pays.  Both sides
             intern into the global dictionary, so code-row hashes are
             comparable. *)
          let parsed_digest = store_digest parsed in
          let parsed_size = Database.size parsed in
          (* drop the parsed copy before spawning: parent and child
             should not both hold a 10M-tuple database in RAM *)
          let parsed = () in
          ignore parsed;
          Gc.compact ();
          (* The open is timed in a re-exec'd child (--cold-open): an
             operational cold start is a fresh process, and timing the
             decode inside the long-lived bench process would bill it
             for the bench's own heap history.  Median of three child
             runs — single draws swing with background load. *)
          let cold_open () =
            let rd, wr = Unix.pipe () in
            let pid =
              Unix.create_process Sys.executable_name
                [| Sys.executable_name; "--cold-open"; dir |]
                Unix.stdin wr Unix.stderr
            in
            Unix.close wr;
            let ic = Unix.in_channel_of_descr rd in
            let line = In_channel.input_all ic in
            close_in ic;
            ignore (Unix.waitpid [] pid);
            Scanf.sscanf line " %f %d %d" (fun t s d -> (t, s, d))
          in
          let opens = List.init 3 (fun _ -> cold_open ()) in
          let t_open =
            match List.sort compare (List.map (fun (t, _, _) -> t) opens) with
            | [ _; m; _ ] -> m
            | _ -> assert false
          in
          let agree =
            List.for_all
              (fun (_, s, d) -> s = parsed_size && d = parsed_digest)
              opens
          in
          let text_bytes = (Unix.stat path).Unix.st_size in
          B.record
            [
              ("name", B.J_string "cold-load");
              ("n", B.J_int n);
              ("rows", B.J_int parsed_size);
              ("text_bytes", B.J_int text_bytes);
              ("segment_bytes", B.J_int seg_bytes);
              ("parse_ns", B.J_int (int_of_float (t_parse *. 1e9)));
              ("compact_ns", B.J_int (int_of_float (t_compact *. 1e9)));
              ("median_ns", B.J_int (int_of_float (t_open *. 1e9)));
              ("open_speedup", B.J_float (t_parse /. t_open));
              ("agree", B.J_bool agree);
            ];
          rows :=
            [
              string_of_int n;
              string_of_int parsed_size;
              Printf.sprintf "%.1f MB" (float_of_int text_bytes /. 1e6);
              Printf.sprintf "%.1f MB" (float_of_int seg_bytes /. 1e6);
              B.pretty_seconds t_parse;
              B.pretty_seconds t_compact;
              B.pretty_seconds t_open;
              B.ratio_string t_open t_parse;
              string_of_bool agree;
            ]
            :: !rows))
    sizes;
  B.print_table
    ~header:
      [ "tuples"; "distinct"; "text"; "segments"; "text parse"; "compact";
        "mmap open"; "open speedup"; "agree" ]
    (List.rev !rows);
  print_endline
    "\nThe text path re-lexes every byte on every start; the segment path\n\
     pays parsing once at compact time, and a cold open is mmap +\n\
     CRC-validate + column decode into the dictionary-coded row store —\n\
     no tokenization, no per-value boxing, rows presized exactly."

(* ------------------------------------------------------------------ *)
(* ORDER-INDEX: growing the dictionary order index *)

(* The order index behind compiled [<] and the answer encoder is built
   once per dictionary and then extended by merging the codes interned
   since.  No end-to-end workload interns new values after LOAD, so this
   is where the extension's cost is measured: k new codes merged into D
   (k = 1 and k = D/100) against building the index of the same
   dictionary from nothing, the full re-sort a rebuild would pay.  Only
   the [Dictionary.order] call is timed; interning the new values is
   not.  The extended dictionary grows by k per run. *)
let order_index_growth () =
  header
    "ORDER-INDEX — extending the dictionary order index by k codes \
     (merge) vs building it from nothing (full sort)";
  let module Dictionary = Paradb_relational.Dictionary in
  let r = rng 31 in
  let value () =
    if Random.State.int r 4 = 0 then
      Value.Str (Printf.sprintf "s%d" (Random.State.bits r))
    else Value.Int (Random.State.bits r - (1 lsl 29))
  in
  let fill d n =
    while Dictionary.size d < n do
      ignore (Dictionary.intern d (value ()))
    done
  in
  let median samples =
    List.nth (List.sort compare samples) (List.length samples / 2)
  in
  let timed_order d =
    snd (B.time (fun () -> Dictionary.order d ~covering:(Dictionary.size d)))
  in
  let rows = ref [] in
  List.iter
    (fun d_size ->
      let runs = if d_size >= 1_000_000 then 3 else 7 in
      List.iter
        (fun k ->
          let d = Dictionary.create ~size_hint:d_size () in
          fill d d_size;
          ignore (Dictionary.order d ~covering:d_size);
          let extend =
            median
              (List.init runs (fun _ ->
                   fill d (Dictionary.size d + k);
                   timed_order d))
          in
          let full =
            median
              (List.init runs (fun _ ->
                   let n = Dictionary.size d in
                   let fresh = Dictionary.create ~size_hint:n () in
                   for c = 0 to n - 1 do
                     ignore (Dictionary.intern fresh (Dictionary.value d c))
                   done;
                   timed_order fresh))
          in
          B.record
            [
              ("name", B.J_string "order-index-growth");
              ("n", B.J_int d_size);
              ("k", B.J_int k);
              ("median_ns", B.J_int (int_of_float (extend *. 1e9)));
              ("full_ns", B.J_int (int_of_float (full *. 1e9)));
              ("ratio", B.J_float (extend /. full));
            ];
          rows :=
            [
              string_of_int d_size;
              string_of_int k;
              B.pretty_seconds extend;
              B.pretty_seconds full;
              Printf.sprintf "%.3f" (extend /. full);
            ]
            :: !rows)
        [ 1; max 1 (d_size / 100) ])
    [ 1_000; 10_000; 100_000; 1_000_000 ];
  B.print_table
    ~header:[ "D"; "k"; "extend (merge)"; "full build"; "extend/full" ]
    (List.rev !rows);
  print_endline
    "\nAn extension binary-searches each new code's place and blits the\n\
     runs between, then rebuilds the rank and text arrays: O(D + k log D)\n\
     against the full build's O(D log D) comparisons of boxed values."

(* Compile cost against atom order: the anchored 6-chain
   [e(5, X1), e(X1, X2), ..., e(X5, X6)] on the graph of
   [paradb generate edges -n 2000 --seed 1] (7,994 distinct edges),
   listed forward, reversed, interleaved (even atoms, then odd) and in
   every 40th of its 720 orders.  Each order is planned once and compiled
   once untimed (the base relation's key indexes are then built); the
   record is the median of 101 timed [Compile.compile] calls, taken
   round-robin over the orders.  A plan
   rooted where its tree is rooted reduces from the anchor whatever the
   order, so the max/min spread across orders should stay near 1. *)
let compile_atom_order () =
  header "COMPILE-ATOM-ORDER — compile time of one query over its atom orders";
  let module Planner = Paradb_planner.Planner in
  let module Compile = Paradb_eval.Compile in
  let db = Generators.edge_database (Random.State.make [| 1 |]) ~nodes:2000 ~edges:8000 in
  let atoms =
    "e(5, X1)" :: List.init 5 (fun i -> Printf.sprintf "e(X%d, X%d)" (i + 1) (i + 2))
  in
  let rec perms = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun a -> List.map (List.cons a) (perms (List.filter (( <> ) a) l)))
          l
  in
  let pick idx = List.map (List.nth atoms) idx in
  let orders =
    [
      ("forward", atoms);
      ("reverse", List.rev atoms);
      ("interleaved", pick [ 0; 2; 4; 1; 3; 5 ]);
    ]
    @ List.filteri (fun i _ -> i mod 40 = 0 && i > 0)
        (List.mapi (fun i o -> (Printf.sprintf "perm-%d" i, o)) (perms atoms))
  in
  let median samples =
    List.nth (List.sort compare samples) (List.length samples / 2)
  in
  let plans =
    List.map
      (fun (label, body) ->
        let text = Printf.sprintf "ans(X6) :- %s." (String.concat ", " body) in
        let p = Planner.plan (Parser.parse_cq text) in
        (label, text, p, Relation.cardinality (Compile.run (Compile.compile p db))))
      orders
  in
  (* Round-robin: run r compiles every order once, so a drifting host
     slows all orders alike instead of the ones timed last. *)
  let samples = List.map (fun _ -> ref []) plans in
  for _ = 1 to 101 do
    List.iter2
      (fun (_, _, p, _) acc ->
        acc := snd (B.time (fun () -> Compile.compile p db)) :: !acc)
      plans samples
  done;
  let timed =
    List.map2
      (fun (label, text, _, rows) acc ->
        let t = median !acc in
        B.record
          [
            ("name", B.J_string "compile-atom-order");
            ("order", B.J_string label);
            ("query", B.J_string text);
            ("n", B.J_int (Database.size db));
            ("rows", B.J_int rows);
            ("median_ns", B.J_int (int_of_float (t *. 1e9)));
          ];
        (label, text, rows, t))
      plans samples
  in
  let ts = List.map (fun (_, _, _, t) -> t) timed in
  let lo = List.fold_left min infinity ts and hi = List.fold_left max 0. ts in
  B.record
    [
      ("name", B.J_string "compile-atom-order-summary");
      ("orders", B.J_int (List.length ts));
      ("median_ns", B.J_int (int_of_float (median ts *. 1e9)));
      ("min_ns", B.J_int (int_of_float (lo *. 1e9)));
      ("max_ns", B.J_int (int_of_float (hi *. 1e9)));
      ("spread", B.J_float (hi /. lo));
    ];
  B.print_table
    ~header:[ "order"; "query"; "rows"; "compile (median of 101)" ]
    (List.map
       (fun (label, text, rows, t) ->
         [ label; text; string_of_int rows; B.pretty_seconds t ])
       timed);
  Printf.printf "\n%d orders: median %s, min %s, max %s, spread max/min %.2f\n"
    (List.length ts) (B.pretty_seconds (median ts)) (B.pretty_seconds lo)
    (B.pretty_seconds hi) (hi /. lo)

(* ------------------------------------------------------------------ *)
(* registry + drivers *)

let experiments =
  [
    ("fig1-partial-order", fig1_partial_order);
    ("t1-conjunctive", t1_conjunctive);
    ("t1-conjunctive-v", t1_conjunctive_v);
    ("t1-positive", t1_positive);
    ("t1-positive-v", t1_positive_v);
    ("t1-first-order", t1_first_order);
    ("datalog-vardi", datalog_vardi);
    ("t2-scaling-n", t2_scaling_n);
    ("t2-scaling-k", t2_scaling_k);
    ("t2-colorings", t2_colorings);
    ("t2-output", t2_output);
    ("ham-np", ham_np);
    ("t3-comparisons", t3_comparisons);
    ("aw-alternating", aw_alternating);
    ("expression-complexity", expression_complexity);
    ("w2-dominating", w2_dominating);
    ("cm-containment", cm_containment);
    ("ablation-families", ablation_families);
    ("ablation-joins", ablation_joins);
    ("ablation-paths", ablation_path_algorithms);
    ("ablation-prereduce", ablation_prereduce);
    ("ablation-i2", ablation_i2_placement);
    ("ablation-datalog", ablation_seminaive);
    ("compiled-vs-interpreted", compiled_vs_interpreted);
    ("count-overhead", count_overhead);
    ("order-index-growth", order_index_growth);
    ("compile-atom-order", compile_atom_order);
    ("durability-overhead", durability_overhead);
    ("cold-load", cold_load);
  ]

let usage () =
  print_endline "usage: main.exe [--list | --only <id>] [--json <file>]";
  print_endline "experiments:";
  List.iter (fun (name, _) -> Printf.printf "  %s\n" name) experiments

let () =
  (* child mode for the cold-load experiment: open a segment store in
     a genuinely fresh process and report {open time, size, digest} on
     stdout.  See cold_load. *)
  (match Sys.argv with
  | [| _; "--cold-open"; dir |] ->
      (try
         let db, t =
           B.time (fun () -> Paradb_storage.Store.open_dir dir)
         in
         Printf.printf "%f %d %d\n" t (Database.size db) (store_digest db)
       with e -> Printf.printf "ERR %s\n" (Printexc.to_string e));
      exit 0
  | _ -> ());
  let only = ref None and json = ref None and mode = ref `Run in
  let rec parse = function
    | [] -> ()
    | "--list" :: rest ->
        mode := `List;
        parse rest
    | "--only" :: id :: rest ->
        only := Some id;
        parse rest
    | "--json" :: file :: rest ->
        json := Some file;
        parse rest
    | _ ->
        usage ();
        exit 1
  in
  parse (List.tl (Array.to_list Sys.argv));
  Paradb_telemetry.Trace.init_from_env ();
  if !json <> None then B.json_enabled := true;
  (match !mode with
  | `List -> List.iter (fun (name, _) -> print_endline name) experiments
  | `Run -> (
      match !only with
      | None ->
          print_endline "# paradb experiment harness";
          List.iter (fun (_, run) -> run ()) experiments
      | Some id -> (
          match List.assoc_opt id experiments with
          | Some run -> run ()
          | None ->
              Printf.eprintf "unknown experiment %s\n" id;
              usage ();
              exit 1)));
  match !json with None -> () | Some file -> B.write_json file
