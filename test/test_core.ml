module Relation = Paradb_relational.Relation
module Database = Paradb_relational.Database
module Tuple = Paradb_relational.Tuple
module Value = Paradb_relational.Value
module Graph = Paradb_graph.Graph
module Hashing = Paradb_core.Hashing
module Ineq = Paradb_core.Ineq
module Engine = Paradb_core.Engine
module Comparisons = Paradb_core.Comparisons
module Color_coding = Paradb_core.Color_coding
module Cq_naive = Paradb_eval.Cq_naive
open Paradb_query

let db =
  Parser.parse_facts
    "ep(alice, p1). ep(alice, p2). ep(bob, p1). ep(carol, p3). ep(carol, p3)."

(* ------------------------------------------------------------------ *)
(* Hashing *)

let test_next_prime () =
  Alcotest.(check int) "after 1" 2 (Hashing.next_prime 1);
  Alcotest.(check int) "after 2" 3 (Hashing.next_prime 2);
  Alcotest.(check int) "after 10" 11 (Hashing.next_prime 10);
  Alcotest.(check int) "after 13" 17 (Hashing.next_prime 13);
  Alcotest.(check int) "after 0" 2 (Hashing.next_prime 0)

let test_default_trials () =
  Alcotest.(check int) "e^0" 1 (Hashing.default_trials ~c:1.0 ~k:0);
  Alcotest.(check bool) "e^3 about 20" true
    (let t = Hashing.default_trials ~c:1.0 ~k:3 in
     t >= 20 && t <= 21);
  Alcotest.(check bool) "c scales" true
    (Hashing.default_trials ~c:3.0 ~k:4 >= 3 * Hashing.default_trials ~c:1.0 ~k:4 - 2)

let domain_of_ints n = List.init n (fun i -> Value.Int i)

let test_trivial_function_for_small_k () =
  List.iter
    (fun family ->
      let fns = Hashing.functions family ~domain:(domain_of_ints 10) ~k:1 in
      Alcotest.(check int) "single fn" 1 (Seq.length fns))
    [ Hashing.Multiplicative_sweep; Hashing.Exhaustive;
      Hashing.Random_trials { trials = 50; seed = 0 } ]

let test_functions_in_range () =
  List.iter
    (fun family ->
      Seq.iter
        (fun f ->
          List.iter
            (fun v ->
              let c = f.Hashing.apply v in
              Alcotest.(check bool) "in range" true (c >= 0 && c < f.Hashing.range))
            (domain_of_ints 7))
        (Hashing.functions family ~domain:(domain_of_ints 7) ~k:3))
    [ Hashing.Multiplicative_sweep; Hashing.Exhaustive;
      Hashing.Random_trials { trials = 20; seed = 1 } ]

(* The deterministic sweep must be k-perfect: for EVERY k-subset some
   function separates it. *)
let test_sweep_is_k_perfect () =
  let domain = domain_of_ints 9 in
  let k = 3 in
  let fns = List.of_seq (Hashing.functions Hashing.Multiplicative_sweep ~domain ~k) in
  let rec subsets n k start =
    if k = 0 then [ [] ]
    else if start >= n then []
    else
      List.map (fun rest -> start :: rest) (subsets n (k - 1) (start + 1))
      @ subsets n k (start + 1)
  in
  List.iter
    (fun subset ->
      let values = List.map (fun i -> Value.Int i) subset in
      Alcotest.(check bool)
        (Printf.sprintf "separates {%s}" (String.concat "," (List.map string_of_int subset)))
        true
        (List.exists (fun f -> Hashing.is_injective_on f values) fns))
    (subsets 9 k 0)

let test_exhaustive_is_k_perfect () =
  let domain = domain_of_ints 5 in
  let fns = List.of_seq (Hashing.functions Hashing.Exhaustive ~domain ~k:2) in
  Alcotest.(check int) "2^5 functions" 32 (List.length fns);
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) "separates" true
        (List.exists
           (fun f -> Hashing.is_injective_on f [ Value.Int a; Value.Int b ])
           fns))
    [ (0, 1); (0, 4); (2, 3); (1, 4) ]

let test_exhaustive_guard () =
  Alcotest.(check bool) "too large" true
    (try
       ignore
         (Seq.length (Hashing.functions Hashing.Exhaustive ~domain:(domain_of_ints 40) ~k:5));
       false
     with Invalid_argument _ -> true)

let test_random_family_replayable () =
  let fam = Hashing.Random_trials { trials = 5; seed = 7 } in
  let run () =
    List.of_seq
      (Seq.map
         (fun f -> List.map f.Hashing.apply (domain_of_ints 6))
         (Hashing.functions fam ~domain:(domain_of_ints 6) ~k:3))
  in
  Alcotest.(check bool) "same colors twice" true (run () = run ())

let test_random_success_probability () =
  (* a random coloring separates 3 fixed values with probability
     3!/27 = 2/9; with 60 trials some function separates them whp *)
  let fns =
    Hashing.functions (Hashing.Random_trials { trials = 60; seed = 3 })
      ~domain:(domain_of_ints 30) ~k:3
  in
  let values = [ Value.Int 4; Value.Int 11; Value.Int 23 ] in
  Alcotest.(check bool) "some trial separates" true
    (Seq.exists (fun f -> Hashing.is_injective_on f values) fns)

(* ------------------------------------------------------------------ *)
(* Ineq partition *)

let test_partition () =
  let q =
    Parser.parse_cq
      "ans() :- e(X, Y), e(Y, Z), X != Y, X != Z, Y != 5."
  in
  let part = Ineq.partition q in
  (* X,Y co-occur in the first atom -> I2; X,Z never co-occur -> I1;
     Y != 5 is a constant constraint -> I2 *)
  Alcotest.(check int) "i1" 1 (List.length part.Ineq.i1);
  Alcotest.(check int) "i2" 2 (List.length part.Ineq.i2);
  Alcotest.(check (list string)) "v1" [ "X"; "Z" ] part.Ineq.v1;
  Alcotest.(check int) "k" 2 part.Ineq.k;
  Alcotest.(check (list (pair string string))) "pairs" [ ("X", "Z") ]
    (Ineq.i1_pairs part)

let test_partition_rejects_comparisons () =
  let q = Parser.parse_cq "ans() :- e(X, Y), X < Y." in
  Alcotest.(check bool) "raises" true
    (try ignore (Ineq.partition q); false with Invalid_argument _ -> true)

let test_i2_filter () =
  let q = Parser.parse_cq "ans() :- e(X, Y), X != Y, X != 1." in
  let part = Ineq.partition q in
  let ok = Binding.of_list [ ("X", Value.Int 2); ("Y", Value.Int 3) ] in
  let same = Binding.of_list [ ("X", Value.Int 2); ("Y", Value.Int 2) ] in
  let one = Binding.of_list [ ("X", Value.Int 1); ("Y", Value.Int 3) ] in
  Alcotest.(check bool) "passes" true (Ineq.i2_filter part [ "X"; "Y" ] ok);
  Alcotest.(check bool) "equal blocked" false (Ineq.i2_filter part [ "X"; "Y" ] same);
  Alcotest.(check bool) "constant blocked" false (Ineq.i2_filter part [ "X"; "Y" ] one);
  (* constraints outside the atom's variables are skipped *)
  Alcotest.(check bool) "skips foreign" true
    (Ineq.i2_filter part [ "Y" ] (Binding.of_list [ ("Y", Value.Int 1) ]))

(* ------------------------------------------------------------------ *)
(* Engine on the paper's examples *)

let test_employees_multi_project () =
  let q = Parser.parse_cq "g(E) :- ep(E, P), ep(E, P2), P != P2." in
  let r = Engine.evaluate db q in
  Alcotest.(check int) "only alice" 1 (Relation.cardinality r);
  Alcotest.(check bool) "alice" true
    (Relation.mem [| Value.Str "alice" |] r);
  Alcotest.(check bool) "matches naive" true
    (Relation.set_equal r (Cq_naive.evaluate db q))

let test_students_example () =
  let sdb =
    Parser.parse_facts
      "sd(ann, cs). sd(bob, math). sc(ann, algo). sc(bob, algo). cd(algo, cs)."
  in
  let q = Parser.parse_cq "g(S) :- sd(S, D), sc(S, C), cd(C, D2), D != D2." in
  let r = Engine.evaluate sdb q in
  Alcotest.(check int) "only bob" 1 (Relation.cardinality r);
  Alcotest.(check bool) "bob" true (Relation.mem [| Value.Str "bob" |] r)

let test_engine_cyclic_rejected () =
  let q = Parser.parse_cq "goal :- ep(X, Y), ep(Y, Z), ep(Z, X)." in
  Alcotest.(check bool) "raises" true
    (try ignore (Engine.is_satisfiable db q); false
     with Engine.Cyclic_query -> true)

let test_engine_no_constraints_is_yannakakis () =
  let q = Parser.parse_cq "ans(E) :- ep(E, P)." in
  Alcotest.(check bool) "same" true
    (Relation.set_equal (Engine.evaluate db q)
       (Paradb_yannakakis.Yannakakis.evaluate db q))

let test_engine_stats () =
  let q = Parser.parse_cq "g(E) :- ep(E, P), ep(E, P2), P != P2." in
  let stats = Engine.new_stats () in
  ignore (Engine.is_satisfiable ~stats db q);
  Alcotest.(check bool) "tried >= 1" true (stats.Engine.trials >= 1);
  Alcotest.(check bool) "found" true (stats.Engine.successes >= 1)

(* A Boolean head settles at its first successful coloring; a head with
   variables must union every coloring of the family. *)
let test_engine_boolean_first_witness () =
  let gdb =
    Parser.parse_facts
      "e(1, 2). e(2, 3). e(3, 4). e(4, 5). e(5, 6). e(6, 1). e(1, 4). \
       e(2, 5). e(5, 4). e(4, 6). e(6, 4). e(5, 5)."
  in
  let boolean = Parser.parse_cq "ans() :- e(X, Y), e(Y, Z), X != Z." in
  let headed = Parser.parse_cq "ans(X, Z) :- e(X, Y), e(Y, Z), X != Z." in
  let family_size =
    Seq.length
      (Hashing.functions Hashing.Multiplicative_sweep
         ~domain:(Value.Set.elements (Database.domain gdb))
         ~k:(Ineq.partition boolean).Ineq.k)
  in
  let sat = Engine.new_stats () and ev = Engine.new_stats () in
  Alcotest.(check bool) "satisfiable" true
    (Engine.is_satisfiable ~stats:sat gdb boolean);
  let r = Engine.evaluate ~stats:ev gdb boolean in
  Alcotest.(check int) "trials as for is_satisfiable" sat.Engine.trials
    ev.Engine.trials;
  Alcotest.(check bool)
    (Printf.sprintf "%d trial(s) below the family's %d" ev.Engine.trials
       family_size)
    true
    (ev.Engine.trials < family_size);
  Alcotest.(check bool) "boolean matches naive" true
    (Relation.set_equal r (Cq_naive.evaluate gdb boolean));
  let hv = Engine.new_stats () in
  let r = Engine.evaluate ~stats:hv gdb headed in
  Alcotest.(check int) "head variables run the whole family" family_size
    hv.Engine.trials;
  Alcotest.(check bool) "headed matches naive" true
    (Relation.set_equal r (Cq_naive.evaluate gdb headed))

let test_engine_unsat_early_empty () =
  let q = Parser.parse_cq "g(E) :- ep(E, zzz), ep(E, P2), zzz != P2." in
  (* "zzz" never appears as a project: base relation empty *)
  Alcotest.(check bool) "unsat" false (Engine.is_satisfiable db q)

let test_decide () =
  let q = Parser.parse_cq "g(E) :- ep(E, P), ep(E, P2), P != P2." in
  Alcotest.(check bool) "alice yes" true
    (Engine.decide db q [| Value.Str "alice" |]);
  Alcotest.(check bool) "bob no" false (Engine.decide db q [| Value.Str "bob" |])

let test_single_coloring_soundness () =
  (* Q_h(d) is a subset of Q(d) for every coloring *)
  let q = Parser.parse_cq "g(E) :- ep(E, P), ep(E, P2), P != P2." in
  let domain = Value.Set.elements (Database.domain db) in
  let full = Cq_naive.evaluate db q in
  Seq.iter
    (fun h ->
      let qh = Engine.evaluate_with db q h in
      Relation.iter
        (fun row -> Alcotest.(check bool) "subset" true (Relation.mem row full))
        qh)
    (Hashing.functions (Hashing.Random_trials { trials = 30; seed = 5 })
       ~domain ~k:2)

(* I1 inequalities checked across a deeper tree *)
let test_long_chain_i1 () =
  let cdb = Parser.parse_facts "e(1, 2). e(2, 3). e(3, 1). e(3, 4)." in
  let q =
    Parser.parse_cq
      "ans(A, D) :- e(A, B), e(B, C), e(C, D), A != C, B != D, A != D."
  in
  Alcotest.(check bool) "matches naive" true
    (Relation.set_equal (Engine.evaluate cdb q) (Cq_naive.evaluate cdb q))

(* ------------------------------------------------------------------ *)
(* Formula extension *)

let test_formula_disjunction () =
  let cdb = Parser.parse_facts "e(1, 2). e(2, 1). e(2, 2)." in
  let q = Parser.parse_cq "ans(X, Z) :- e(X, Y), e(Y, Z)." in
  (* X != Z or Y != 2 *)
  let f =
    Ineq_formula.disj
      [
        Ineq_formula.atom (Constr.neq (Term.var "X") (Term.var "Z"));
        Ineq_formula.atom (Constr.neq (Term.var "Y") (Term.int 2));
      ]
  in
  let got = Engine.evaluate_formula cdb q f in
  (* reference: filter naive bindings *)
  let expected =
    List.filter_map
      (fun b -> if Ineq_formula.holds b f then Some (Cq.head_tuple b q) else None)
      (Cq_naive.all_bindings cdb q)
  in
  let expected_rel = Relation.create ~name:"ans" ~schema:[ "a0"; "a1" ] expected in
  Alcotest.(check bool) "matches reference" true (Relation.set_equal got expected_rel)

let test_formula_guard () =
  let q = Parser.parse_cq "ans(X) :- ep(X, Y)." in
  let f = Ineq_formula.atom (Constr.lt (Term.var "X") (Term.var "Y")) in
  Alcotest.(check bool) "rejects comparisons" true
    (try ignore (Engine.is_satisfiable_formula db q f); false
     with Invalid_argument _ -> true)

let test_formula_v_driver () =
  let cdb = Parser.parse_facts "e(1, 2). e(2, 1). e(2, 3). e(3, 1)." in
  let q = Parser.parse_cq "ans(X, Z) :- e(X, Y), e(Y, Z)." in
  (* conjunctive x != c atoms plus a var-var disjunction *)
  let f =
    Ineq_formula.conj
      [
        Ineq_formula.atom (Constr.neq (Term.var "X") (Term.int 1));
        Ineq_formula.atom (Constr.neq (Term.var "Y") (Term.int 3));
        Ineq_formula.disj
          [
            Ineq_formula.atom (Constr.neq (Term.var "X") (Term.var "Z"));
            Ineq_formula.atom (Constr.neq (Term.var "Y") (Term.var "Z"));
          ];
      ]
  in
  let via_v = Engine.evaluate_formula_v cdb q f in
  let via_q = Engine.evaluate_formula cdb q f in
  Alcotest.(check bool) "both drivers agree" true (Relation.set_equal via_v via_q);
  (* reference: naive bindings filtered by the formula *)
  let expected =
    List.filter_map
      (fun b -> if Ineq_formula.holds b f then Some (Cq.head_tuple b q) else None)
      (Cq_naive.all_bindings cdb q)
  in
  let expected_rel = Relation.create ~name:"ans" ~schema:[ "a0"; "a1" ] expected in
  Alcotest.(check bool) "matches reference" true
    (Relation.set_equal via_v expected_rel);
  Alcotest.(check bool) "satisfiability agrees" true
    (Engine.is_satisfiable_formula_v cdb q f
    = not (Relation.is_empty expected_rel))

let test_split_constant_conjuncts () =
  let f =
    Ineq_formula.conj
      [
        Ineq_formula.atom (Constr.neq (Term.var "X") (Term.int 1));
        Ineq_formula.atom (Constr.neq (Term.var "X") (Term.var "Y"));
        Ineq_formula.atom (Constr.neq (Term.int 2) (Term.var "Z"));
      ]
  in
  let consts, rest = Engine.split_constant_conjuncts f in
  Alcotest.(check int) "two constant atoms" 2 (List.length consts);
  (match rest with
  | Ineq_formula.Atom _ -> ()
  | _ -> Alcotest.fail "expected the var-var atom to remain")

(* ------------------------------------------------------------------ *)
(* Comparisons (Klug preprocessing) *)

let test_comparisons_consistent () =
  let q = Parser.parse_cq "ans(X, Y) :- e(X, Y), X < Y." in
  (match Comparisons.preprocess q with
  | Comparisons.Collapsed q' ->
      Alcotest.(check int) "kept" 1 (List.length q'.Cq.constraints)
  | Comparisons.Inconsistent -> Alcotest.fail "consistent system")

let test_comparisons_cycle_inconsistent () =
  let q = Parser.parse_cq "ans() :- e(X, Y), X < Y, Y < X." in
  Alcotest.(check bool) "inconsistent" true
    (Comparisons.preprocess q = Comparisons.Inconsistent);
  let q2 = Parser.parse_cq "ans() :- e(X, Y), X < X." in
  Alcotest.(check bool) "self strict" true
    (Comparisons.preprocess q2 = Comparisons.Inconsistent)

let test_comparisons_collapse () =
  (* X <= Y and Y <= X force X = Y *)
  let q = Parser.parse_cq "ans(X, Y) :- e(X, Y), X <= Y, Y <= X." in
  (match Comparisons.preprocess q with
  | Comparisons.Collapsed q' ->
      Alcotest.(check int) "collapsed to one var" 1 (Cq.num_vars q');
      Alcotest.(check int) "no constraints left" 0 (List.length q'.Cq.constraints)
  | Comparisons.Inconsistent -> Alcotest.fail "consistent");
  (* collapse onto a constant *)
  let q2 = Parser.parse_cq "ans(X) :- e(X, Y), X <= 3, 3 <= X." in
  (match Comparisons.preprocess q2 with
  | Comparisons.Collapsed q' ->
      Alcotest.(check bool) "head is constant 3" true
        (match q'.Cq.head with [ Term.Const (Value.Int 3) ] -> true | _ -> false)
  | Comparisons.Inconsistent -> Alcotest.fail "consistent")

let test_comparisons_constants_order () =
  (* constants are ordered: 3 <= X <= 2 is inconsistent *)
  let q = Parser.parse_cq "ans() :- e(X, Y), 3 <= X, X <= 2." in
  Alcotest.(check bool) "inconsistent" true
    (Comparisons.preprocess q = Comparisons.Inconsistent)

let test_comparisons_neq_after_collapse () =
  let q = Parser.parse_cq "ans() :- e(X, Y), X <= Y, Y <= X, X != Y." in
  Alcotest.(check bool) "collapse makes != unsatisfiable" true
    (Comparisons.preprocess q = Comparisons.Inconsistent)

let test_comparisons_evaluate () =
  let sdb =
    Parser.parse_facts
      "em(bob, alice). em(carol, alice). es(alice, 100). es(bob, 120). es(carol, 80)."
  in
  let q = Parser.parse_cq "g(E) :- em(E, M), es(E, S), es(M, S2), S2 < S." in
  let r = Comparisons.evaluate sdb q in
  Alcotest.(check int) "one overpaid" 1 (Relation.cardinality r);
  Alcotest.(check bool) "bob" true (Relation.mem [| Value.Str "bob" |] r);
  Alcotest.(check bool) "sat" true (Comparisons.is_satisfiable sdb q)

let test_comparisons_dispatch_to_engine () =
  (* after preprocessing, a pure != acyclic query goes through the engine *)
  let q = Parser.parse_cq "g(E) :- ep(E, P), ep(E, P2), P != P2." in
  let r = Comparisons.evaluate db q in
  Alcotest.(check bool) "same as engine" true
    (Relation.set_equal r (Engine.evaluate db q))

(* ------------------------------------------------------------------ *)
(* Color coding *)

let test_path_query_shape () =
  let q = Color_coding.path_query ~k:4 in
  Alcotest.(check int) "atoms" 3 (List.length q.Cq.body);
  Alcotest.(check int) "all pairs" 6 (List.length q.Cq.constraints);
  let part = Ineq.partition q in
  (* adjacent pairs are I2 (co-occur in an edge atom), the rest I1 *)
  Alcotest.(check int) "i2 = adjacent" 3 (List.length part.Ineq.i2);
  Alcotest.(check int) "i1 = non-adjacent" 3 (List.length part.Ineq.i1)

let test_paths_on_known_graphs () =
  let path5 = Graph.path_graph 5 in
  Alcotest.(check bool) "path5 has p5" true (Color_coding.has_simple_path path5 5);
  Alcotest.(check bool) "path5 no p6" false (Color_coding.has_simple_path path5 6);
  (match Color_coding.find_simple_path path5 5 with
  | Some p -> Alcotest.(check bool) "witness" true (Graph.is_simple_path path5 p)
  | None -> Alcotest.fail "expected");
  let star = Graph.of_edges 5 [ (0, 1); (0, 2); (0, 3); (0, 4) ] in
  Alcotest.(check bool) "star has p3" true (Color_coding.has_simple_path star 3);
  Alcotest.(check bool) "star no p4" false (Color_coding.has_simple_path star 4)

let test_path_k1_k0 () =
  let g = Graph.create 3 in
  Alcotest.(check bool) "k=0" true (Color_coding.has_simple_path g 0);
  Alcotest.(check bool) "k=1 isolated vertices" true (Color_coding.has_simple_path g 1);
  Alcotest.(check bool) "k=2 no edges" false (Color_coding.has_simple_path g 2)

let test_colorful_path_dp () =
  let g = Graph.path_graph 5 in
  (* the identity coloring on a path makes the whole path colorful *)
  let colors = Array.init 5 Fun.id in
  (match Color_coding.colorful_path g colors 5 with
  | Some p ->
      Alcotest.(check bool) "witness" true (Graph.is_simple_path g p);
      Alcotest.(check int) "length" 5 (List.length p)
  | None -> Alcotest.fail "expected colorful path");
  (* a monochromatic coloring admits no colorful 2-path *)
  let mono = Array.make 5 0 in
  Alcotest.(check bool) "monochromatic" true
    (Color_coding.colorful_path g mono 2 = None);
  Alcotest.(check bool) "bad color range" true
    (try ignore (Color_coding.colorful_path g (Array.make 5 7) 2); false
     with Invalid_argument _ -> true)

let test_dp_finder () =
  let path5 = Graph.path_graph 5 in
  Alcotest.(check bool) "finds the 5-path" true
    (Color_coding.has_simple_path_dp ~trials:500 path5 5);
  Alcotest.(check bool) "rejects 6" false
    (Color_coding.has_simple_path_dp ~trials:50 path5 6);
  (match Color_coding.find_simple_path_dp ~trials:500 path5 4 with
  | Some p -> Alcotest.(check bool) "witness" true (Graph.is_simple_path path5 p)
  | None -> Alcotest.fail "expected");
  Alcotest.(check bool) "k=0" true (Color_coding.has_simple_path_dp path5 0);
  Alcotest.(check bool) "k=1" true (Color_coding.has_simple_path_dp path5 1)

(* ------------------------------------------------------------------ *)
(* Properties: the central Theorem-2 correctness statement *)

(* A larger end-to-end consistency check across every evaluator. *)
let test_cross_engine_integration () =
  let rng = Random.State.make [| 2026 |] in
  let db =
    Paradb_workload.Generators.edge_database rng ~nodes:300 ~edges:1200
  in
  let q =
    Paradb_workload.Generators.chain_query ~length:3
      ~neq:[ (0, 2); (1, 3); (0, 3) ]
  in
  let reference = Cq_naive.evaluate db q in
  let family =
    Hashing.Random_trials
      { trials = Hashing.default_trials ~c:6.0 ~k:3; seed = 9 }
  in
  Alcotest.(check bool) "engine (random family)" true
    (Relation.set_equal (Engine.evaluate ~family db q) reference);
  Alcotest.(check bool) "join-based" true
    (Relation.set_equal (Paradb_eval.Join_eval.evaluate db q) reference);
  let stats = Engine.new_stats () in
  ignore (Engine.is_satisfiable ~family ~stats db q);
  Alcotest.(check bool) "peak rows recorded" true (stats.Engine.peak_rows > 0)

let qcheck_tests =
  [
    Qgen.seeded_property ~name:"engine = naive on random acyclic queries (sweep)"
      ~count:150 (fun rng ->
        let db = Qgen.tree_cq_database rng ~max_arity:3 ~domain_size:4 ~tuples:10 in
        let q =
          Qgen.random_tree_cq rng ~max_atoms:4 ~max_arity:3 ~neq_tries:4
            ~domain_size:4
        in
        Relation.set_equal (Engine.evaluate db q) (Cq_naive.evaluate db q));
    Qgen.seeded_property ~name:"engine satisfiability = naive (sweep)" ~count:150
      (fun rng ->
        let db = Qgen.tree_cq_database rng ~max_arity:3 ~domain_size:4 ~tuples:10 in
        let q =
          Qgen.random_tree_cq rng ~max_atoms:4 ~max_arity:3 ~neq_tries:4
            ~domain_size:4
        in
        Engine.is_satisfiable db q = Cq_naive.is_satisfiable db q);
    Qgen.seeded_property ~name:"random family never false-positives" ~count:80
      (fun rng ->
        let db = Qgen.tree_cq_database rng ~max_arity:3 ~domain_size:4 ~tuples:8 in
        let q =
          Qgen.random_tree_cq rng ~max_atoms:3 ~max_arity:3 ~neq_tries:3
            ~domain_size:4
        in
        let family =
          Hashing.Random_trials { trials = 40; seed = Random.State.int rng 10000 }
        in
        (* one-sided error: a positive answer is always correct *)
        (not (Engine.is_satisfiable ~family db q))
        || Cq_naive.is_satisfiable db q);
    Qgen.seeded_property ~name:"exhaustive family = naive on tiny domains"
      ~count:50 (fun rng ->
        let db = Qgen.tree_cq_database rng ~max_arity:2 ~domain_size:3 ~tuples:6 in
        let q =
          Qgen.random_tree_cq rng ~max_atoms:3 ~max_arity:2 ~neq_tries:3
            ~domain_size:3
        in
        Engine.is_satisfiable ~family:Hashing.Exhaustive db q
        = Cq_naive.is_satisfiable db q);
    Qgen.seeded_property ~name:"color coding = backtracking path search"
      ~count:60 (fun rng ->
        let n = 4 + Random.State.int rng 4 in
        let g = Graph.gnp rng n 0.35 in
        let k = 2 + Random.State.int rng 3 in
        Color_coding.has_simple_path g k = Graph.has_simple_path g k);
    Qgen.seeded_property ~name:"DP color coding = backtracking" ~count:60
      (fun rng ->
        let n = 4 + Random.State.int rng 5 in
        let g = Graph.gnp rng n 0.35 in
        let k = 2 + Random.State.int rng 3 in
        Color_coding.has_simple_path_dp ~trials:400
          ~seed:(Random.State.int rng 1000) g k
        = Graph.has_simple_path g k);
    Qgen.seeded_property ~name:"comparisons evaluate = naive" ~count:80
      (fun rng ->
        let db = Qgen.tree_cq_database rng ~max_arity:3 ~domain_size:4 ~tuples:8 in
        let q0 =
          Qgen.random_tree_cq rng ~max_atoms:3 ~max_arity:3 ~neq_tries:1
            ~domain_size:4
        in
        (* sprinkle random comparisons *)
        let vars = Array.of_list (Cq.vars q0) in
        let extra =
          List.init (Random.State.int rng 3) (fun _ ->
              let a = vars.(Random.State.int rng (Array.length vars)) in
              let b =
                if Random.State.bool rng then
                  Term.var vars.(Random.State.int rng (Array.length vars))
                else Term.int (Random.State.int rng 4)
              in
              let op = if Random.State.bool rng then Constr.Lt else Constr.Le in
              Constr.make op (Term.var a) b)
        in
        let q =
          Cq.make ~name:q0.Cq.name
            ~constraints:(q0.Cq.constraints @ extra)
            ~head:q0.Cq.head q0.Cq.body
        in
        Relation.set_equal (Comparisons.evaluate db q) (Cq_naive.evaluate db q));
  ]

let () =
  Alcotest.run "core"
    [
      ( "hashing",
        [
          Alcotest.test_case "next_prime" `Quick test_next_prime;
          Alcotest.test_case "default trials" `Quick test_default_trials;
          Alcotest.test_case "k<=1 trivial" `Quick test_trivial_function_for_small_k;
          Alcotest.test_case "ranges" `Quick test_functions_in_range;
          Alcotest.test_case "sweep k-perfect" `Quick test_sweep_is_k_perfect;
          Alcotest.test_case "exhaustive k-perfect" `Quick test_exhaustive_is_k_perfect;
          Alcotest.test_case "exhaustive guard" `Quick test_exhaustive_guard;
          Alcotest.test_case "random replayable" `Quick test_random_family_replayable;
          Alcotest.test_case "random succeeds" `Quick test_random_success_probability;
        ] );
      ( "ineq partition",
        [
          Alcotest.test_case "partition" `Quick test_partition;
          Alcotest.test_case "rejects comparisons" `Quick test_partition_rejects_comparisons;
          Alcotest.test_case "i2 filter" `Quick test_i2_filter;
        ] );
      ( "engine",
        [
          Alcotest.test_case "employees example" `Quick test_employees_multi_project;
          Alcotest.test_case "students example" `Quick test_students_example;
          Alcotest.test_case "cyclic rejected" `Quick test_engine_cyclic_rejected;
          Alcotest.test_case "no constraints" `Quick test_engine_no_constraints_is_yannakakis;
          Alcotest.test_case "stats" `Quick test_engine_stats;
          Alcotest.test_case "boolean first witness" `Quick
            test_engine_boolean_first_witness;
          Alcotest.test_case "empty base" `Quick test_engine_unsat_early_empty;
          Alcotest.test_case "decide" `Quick test_decide;
          Alcotest.test_case "per-coloring soundness" `Quick test_single_coloring_soundness;
          Alcotest.test_case "long chain" `Quick test_long_chain_i1;
        ] );
      ( "integration",
        [ Alcotest.test_case "cross-engine, 300 nodes" `Slow
            test_cross_engine_integration ] );
      ( "formula extension",
        [
          Alcotest.test_case "disjunction" `Quick test_formula_disjunction;
          Alcotest.test_case "guard" `Quick test_formula_guard;
          Alcotest.test_case "split constants" `Quick test_split_constant_conjuncts;
          Alcotest.test_case "parameter-v driver" `Quick test_formula_v_driver;
        ] );
      ( "comparisons",
        [
          Alcotest.test_case "consistent" `Quick test_comparisons_consistent;
          Alcotest.test_case "cycle" `Quick test_comparisons_cycle_inconsistent;
          Alcotest.test_case "collapse" `Quick test_comparisons_collapse;
          Alcotest.test_case "constant order" `Quick test_comparisons_constants_order;
          Alcotest.test_case "neq after collapse" `Quick test_comparisons_neq_after_collapse;
          Alcotest.test_case "salary example" `Quick test_comparisons_evaluate;
          Alcotest.test_case "dispatch" `Quick test_comparisons_dispatch_to_engine;
        ] );
      ( "color coding",
        [
          Alcotest.test_case "query shape" `Quick test_path_query_shape;
          Alcotest.test_case "known graphs" `Quick test_paths_on_known_graphs;
          Alcotest.test_case "tiny k" `Quick test_path_k1_k0;
          Alcotest.test_case "colorful path dp" `Quick test_colorful_path_dp;
          Alcotest.test_case "dp finder" `Quick test_dp_finder;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
