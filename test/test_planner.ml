(* The structure-aware planner and the compiled push-based pipeline:
   classification (GYO acyclic / low-width / cyclic), plan shape, the
   compiled engine's exact agreement with the interpreters on random
   acyclic and cyclic instances, and Budget cancellation inside compiled
   pipelines. *)

module Planner = Paradb_planner.Planner
module Compile = Paradb_eval.Compile
module Cq_naive = Paradb_eval.Cq_naive
module Join_eval = Paradb_eval.Join_eval
module Yannakakis = Paradb_yannakakis.Yannakakis
module Relation = Paradb_relational.Relation
module Database = Paradb_relational.Database
module Value = Paradb_relational.Value
module Budget = Paradb_telemetry.Budget
module Metrics = Paradb_telemetry.Metrics
module Generators = Paradb_workload.Generators
open Paradb_query

let plan text = Planner.plan (Parser.parse_cq text)

let edge rows =
  Database.of_relations
    [
      Relation.create ~name:"e" ~schema:[ "a"; "b" ]
        (List.map
           (fun (a, b) -> [| Value.Int a; Value.Int b |])
           rows);
    ]

let triangle_db = edge [ (1, 2); (2, 3); (3, 1); (2, 2); (4, 5) ]

(* ------------------------------------------------------------------ *)
(* Classification *)

let test_classification () =
  let p = plan "ans(X, Z) :- e(X, Y), e(Y, Z)." in
  Alcotest.(check bool) "chain acyclic" true
    (p.Planner.classification = Planner.Acyclic);
  Alcotest.(check int) "chain width 1" 1 p.Planner.width;
  Alcotest.(check bool) "chain has a join tree" true (p.Planner.tree <> None);
  let t = plan "ans(X) :- e(X, Y), e(Y, Z), e(Z, X)." in
  Alcotest.(check bool) "triangle low-width" true
    (t.Planner.classification = Planner.Low_width 2);
  Alcotest.(check int) "triangle width 2" 2 t.Planner.width;
  Alcotest.(check bool) "triangle has no tree" true (t.Planner.tree = None);
  (* 5-clique: 10 binary atoms, every elimination bag is the whole
     vertex set, greedy edge cover needs 3 atoms > threshold 2 *)
  let clique =
    let atoms = ref [] in
    for i = 0 to 4 do
      for j = i + 1 to 4 do
        atoms :=
          Printf.sprintf "e(X%d, X%d)" i j :: !atoms
      done
    done;
    Printf.sprintf "ans(X0) :- %s." (String.concat ", " (List.rev !atoms))
  in
  let c = plan clique in
  (match c.Planner.classification with
  | Planner.Cyclic w ->
      Alcotest.(check bool) "5-clique width estimate >= 3" true (w >= 3)
  | _ -> Alcotest.fail "5-clique should be classified cyclic");
  Alcotest.(check bool) "threshold separates the classes" true
    (Planner.low_width_threshold = 2)

let test_plan_shape () =
  let p = plan "ans(X, Z) :- e(X, Y), e(Y, Z), X != Z." in
  (match p.Planner.steps with
  | Planner.Scan _ :: rest ->
      Alcotest.(check bool) "later steps probe or exists" true
        (List.for_all
           (function Planner.Scan _ -> false | _ -> true)
           rest)
  | _ -> Alcotest.fail "plan must open with a scan");
  Alcotest.(check int) "one filter placed" 1 (List.length p.Planner.filters);
  (* constants and repeated variables become scan-level selections *)
  let s = plan "ans(X) :- e(1, X), e(X, X)." in
  Alcotest.(check int) "constant pinned" 1
    (List.length s.Planner.scans.(0).Planner.selections);
  Alcotest.(check int) "repeated var equality" 1
    (List.length s.Planner.scans.(1).Planner.equalities);
  (* explain renders every structural element *)
  let lines = Planner.explain p in
  let has needle = List.exists (fun l -> Test_support.contains l needle) lines in
  Alcotest.(check bool) "explain: class line" true (has "class: acyclic");
  Alcotest.(check bool) "explain: width line" true (has "width: 1");
  Alcotest.(check bool) "explain: scan step" true (has "scan e");
  Alcotest.(check bool) "explain: probe step" true (has "probe e")

(* First-witness cut: EXPLAIN names the step after which every head
   variable is bound, only when steps follow it; a Boolean head cuts at
   step 0, a head bound only by the last step has no cut line. *)
let test_explain_cut () =
  let cut_line p =
    List.find_opt
      (fun l -> Test_support.contains l "cut after step")
      (Planner.explain p)
  in
  let p = plan "ans(X) :- e(X, Y), e(X, Z), Y != Z." in
  Alcotest.(check int) "projected head cuts at step 0" 0 p.Planner.cut;
  Alcotest.(check (option string)) "explain: cut line"
    (Some "cut after step 0: steps 1..1 stop at the first witness")
    (cut_line p);
  let chain = plan "ans(W) :- e(X, Y), e(Y, Z), e(Z, W)." in
  Alcotest.(check int) "chain cuts at step 0" 0 chain.Planner.cut;
  Alcotest.(check bool) "chain: a barrier sits after the cut" true
    (Array.exists Fun.id
       (Array.mapi (fun i b -> i > chain.Planner.cut && b <> None)
          chain.Planner.barriers));
  let boolean =
    Planner.plan
      (Cq.make ~name:"q" ~head:[]
         [ Atom.make "e" [ Term.var "X"; Term.var "Y" ];
           Atom.make "e" [ Term.var "Y"; Term.var "Z" ] ])
  in
  Alcotest.(check int) "boolean head cuts at step 0" 0 boolean.Planner.cut;
  Alcotest.(check bool) "boolean: cut line" true (cut_line boolean <> None);
  let full = plan "ans(X, Z) :- e(X, Y), e(Y, Z)." in
  Alcotest.(check int) "full head binds at the last step" 1 full.Planner.cut;
  Alcotest.(check (option string)) "no cut line without a suffix" None
    (cut_line full)

(* Filter-first root: a join tree's preorder starts at the atom with the
   most local work (constants, repeated variables, constraints over its
   own variables); without one, the GYO root and today's plan stay. *)
let test_filter_first_root () =
  let p = plan "ans(X, Z) :- e(X, Y), e(Y, Z), X != Z, X < 300." in
  (match p.Planner.steps with
  | Planner.Scan { atom } :: _ ->
      Alcotest.(check (list string)) "scans e(V0, V1) first" [ "V0"; "V1" ]
        p.Planner.scans.(atom).Planner.vars
  | _ -> Alcotest.fail "plan must open with a scan");
  let lines = Planner.explain p in
  Alcotest.(check bool) "explain: local filter after step 0" true
    (List.mem "filter after step 0: V0 < 300" lines);
  Alcotest.(check bool) "explain: join filter after step 1" true
    (List.mem "filter after step 1: V0 != V2" lines);
  let anchored = plan "ans(Y, Z) :- e(Y, Z), e(1, Y)." in
  (match anchored.Planner.steps with
  | Planner.Scan { atom } :: _ ->
      Alcotest.(check int) "anchored atom scanned first" 1 atom
  | _ -> Alcotest.fail "plan must open with a scan");
  Alcotest.(check (list string)) "3-chain keeps the GYO root's plan"
    [
      "query: ans(V0) :- e(V0, V1), e(V1, V2), e(V2, V3)";
      "class: acyclic";
      "width: 1";
      "join_tree: 3 nodes, root atom 2";
      "semijoin program: 4 steps";
      "step 0: scan e -> [V2 V3]";
      "step 1: probe e key=[V2] bind=[V1]";
      "step 2: probe e key=[V1] bind=[V0]";
      "barrier after step 0: live=[V2]";
      "barrier after step 1: live=[V1]";
      "distribution: reducer exchange";
    ]
    (Planner.explain (plan "ans(X) :- e(X, Y), e(Y, Z), e(Z, W)."))

(* One rooting per plan, whatever the atom order: over all 720 orders of
   the anchored 6-chain the tree is rooted at the anchor atom [e(5, X1)],
   step 0 scans it and EXPLAIN names it as the root.  Every 24th order is
   compiled, and its answers and count equal the first order's, which
   equal the naive engine's. *)
let test_root_independent_of_atom_order () =
  let anchor = "e(5, X1)" in
  let atoms =
    anchor :: List.init 5 (fun i -> Printf.sprintf "e(X%d, X%d)" (i + 1) (i + 2))
  in
  let rec orders = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun a -> List.map (List.cons a) (orders (List.filter (( <> ) a) l)))
          l
  in
  let orders = orders atoms in
  Alcotest.(check int) "720 atom orders" 720 (List.length orders);
  let db =
    Generators.edge_database (Random.State.make [| 1 |]) ~nodes:40 ~edges:160
  in
  let expected = ref None in
  List.iteri
    (fun k body ->
      let text = Printf.sprintf "ans(X1, X6) :- %s." (String.concat ", " body) in
      let p = plan text in
      let root =
        fst (List.find (fun (_, a) -> a = anchor) (List.mapi (fun i a -> (i, a)) body))
      in
      (match p.Planner.tree with
      | Some t ->
          Alcotest.(check int) (text ^ ": tree root") root t.Planner.Join_tree.root
      | None -> Alcotest.fail (text ^ ": no join tree"));
      (match p.Planner.steps with
      | Planner.Scan { atom } :: _ ->
          Alcotest.(check int) (text ^ ": step 0") root atom
      | _ -> Alcotest.fail (text ^ ": plan must open with a scan"));
      Alcotest.(check bool) (text ^ ": explain root") true
        (List.mem
           (Printf.sprintf "join_tree: 6 nodes, root atom %d" root)
           (Planner.explain p));
      if k mod 24 = 0 then begin
        let rows = Test_support.sorted_rows in
        let got =
          (rows (Compile.run (Compile.compile p db)), Compile.count db p.Planner.query)
        in
        match !expected with
        | None ->
            let q = p.Planner.query in
            Alcotest.(check (pair (list string) int)) (text ^ ": = naive")
              (rows (Cq_naive.evaluate db q), Cq_naive.count db q) got;
            Alcotest.(check bool) "the chain has answers" true (fst got <> []);
            expected := Some got
        | Some e -> Alcotest.(check (pair (list string) int)) text e got
      end)
    orders

(* ------------------------------------------------------------------ *)
(* Compiled pipeline: hand-picked edge cases *)

let rows rel = Test_support.sorted_rows rel

let same text db =
  let q = Parser.parse_cq text in
  Alcotest.(check (list string)) text
    (rows (Cq_naive.evaluate db q))
    (rows (Compile.evaluate db q))

let test_compiled_edge_cases () =
  same "ans(X, Y) :- e(X, Y)." triangle_db;
  same "ans(X) :- e(X, X)." triangle_db;
  same "ans(X) :- e(1, X)." triangle_db;
  same "ans(Y, X) :- e(X, Y), X != Y." triangle_db;
  (* first-witness cut: a constraint after the cut, a barrier after
     the cut, a Boolean head *)
  same "ans(X) :- e(X, Y), e(X, Z), Y != Z." triangle_db;
  same "ans(W) :- e(X, Y), e(Y, Z), e(Z, W)." triangle_db;
  same "ans(X, Z) :- e(X, Y), e(Y, Z), X < Z." triangle_db;
  same "ans(X) :- e(X, Y), e(Y, Z), e(Z, X)." triangle_db;
  (* constants in the head *)
  same "ans(X, 7) :- e(X, 2)." triangle_db;
  (* boolean (empty head) and empty body, built directly *)
  let boolean = Cq.make ~name:"q" ~head:[] [ Atom.make "e" [ Term.var "X"; Term.var "Y" ] ] in
  Alcotest.(check (list string)) "boolean head"
    (rows (Cq_naive.evaluate triangle_db boolean))
    (rows (Compile.evaluate triangle_db boolean));
  let empty_body = Cq.make ~name:"q" ~head:[ Term.Const (Value.Int 3) ] [] in
  Alcotest.(check (list string)) "empty body, const head"
    (rows (Cq_naive.evaluate triangle_db empty_body))
    (rows (Compile.evaluate triangle_db empty_body));
  (* a relation missing from the db raises like the interpreters *)
  (try
     ignore (Compile.evaluate triangle_db (Parser.parse_cq "ans(X) :- r9(X)."));
     Alcotest.fail "missing relation should raise"
   with Invalid_argument msg ->
     Alcotest.(check bool) "error names the relation" true
       (Test_support.contains msg "r9"))

(* Materialization shapes: arity mismatch, 0-ary atoms, ground atoms,
   constants absent from the data, and a constant beside a repeated
   variable — each must agree with the interpreters on answers and on
   counts. *)
let test_materialization_shapes () =
  let db =
    Database.of_relations
      [
        Relation.create ~name:"e" ~schema:[ "a"; "b" ]
          (List.map
             (fun (a, b) -> [| Value.Int a; Value.Int b |])
             [ (1, 2); (2, 3); (3, 1); (2, 2) ]);
        Relation.create ~name:"t" ~schema:[ "a"; "b"; "c" ]
          (List.map
             (fun (a, b, c) -> [| Value.Int a; Value.Int b; Value.Int c |])
             [ (2, 5, 5); (2, 5, 6); (3, 4, 4); (2, 1, 1) ]);
        Relation.create ~name:"yes" ~schema:[] [ [||] ];
        Relation.create ~name:"no" ~schema:[] [];
      ]
  in
  let agree q =
    let text = Cq.to_string q in
    Alcotest.(check (list string)) text
      (rows (Cq_naive.evaluate db q))
      (rows (Compile.evaluate db q));
    Alcotest.(check int) ("count " ^ text) (Cq_naive.count db q)
      (Compile.count db q)
  in
  let same text = agree (Parser.parse_cq text) in
  let v = Term.var and c i = Term.Const (Value.Int i) in
  let cq body = Cq.make ~name:"ans" ~head:[ v "X" ] body in
  (* arity mismatch: no stored tuple matches *)
  same "ans(X) :- e(X).";
  same "ans(X) :- e(1, X, Y).";
  (* 0-ary atoms, holding and empty *)
  agree (cq [ Atom.make "e" [ v "X"; v "Y" ]; Atom.make "yes" [] ]);
  agree (cq [ Atom.make "e" [ v "X"; v "Y" ]; Atom.make "no" [] ]);
  (* ground atoms: present, absent, and naming a value never stored *)
  agree (cq [ Atom.make "e" [ v "X"; v "Y" ]; Atom.make "e" [ c 1; c 2 ] ]);
  agree (cq [ Atom.make "e" [ v "X"; v "Y" ]; Atom.make "e" [ c 2; c 1 ] ]);
  agree (cq [ Atom.make "e" [ v "X"; v "Y" ]; Atom.make "e" [ c 1; c 987654 ] ]);
  same "ans(X) :- e(X, Y), e(nowhere, Y).";
  (* a constant beside a repeated variable *)
  same "ans(X) :- t(2, X, X).";
  same "ans(X, Y) :- t(2, X, X), e(X, Y).";
  same "ans(Y) :- t(X, Y, Y), e(X, 2)."

(* Plain atoms compile to views sharing the base relation's memoized key
   indexes, and reducers that drop nothing keep them: compiling a second
   plan on the same snapshot builds no index again. *)
let test_base_indexes_built_once () =
  let db = edge [ (1, 2); (2, 3); (3, 1) ] in
  let builds = Metrics.counter "relation.key_index.builds" in
  let delta f =
    let before = Metrics.counter_value builds in
    f ();
    Metrics.counter_value builds - before
  in
  let compile text = ignore (Compile.compile (plan text) db) in
  let first = delta (fun () -> compile "ans(X, Z) :- e(X, Y), e(Y, Z).") in
  Alcotest.(check bool) "first plan builds base indexes" true (first > 0);
  Alcotest.(check int) "same plan again builds none" 0
    (delta (fun () -> compile "ans(X, Z) :- e(X, Y), e(Y, Z)."));
  Alcotest.(check int) "another plan over the same keys builds none" 0
    (delta (fun () ->
         compile "ans(A) :- e(A, B), e(B, C).";
         compile "ans(X) :- e(1, X)."))

(* ------------------------------------------------------------------ *)
(* Budget cancellation in compiled pipelines *)

let test_budget_cancellation () =
  let q = Parser.parse_cq "ans(X, Z) :- e(X, Y), e(Y, Z)." in
  let p = Planner.plan q in
  (* a cancelled budget stops compilation at its entry checkpoint *)
  let b = Budget.start ~deadline_ns:max_int in
  Budget.cancel b;
  (try
     ignore (Compile.compile ~budget:b p triangle_db);
     Alcotest.fail "compile under a cancelled budget should raise"
   with Budget.Exhausted _ -> ());
  (* compiling without a budget, then running with a cancelled one:
     the pipeline's strided checkpoint must fire *)
  let exec = Compile.compile p triangle_db in
  (try
     ignore (Compile.run ~budget:b exec);
     Alcotest.fail "run under a cancelled budget should raise"
   with Budget.Exhausted _ -> ());
  (* an expired deadline on a large scan trips the strided poll even
     without an explicit cancel *)
  let rng = Test_support.rng ~seed:23 () in
  let big = Generators.edge_database rng ~nodes:200 ~edges:8000 in
  let tiny = Budget.start ~deadline_ns:1 in
  while Budget.remaining_ns tiny > 0 do
    ignore (Sys.opaque_identity (Budget.elapsed_ns tiny))
  done;
  (try
     ignore
       (Compile.evaluate ~budget:tiny big
          (Parser.parse_cq "ans(X, W) :- e(X, Y), e(Y, Z), e(Z, W)."));
     Alcotest.fail "expired deadline should raise in the pipeline"
   with Budget.Exhausted _ -> ());
  (* and an untouched generous budget changes nothing *)
  let roomy = Budget.start ~deadline_ns:(30 * 1_000_000_000) in
  let q3 = Parser.parse_cq "ans(X, Z) :- e(X, Y), e(Y, Z)." in
  Alcotest.(check (list string)) "budgeted = unbudgeted"
    (rows (Compile.evaluate triangle_db q3))
    (rows (Compile.evaluate ~budget:roomy triangle_db q3))

(* ------------------------------------------------------------------ *)
(* Properties: compiled agrees exactly with the interpreters *)

(* Queries whose head is projected (a random subset of the first
   atom's variables, possibly empty) over a random join of binary atoms
   with constraints on random variables: the cut lands early, and most
   constraints and dead-variable barriers land after it. *)
let projected_cq rng =
  let var i = Term.var (Printf.sprintf "X%d" i) in
  let nvars = ref 2 in
  let pick () = Random.State.int rng !nvars in
  let fresh () =
    incr nvars;
    !nvars - 1
  in
  let first = Atom.make "e" [ var 0; var 1 ] in
  let more =
    List.init (1 + Random.State.int rng 3) (fun _ ->
        let a = pick () in
        let b = if Random.State.int rng 3 = 0 then pick () else fresh () in
        if Random.State.bool rng then Atom.make "e" [ var a; var b ]
        else Atom.make "e" [ var b; var a ])
  in
  let head = List.filter (fun _ -> Random.State.bool rng) [ var 0; var 1 ] in
  let constraints =
    List.init (Random.State.int rng 3) (fun _ ->
        let a = var (pick ()) and b = var (pick ()) in
        if Random.State.bool rng then Constr.neq a b else Constr.lt a b)
    |> List.filter (fun c -> c.Constr.lhs <> c.Constr.rhs)
  in
  Cq.make ~name:"ans" ~constraints ~head (first :: more)

let qcheck_tests =
  [
    Qgen.seeded_property
      ~name:"compiled with first-witness cut = naive on projected heads"
      ~count:300 (fun rng ->
        let db =
          Generators.edge_database rng ~nodes:5
            ~edges:(4 + Random.State.int rng 10)
        in
        let q = projected_cq rng in
        rows (Compile.evaluate db q) = rows (Cq_naive.evaluate db q));
    Qgen.seeded_property ~name:"compiled = naive on random acyclic CQs"
      ~count:150 (fun rng ->
        let db = Qgen.tree_cq_database rng ~max_arity:3 ~domain_size:4 ~tuples:10 in
        let q =
          Generators.random_tree_cq rng ~cmp_tries:2 ~max_atoms:4 ~max_arity:3
            ~neq_tries:3 ~domain_size:4
        in
        rows (Compile.evaluate db q) = rows (Cq_naive.evaluate db q));
    Qgen.seeded_property ~name:"compiled = hash join on acyclic CQs" ~count:100
      (fun rng ->
        let db = Qgen.tree_cq_database rng ~max_arity:3 ~domain_size:4 ~tuples:10 in
        let q =
          Qgen.random_tree_cq rng ~max_atoms:4 ~max_arity:3 ~neq_tries:2
            ~domain_size:4
        in
        rows (Compile.evaluate db q)
        = rows (Join_eval.evaluate ~algorithm:Join_eval.Hash_join db q));
    Qgen.seeded_property
      ~name:"compiled = yannakakis on acyclic constraint-free CQs" ~count:100
      (fun rng ->
        let db = Qgen.tree_cq_database rng ~max_arity:3 ~domain_size:4 ~tuples:10 in
        let q =
          Qgen.random_tree_cq rng ~max_atoms:4 ~max_arity:3 ~neq_tries:0
            ~domain_size:4
        in
        rows (Compile.evaluate db q) = rows (Yannakakis.evaluate db q));
    Qgen.seeded_property ~name:"compiled = naive on random cyclic CQs"
      ~count:80 (fun rng ->
        let db =
          Generators.edge_database rng ~nodes:8
            ~edges:(12 + Random.State.int rng 20)
        in
        let q =
          Generators.random_cyclic_cq rng
            ~cycle:(3 + Random.State.int rng 2)
            ~neq:(Random.State.bool rng)
        in
        rows (Compile.evaluate db q) = rows (Cq_naive.evaluate db q));
  ]

(* ------------------------------------------------------------------ *)
(* Allocation contract: a warm pipeline allocates only what its sink
   keeps — a new output row or a new barrier/memo key — never per probed
   row.  A per-row closure, key copy or filter array costs at least two
   words on each of the thousands of rows probed below, far past these
   bounds. *)

let minor_words f =
  let before = Gc.minor_words () in
  let r = f () in
  (Gc.minor_words () -. before, r)

(* Layers L0..L3 of [k] nodes: L0->L1 and L2->L3 complete, L1->L2 a
   matching, one back edge L3->L0.  The 4-cycle probes every 3-path out
   of L0 (k^3 of them) but closes only through the back edge: 4k answer
   rows (one cycle per matched pair, in four rotations). *)
let layered_db k =
  let node l i = (l * k) + i in
  let edges = ref [ (node 3 0, node 0 0) ] in
  for i = 0 to k - 1 do
    edges := (node 1 i, node 2 i) :: !edges;
    for j = 0 to k - 1 do
      edges := (node 0 i, node 1 j) :: (node 2 i, node 3 j) :: !edges
    done
  done;
  edge !edges

let test_run_allocation () =
  let k = 20 in
  let db = layered_db k in
  let exec =
    Compile.compile (plan "ans(X, Y, Z, W) :- e(X, Y), e(Y, Z), e(Z, W), e(W, X).") db
  in
  ignore (Compile.run exec);
  let words, out = minor_words (fun () -> Compile.run exec) in
  let out = Relation.cardinality out in
  Alcotest.(check int) "4k answers" (4 * k) out;
  let bound = 2048. +. (8. *. float_of_int (out * (4 + 1))) in
  if words > bound then
    Alcotest.failf "run allocated %.0f words for %d rows over %d probed paths \
                    (bound %.0f)" words out (k * k * k) bound

let test_count_allocation () =
  let rng = Random.State.make [| 5 |] in
  let nodes = 60 in
  let db = Generators.edge_database rng ~nodes ~edges:900 in
  (* The projected 3-chain memoizes at two barriers: at most one key per
     node each. *)
  let chain = plan "ans(X) :- e(X, Y), e(Y, Z), e(Z, W)." in
  Alcotest.(check int) "3-chain has two barriers" 2
    (List.length (List.filter_map Fun.id (Array.to_list chain.Planner.barriers)));
  let exec = Compile.compile_count chain db in
  let expected = Compile.run_count exec in
  let words, n = minor_words (fun () -> Compile.run_count exec) in
  Alcotest.(check int) "same count" expected n;
  Alcotest.(check int) "count = naive" (Cq_naive.count db chain.Planner.query) n;
  let bound = 2048. +. (16. *. float_of_int (2 * nodes)) in
  if words > bound then
    Alcotest.failf "3-chain count allocated %.0f words (bound %.0f)" words bound;
  (* The all-!= star has no barrier: counting allocates a constant. *)
  let star = plan "ans(X) :- e(X, Y), e(X, Z), e(X, W), Y != Z, Y != W, Z != W." in
  Alcotest.(check bool) "star has no barrier" true
    (Array.for_all Option.is_none star.Planner.barriers);
  let exec = Compile.compile_count star db in
  ignore (Compile.run_count exec);
  let words, n = minor_words (fun () -> Compile.run_count exec) in
  Alcotest.(check bool) "star counts thousands of valuations" true (n > 1000);
  if words > 2048. then
    Alcotest.failf "star count allocated %.0f words for %d valuations" words n

(* Output-sensitive compile: once the base's column indexes exist, an
   anchored query's semijoins probe them with the few rows its selection
   keeps, so compiling costs the rows reached, not n.  A scan of the
   200k-row [e] keeping any per-row array allocates 1.6 MB. *)
let test_anchored_compile_allocation () =
  (* four distinct out-edges per node *)
  let db = edge (List.init 200_000 (fun i -> (i / 4, ((i * 7919) + 1) mod 50_000))) in
  let e = Database.find db "e" in
  ignore (Relation.hash_index e [| 0 |]);
  ignore (Relation.hash_index e [| 1 |]);
  let p = plan "ans(Z) :- e(1, Y), e(Y, Z)." in
  let before = Gc.allocated_bytes () in
  let exec = Compile.compile p db in
  let bytes = Gc.allocated_bytes () -. before in
  Alcotest.(check int) "answers = naive"
    (Relation.cardinality (Cq_naive.evaluate db p.Planner.query))
    (Relation.cardinality (Compile.run exec));
  if bytes > 65536. then
    Alcotest.failf "anchored compile over %d edges allocated %.0f bytes \
                    (bound 65536)" (Relation.cardinality e) bytes

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "planner"
    [
      ( "planner",
        [
          Alcotest.test_case "classification" `Quick test_classification;
          Alcotest.test_case "plan shape and explain" `Quick test_plan_shape;
          Alcotest.test_case "explain first-witness cut" `Quick
            test_explain_cut;
          Alcotest.test_case "filter-first join-tree root" `Quick
            test_filter_first_root;
          Alcotest.test_case "one root for every atom order" `Quick
            test_root_independent_of_atom_order;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "edge cases = naive" `Quick
            test_compiled_edge_cases;
          Alcotest.test_case "materialization shapes = naive" `Quick
            test_materialization_shapes;
          Alcotest.test_case "base indexes built once per snapshot" `Quick
            test_base_indexes_built_once;
          Alcotest.test_case "budget cancellation" `Quick
            test_budget_cancellation;
          Alcotest.test_case "run allocates per kept row only" `Quick
            test_run_allocation;
          Alcotest.test_case "count allocates per memo key only" `Quick
            test_count_allocation;
          Alcotest.test_case "anchored compile allocates per reached row"
            `Quick test_anchored_compile_allocation;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
