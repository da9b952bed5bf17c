module Relation = Paradb_relational.Relation
module Tuple = Paradb_relational.Tuple
module Value = Paradb_relational.Value
module Yannakakis = Paradb_yannakakis.Yannakakis
module Join_tree = Paradb_hypergraph.Join_tree
module Cq_naive = Paradb_eval.Cq_naive
open Paradb_query

let db =
  Parser.parse_facts
    "e(1, 2). e(2, 3). e(3, 4). e(1, 3). r3(1, 2, 3). r3(2, 3, 4). u(2). u(3)."

let test_chain () =
  let q = Parser.parse_cq "ans(X, Y) :- e(X, Z), e(Z, Y)." in
  let r = Yannakakis.evaluate db q in
  Alcotest.(check bool) "matches naive" true
    (Relation.set_equal r (Cq_naive.evaluate db q))

let test_star () =
  let q = Parser.parse_cq "ans(X) :- e(X, Y), e(X, Z), u(Y), u(Z)." in
  let r = Yannakakis.evaluate db q in
  Alcotest.(check bool) "matches naive" true
    (Relation.set_equal r (Cq_naive.evaluate db q))

let test_mixed_arity () =
  let q = Parser.parse_cq "ans(A, C) :- r3(A, B, C), e(C, D), u(B)." in
  Alcotest.(check bool) "matches naive" true
    (Relation.set_equal (Yannakakis.evaluate db q) (Cq_naive.evaluate db q))

let test_cyclic_rejected () =
  let tri = Parser.parse_cq "goal :- e(X, Y), e(Y, Z), e(Z, X)." in
  Alcotest.(check bool) "raises" true
    (try ignore (Yannakakis.evaluate db tri); false
     with Yannakakis.Cyclic_query -> true)

let test_constraints_rejected () =
  let q = Parser.parse_cq "goal :- e(X, Y), X != Y." in
  Alcotest.(check bool) "raises" true
    (try ignore (Yannakakis.evaluate db q); false
     with Invalid_argument _ -> true)

let test_empty_result () =
  let q = Parser.parse_cq "ans(X) :- e(X, 9)." in
  Alcotest.(check bool) "empty" true (Relation.is_empty (Yannakakis.evaluate db q));
  Alcotest.(check bool) "unsat" false (Yannakakis.is_satisfiable db q)

let test_boolean () =
  Alcotest.(check bool) "sat" true
    (Yannakakis.is_satisfiable db (Parser.parse_cq "goal :- e(X, Y), u(Y)."));
  let r = Yannakakis.evaluate db (Parser.parse_cq "goal :- e(X, Y), u(Y).") in
  Alcotest.(check int) "0-ary single row" 1 (Relation.cardinality r)

let test_decide () =
  let q = Parser.parse_cq "ans(X, Y) :- e(X, Z), e(Z, Y)." in
  Alcotest.(check bool) "yes" true (Yannakakis.decide db q (Tuple.of_ints [ 1; 3 ]));
  Alcotest.(check bool) "no" false (Yannakakis.decide db q (Tuple.of_ints [ 4; 1 ]))

let test_disconnected_query () =
  let q = Parser.parse_cq "ans(X, Y) :- e(1, X), e(3, Y)." in
  Alcotest.(check bool) "matches naive" true
    (Relation.set_equal (Yannakakis.evaluate db q) (Cq_naive.evaluate db q))

let test_full_reducer_consistency () =
  let q = Parser.parse_cq "ans(X, Y, Z) :- e(X, Y), e(Y, Z), u(Y)." in
  match Join_tree.of_cq q with
  | None -> Alcotest.fail "acyclic expected"
  | Some tree ->
      let rels =
        Array.of_list (List.map (Yannakakis.atom_relation db) q.Cq.body)
      in
      let reduced = Yannakakis.full_reducer tree rels in
      (* global consistency: every remaining tuple joins through *)
      let full =
        Array.fold_left
          (fun acc r ->
            match acc with
            | None -> Some r
            | Some a -> Some (Relation.natural_join a r))
          None reduced
      in
      (match full with
      | None -> Alcotest.fail "no relations"
      | Some full ->
          Array.iter
            (fun r ->
              let back = Relation.project (Relation.schema_list r) full in
              Alcotest.(check bool) "tuple participates" true
                (Relation.set_equal r back))
            reduced)

let test_atom_relations_selections () =
  (* constants and repeated variables are pushed into S_j *)
  let rel text =
    Yannakakis.atom_relation db (List.hd (Parser.parse_cq text).Cq.body)
  in
  Alcotest.(check int) "no row survives" 0
    (Relation.cardinality (rel "ans(X) :- r3(X, X, 3)."));
  let r = rel "ans(X) :- r3(1, X, 3)." in
  Alcotest.(check int) "one row" 1 (Relation.cardinality r);
  Alcotest.(check bool) "row is (2)" true
    (Relation.mem (Tuple.of_ints [ 2 ]) r)

(* The prelude's four outcomes, each through all three entry points and
   checked against the naive reference.  The flag says whether every
   atom relation is nonempty, which tells the reducer's outcome apart
   from the empty-atom short cut. *)
let test_prelude_outcomes () =
  let cases =
    [
      ( "empty body, constant head",
        Cq.make ~name:"ans" ~head:[ Term.Const (Value.Int 7) ] [],
        true );
      ("empty atom relation", Parser.parse_cq "ans(X) :- e(X, 9), u(X).", false);
      ( "root emptied by the reducer",
        Parser.parse_cq "ans(X) :- e(X, Y), e(Y, X).",
        true );
      ( "nonempty answer",
        Parser.parse_cq "ans(X, Y) :- e(X, Z), e(Z, Y), u(Z).",
        true );
    ]
  in
  List.iter
    (fun (what, q, atoms_nonempty) ->
      Alcotest.(check bool) (what ^ ": atom relations") atoms_nonempty
        (List.for_all
           (fun a -> not (Relation.is_empty (Yannakakis.atom_relation db a)))
           q.Cq.body);
      Alcotest.(check bool) (what ^ ": evaluate") true
        (Relation.set_equal (Yannakakis.evaluate db q) (Cq_naive.evaluate db q));
      Alcotest.(check int) (what ^ ": count") (Cq_naive.count db q)
        (Yannakakis.count db q);
      Alcotest.(check bool) (what ^ ": is_satisfiable")
        (Cq_naive.is_satisfiable db q)
        (Yannakakis.is_satisfiable db q))
    cases

let qcheck_tests =
  [
    Qgen.seeded_property ~name:"yannakakis = naive on random acyclic queries"
      ~count:200 (fun rng ->
        let db = Qgen.tree_cq_database rng ~max_arity:3 ~domain_size:4 ~tuples:12 in
        let q =
          Qgen.random_tree_cq rng ~max_atoms:5 ~max_arity:3 ~neq_tries:0
            ~domain_size:4
        in
        Relation.set_equal (Yannakakis.evaluate db q) (Cq_naive.evaluate db q));
    Qgen.seeded_property ~name:"satisfiability agrees with evaluation"
      ~count:100 (fun rng ->
        let db = Qgen.tree_cq_database rng ~max_arity:3 ~domain_size:3 ~tuples:8 in
        let q =
          Qgen.random_tree_cq rng ~max_atoms:4 ~max_arity:3 ~neq_tries:0
            ~domain_size:3
        in
        Yannakakis.is_satisfiable db q
        = not (Relation.is_empty (Yannakakis.evaluate db q)));
  ]

let () =
  Alcotest.run "yannakakis"
    [
      ( "evaluate",
        [
          Alcotest.test_case "chain" `Quick test_chain;
          Alcotest.test_case "star" `Quick test_star;
          Alcotest.test_case "mixed arity" `Quick test_mixed_arity;
          Alcotest.test_case "cyclic rejected" `Quick test_cyclic_rejected;
          Alcotest.test_case "constraints rejected" `Quick test_constraints_rejected;
          Alcotest.test_case "empty result" `Quick test_empty_result;
          Alcotest.test_case "boolean" `Quick test_boolean;
          Alcotest.test_case "decide" `Quick test_decide;
          Alcotest.test_case "disconnected" `Quick test_disconnected_query;
        ] );
      ( "internals",
        [
          Alcotest.test_case "full reducer" `Quick test_full_reducer_consistency;
          Alcotest.test_case "atom relations" `Quick test_atom_relations_selections;
          Alcotest.test_case "prelude outcomes" `Quick test_prelude_outcomes;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
