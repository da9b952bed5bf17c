(* One problem, four guises — the clique problem as Theorem 1 sees it.

   The same parametric instance (G, k) appears as:
     1. a conjunctive query over the edge relation  (Theorem 1, lower bound);
     2. a weighted all-negative 2-CNF               (Theorem 1, upper bound);
     3. a clique instance again, via footnote 2      (round trip!);
     4. an acyclic query with < comparisons          (Theorem 3).

   Run with: dune exec examples/cliques.exe *)

module Graph = Paradb_graph.Graph
module Cnf = Paradb_wsat.Cnf
open Paradb_query
open Paradb_reductions

let () =
  let rng = Random.State.make [| 99 |] in
  let n = 9 in
  let g, planted = Graph.planted_clique rng n 0.25 4 in
  let k = 4 in
  Format.printf "graph: %d vertices, %d edges; planted 4-clique at {%s}@.@."
    (Graph.n_vertices g) (Graph.n_edges g)
    (String.concat ", " (List.map string_of_int planted));

  (* 0. ground truth by backtracking *)
  let truth = Graph.has_clique g k in
  Format.printf "0. backtracking search     : %b@." truth;

  (* 1. as a conjunctive query: P :- /\_{i<j} g(x_i, x_j) *)
  let q, db = Clique_to_cq.reduce g ~k in
  Format.printf "1. conjunctive query       : %b   (q = %d symbols, v = %d vars)@."
    (Paradb_eval.Cq_naive.is_satisfiable db q)
    (Cq.size q) (Cq.num_vars q);

  (* 2. decision problem -> weighted 2-CNF with k = #atoms *)
  let lab = Cq_to_wsat.reduce db q in
  let cnf = lab.Cq_to_wsat.cnf in
  Format.printf
    "2. weighted 2-CNF          : %b   (%d vars, %d clauses, target weight %d)@."
    (Cnf.weighted_sat_neg2cnf cnf lab.Cq_to_wsat.k <> None)
    cnf.Cnf.n_vars (Cnf.n_clauses cnf) lab.Cq_to_wsat.k;

  (* 3. footnote 2: union of CQs -> one clique instance *)
  let g2, k2 = Cqs_to_clique.reduce db [ q ] in
  Format.printf "3. clique again (footnote 2): %b  (%d vertices, target %d)@."
    (Graph.has_clique g2 k2) (Graph.n_vertices g2) k2;

  (* 4. Theorem 3: acyclic query with < comparisons *)
  let q3, db3 = Clique_to_comparisons.reduce g ~k in
  Format.printf "4. acyclic query with <    : %b   (%d atoms, database %d tuples)@."
    (not
       (Paradb_relational.Relation.is_empty
          (Paradb_eval.Compile.evaluate db3 q3)))
    (List.length q3.Cq.body)
    (Paradb_relational.Database.size db3);

  (* and a negative instance for contrast *)
  Format.printf "@.negative control (k = 6):@.";
  let q6, db6 = Clique_to_cq.reduce g ~k:6 in
  Format.printf "  6-clique by search: %b; by query: %b@."
    (Graph.has_clique g 6)
    (Paradb_eval.Cq_naive.is_satisfiable db6 q6)
