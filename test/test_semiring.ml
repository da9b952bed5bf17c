(* Semiring laws, the annotated-relation algebra, and the counting
   contract (DESIGN.md §17): ⊕/⊗ satisfy the commutative-semiring
   axioms on every instance the engine ships, projection ⊕-merges and
   join ⊗-multiplies annotations, and the Nat-semiring total agrees
   with both the brute-force valuation count and — for duplicate-free
   full-head queries — the plain answer-set cardinality. *)

module Semiring = Paradb_relational.Semiring
module Annotated = Paradb_relational.Annotated
module Relation = Paradb_relational.Relation
module Cq = Paradb_query.Cq
module Term = Paradb_query.Term
module Cq_naive = Paradb_eval.Cq_naive
module Compile = Paradb_eval.Compile
module Yannakakis = Paradb_yannakakis.Yannakakis
module Color_coding = Paradb_core.Color_coding
module Graph = Paradb_graph.Graph

(* ------------------------------------------------------------------ *)
(* Semiring laws *)

(* Element generators stay well under overflow territory: Nat's + and ×
   are machine ints, and the Tropical ⊗ only saturates at [max_int]
   itself (the +∞ element, produced here with probability 1/8). *)
let bool_elt rng = Random.State.bool rng
let nat_elt rng = Random.State.int rng 1000

let tropical_elt rng =
  if Random.State.int rng 8 = 0 then max_int else Random.State.int rng 1000

let laws_hold (type a) (sr : a Semiring.t) a b c =
  let ( === ) = sr.Semiring.equal in
  sr.plus a (sr.plus b c) === sr.plus (sr.plus a b) c
  && sr.plus a b === sr.plus b a
  && sr.plus a sr.zero === a
  && sr.times a (sr.times b c) === sr.times (sr.times a b) c
  && sr.times a b === sr.times b a
  && sr.times a sr.one === a
  && sr.times sr.one a === a
  && sr.times a sr.zero === sr.zero
  && sr.times a (sr.plus b c) === sr.plus (sr.times a b) (sr.times a c)

let law_property name sr elt =
  Qgen.seeded_property ~name ~count:300 (fun rng ->
      laws_hold sr (elt rng) (elt rng) (elt rng))

(* ------------------------------------------------------------------ *)
(* Annotated-relation algebra, hand instances *)

let nat = Semiring.nat

let test_of_rows_merges_duplicates () =
  let t =
    Annotated.of_rows nat ~schema:[ "x" ]
      [ ([| 1 |], 2); ([| 1 |], 3); ([| 2 |], 1) ]
  in
  Alcotest.(check int) "two distinct rows" 2 (Annotated.cardinality t);
  Alcotest.(check (option int)) "duplicates ⊕-merged" (Some 5)
    (Annotated.find t [| 1 |]);
  Alcotest.(check int) "total" 6 (Annotated.total nat t)

let test_project_plus_merges () =
  let t =
    Annotated.of_rows nat ~schema:[ "x"; "y" ]
      [ ([| 1; 2 |], 2); ([| 1; 3 |], 3); ([| 4; 5 |], 7) ]
  in
  let p = Annotated.project nat [ "x" ] t in
  Alcotest.(check int) "merged cardinality" 2 (Annotated.cardinality p);
  Alcotest.(check (option int)) "colliding rows sum" (Some 5)
    (Annotated.find p [| 1 |]);
  Alcotest.(check (option int)) "lone row unchanged" (Some 7)
    (Annotated.find p [| 4 |]);
  Alcotest.(check int) "projection preserves the total" (Annotated.total nat t)
    (Annotated.total nat p)

let test_join_times_multiplies () =
  let a = Annotated.of_rows nat ~schema:[ "x"; "y" ] [ ([| 1; 2 |], 2) ] in
  let b =
    Annotated.of_rows nat ~schema:[ "y"; "z" ]
      [ ([| 2; 7 |], 3); ([| 2; 8 |], 5); ([| 9; 9 |], 100) ]
  in
  let j = Annotated.natural_join nat a b in
  Alcotest.(check (list string)) "schema" [ "x"; "y"; "z" ] (Annotated.schema j);
  Alcotest.(check (option int)) "2*3" (Some 6) (Annotated.find j [| 1; 2; 7 |]);
  Alcotest.(check (option int)) "2*5" (Some 10) (Annotated.find j [| 1; 2; 8 |]);
  Alcotest.(check int) "only matching rows" 2 (Annotated.cardinality j)

(* ------------------------------------------------------------------ *)
(* The counting contract *)

(* Rebuild a query to retain every variable in the head: then each
   satisfying valuation produces a distinct answer tuple, so (relations
   being duplicate-free sets) count = answer-set cardinality. *)
let full_head q =
  Cq.make ~name:q.Cq.name ~constraints:q.Cq.constraints
    ~head:(List.map Term.var (Cq.vars q))
    q.Cq.body

let random_query rng ~neq_tries =
  let db = Qgen.tree_cq_database rng ~max_arity:3 ~domain_size:4 ~tuples:10 in
  let q =
    Qgen.random_tree_cq rng ~max_atoms:4 ~max_arity:3 ~neq_tries ~domain_size:4
  in
  (db, q)

let count_properties =
  [
    Qgen.seeded_property ~name:"count = |answers| on full-head queries"
      ~count:150 (fun rng ->
        let db, q = random_query rng ~neq_tries:4 in
        let q = full_head q in
        let n = Relation.cardinality (Cq_naive.evaluate db q) in
        Cq_naive.count db q = n && Compile.count db q = n);
    Qgen.seeded_property ~name:"compiled count = naive count" ~count:150
      (fun rng ->
        let db, q = random_query rng ~neq_tries:4 in
        Compile.count db q = Cq_naive.count db q);
    Qgen.seeded_property ~name:"yannakakis count = naive count" ~count:150
      (fun rng ->
        let db, q = random_query rng ~neq_tries:0 in
        Yannakakis.count db q = Cq_naive.count db q);
  ]

(* ------------------------------------------------------------------ *)
(* Color-coding DP *)

(* Brute force: every directed vertex sequence of length [k] whose
   successive vertices are adjacent and whose colors are pairwise
   distinct.  (Distinct colors imply distinct vertices.) *)
let brute_colorful g colors k =
  let paths = ref [] in
  let rec go path used len v =
    let c = 1 lsl colors.(v) in
    if used land c = 0 then begin
      let path = v :: path and used = used lor c and len = len + 1 in
      if len = k then paths := List.rev path :: !paths
      else List.iter (go path used len) (Graph.neighbors g v)
    end
  in
  List.iter (go [] 0 0) (Graph.vertices g);
  !paths

(* [colorful_path] is the Boolean instance of the colorful-path DP: it
   answers exactly when a colorful [k]-path exists, and any witness it
   returns is one. *)
let colorful_properties =
  [
    Qgen.seeded_property ~name:"bool DP = colorful-path reachability" ~count:80
      (fun rng ->
        let n = 4 + Random.State.int rng 4 in
        let g = Graph.gnp rng n 0.4 in
        let k = 2 + Random.State.int rng 3 in
        let colors = Array.init n (fun _ -> Random.State.int rng k) in
        match (Color_coding.colorful_path g colors k, brute_colorful g colors k)
        with
        | None, paths -> paths = []
        | Some p, paths -> List.mem p paths);
  ]

let () =
  Alcotest.run "semiring"
    [
      ( "laws",
        List.map QCheck_alcotest.to_alcotest
          [
            law_property "bool semiring laws" Semiring.bool bool_elt;
            law_property "nat semiring laws" Semiring.nat nat_elt;
            law_property "tropical semiring laws" (Semiring.tropical ())
              tropical_elt;
          ] );
      ( "annotated",
        [
          Alcotest.test_case "of_rows merges duplicates" `Quick
            test_of_rows_merges_duplicates;
          Alcotest.test_case "project ⊕-merges" `Quick
            test_project_plus_merges;
          Alcotest.test_case "join ⊗-multiplies" `Quick
            test_join_times_multiplies;
        ] );
      ("counting", List.map QCheck_alcotest.to_alcotest count_properties);
      ( "color coding",
        List.map QCheck_alcotest.to_alcotest colorful_properties );
    ]
