(* Randomized equivalence suite for the dictionary-encoded relation
   backend.  Each operator is checked against a straight-line reference
   implementation over [Tuple.Set] (the seed's AVL-backed representation)
   on random relations, and the Theorem-2 trial driver over the
   dictionary-encoded backend is checked against brute force. *)

module Value = Paradb_relational.Value
module Tuple = Paradb_relational.Tuple
module Relation = Paradb_relational.Relation
module Database = Paradb_relational.Database
module Engine = Paradb_core.Engine
module Cq_naive = Paradb_eval.Cq_naive
module Hashing = Paradb_core.Hashing
module Generators = Paradb_workload.Generators
module Metrics = Paradb_telemetry.Metrics

(* ------------------------------------------------------------------ *)
(* Reference implementations: nested loops and ordered sets, no
   dictionaries, no indexes. *)

let ref_project attrs r =
  let pos = Relation.positions r attrs in
  let rows =
    Relation.fold (fun t acc -> Tuple.Set.add (Tuple.sub t pos) acc) r
      Tuple.Set.empty
  in
  Relation.of_set ~schema:attrs rows

let ref_natural_join r s =
  let common = Relation.common_attrs r s in
  let pr = Relation.positions r common and ps = Relation.positions s common in
  let extra =
    List.filter (fun a -> not (Relation.has_attr r a)) (Relation.schema_list s)
  in
  let pe = Relation.positions s extra in
  let rows =
    Relation.fold
      (fun t1 acc ->
        Relation.fold
          (fun t2 acc ->
            if Tuple.equal (Tuple.sub t1 pr) (Tuple.sub t2 ps) then
              Tuple.Set.add (Tuple.append t1 (Tuple.sub t2 pe)) acc
            else acc)
          s acc)
      r Tuple.Set.empty
  in
  Relation.of_set ~schema:(Relation.schema_list r @ extra) rows

let ref_semijoin r s =
  let common = Relation.common_attrs r s in
  let pr = Relation.positions r common and ps = Relation.positions s common in
  let rows =
    Relation.fold
      (fun t1 acc ->
        let matched =
          Relation.fold
            (fun t2 found ->
              found || Tuple.equal (Tuple.sub t1 pr) (Tuple.sub t2 ps))
            s false
        in
        if matched then Tuple.Set.add t1 acc else acc)
      r Tuple.Set.empty
  in
  Relation.of_set ~schema:(Relation.schema_list r) rows

let ref_union r s =
  let pos = Relation.positions s (Relation.schema_list r) in
  let rows =
    Relation.fold
      (fun t acc -> Tuple.Set.add (Tuple.sub t pos) acc)
      s (Relation.tuple_set r)
  in
  Relation.of_set ~schema:(Relation.schema_list r) rows

(* ------------------------------------------------------------------ *)
(* Random relations: varying arity, domain size and cardinality
   (including frequent empty relations via [tuples = 0]). *)

let random_rel rng ~schema ~domain_size =
  let arity = List.length schema in
  let tuples = Random.State.int rng 16 in
  if tuples = 0 then Relation.create ~schema []
  else
    Qgen.random_relation rng ~name:"r" ~arity ~domain_size ~tuples
    |> Relation.rename_positional schema

let schemas rng =
  (* Overlapping schemas with 0, 1 or 2 shared attributes. *)
  match Random.State.int rng 3 with
  | 0 -> ([ "a"; "b" ], [ "c"; "d" ])
  | 1 -> ([ "a"; "b" ], [ "b"; "c" ])
  | _ -> ([ "a"; "b"; "c" ], [ "b"; "c"; "d" ])

let equivalence_tests =
  let pair rng =
    let s1, s2 = schemas rng in
    let domain_size = 1 + Random.State.int rng 6 in
    (random_rel rng ~schema:s1 ~domain_size, random_rel rng ~schema:s2 ~domain_size)
  in
  [
    Qgen.seeded_property ~name:"natural_join matches reference" ~count:300
      (fun rng ->
        let r, s = pair rng in
        Relation.set_equal (Relation.natural_join r s) (ref_natural_join r s));
    Qgen.seeded_property ~name:"semijoin matches reference" ~count:300
      (fun rng ->
        let r, s = pair rng in
        Relation.set_equal (Relation.semijoin r s) (ref_semijoin r s));
    Qgen.seeded_property ~name:"sort_merge_join matches reference" ~count:150
      (fun rng ->
        let r, s = pair rng in
        Relation.set_equal (Relation.sort_merge_join r s) (ref_natural_join r s));
    Qgen.seeded_property ~name:"project matches reference" ~count:150
      (fun rng ->
        let r = random_rel rng ~schema:[ "a"; "b"; "c" ] ~domain_size:4 in
        let attrs =
          match Random.State.int rng 3 with
          | 0 -> [ "b" ]
          | 1 -> [ "c"; "a" ]
          | _ -> []
        in
        Relation.set_equal (Relation.project attrs r) (ref_project attrs r));
    Qgen.seeded_property ~name:"union matches reference" ~count:150 (fun rng ->
        let r = random_rel rng ~schema:[ "a"; "b" ] ~domain_size:4 in
        let s = random_rel rng ~schema:[ "b"; "a" ] ~domain_size:4 in
        Relation.set_equal (Relation.union r s) (ref_union r s));
    Qgen.seeded_property ~name:"decoded tuples round-trip" ~count:150
      (fun rng ->
        let r = random_rel rng ~schema:[ "a"; "b" ] ~domain_size:5 in
        let back =
          Relation.create ~schema:(Relation.schema_list r) (Relation.tuples r)
        in
        Relation.set_equal r back
        && Relation.cardinality r = List.length (Relation.tuples r));
  ]

(* ------------------------------------------------------------------ *)
(* Semijoin order: both sides of [Relation.semijoin] — probing [r]'s
   index with the keys of a small [s], or scanning [r] against [s]'s
   index — keep exactly the rows of [r] that match, in [r]'s order. *)

let semijoin_probe = Metrics.counter "relation.semijoin.probe"
let semijoin_scan = Metrics.counter "relation.semijoin.scan"

(* The rows of [r] matching some row of [s], in [r]'s order: a linear
   search over [s]'s decoded keys, no index. *)
let ref_semijoin_rows r s =
  let common = Relation.common_attrs r s in
  let pr = Relation.positions r common and ps = Relation.positions s common in
  let keys = List.map (fun t -> Tuple.sub t ps) (Relation.tuples s) in
  let decode row = Array.map Relation.decode_value row in
  List.filter
    (fun row ->
      let k = Tuple.sub (decode row) pr in
      List.exists (Tuple.equal k) keys)
    (Array.to_list (Array.sub (Relation.rows r) 0 (Relation.cardinality r)))

let semijoin_rows r s =
  let got = Relation.semijoin r s in
  Array.to_list (Array.sub (Relation.rows got) 0 (Relation.cardinality got))

(* [r] up to 64 rows over a small domain (so keys repeat on both sides);
   [s] half the time at most |r| / 8 rows, which takes the probe side. *)
let sized_pair rng =
  let s1, s2 = schemas rng in
  let domain_size = 2 + Random.State.int rng 8 in
  let rel schema tuples =
    Qgen.random_relation rng ~name:"r" ~arity:(List.length schema) ~domain_size
      ~tuples
    |> Relation.rename_positional schema
  in
  let r = rel s1 (Random.State.int rng 65) in
  let small = Random.State.bool rng in
  let s_tuples =
    if small then Random.State.int rng (1 + (Relation.cardinality r / 8))
    else Random.State.int rng 17
  in
  (r, rel s2 s_tuples)

let test_semijoin_order () =
  let cases = 400 in
  let probe0 = Metrics.counter_value semijoin_probe
  and scan0 = Metrics.counter_value semijoin_scan in
  for seed = 0 to cases - 1 do
    let r, s = sized_pair (Random.State.make [| seed |]) in
    if Relation.common_attrs r s <> [] && semijoin_rows r s <> ref_semijoin_rows r s
    then
      Alcotest.failf "seed %d: semijoin rows differ from r's matching rows in \
                      r's order" seed
  done;
  let probes = Metrics.counter_value semijoin_probe - probe0
  and scans = Metrics.counter_value semijoin_scan - scan0 in
  Alcotest.(check bool)
    (Printf.sprintf "probe side ran often (%d of %d)" probes cases)
    true (probes >= cases / 8);
  Alcotest.(check bool)
    (Printf.sprintf "scan side ran often (%d of %d)" scans cases)
    true (scans >= cases / 8)

(* ------------------------------------------------------------------ *)
(* The random-family trial driver must agree with brute force. *)

let family = Hashing.Random_trials { trials = 40; seed = 11 }

let determinism_instances () =
  (* One unsatisfiable and one satisfiable instance: the early-exit path
     of the satisfiability driver and the union path of evaluation both
     get exercised. *)
  let q =
    Generators.chain_query ~length:3
      ~neq:[ (0, 1); (1, 2); (2, 3); (0, 2); (1, 3); (0, 3) ]
  in
  let unsat_db = Generators.two_cycle_database ~pairs:12 in
  let path_db =
    Database.of_relations
      [
        Relation.create ~name:"e" ~schema:[ "a"; "b" ]
          (List.init 8 (fun i -> [| Value.Int i; Value.Int (i + 1) |]));
      ]
  in
  (q, unsat_db, path_db)

let test_parallel_satisfiable_deterministic () =
  let q, unsat_db, path_db = determinism_instances () in
  List.iter
    (fun db ->
      Alcotest.(check bool) "same verdict as brute force"
        (Cq_naive.is_satisfiable db q)
        (Engine.is_satisfiable ~family db q))
    [ unsat_db; path_db ]

let test_parallel_evaluate_deterministic () =
  let q, unsat_db, path_db = determinism_instances () in
  List.iter
    (fun db ->
      Alcotest.(check bool) "same answer relation as brute force" true
        (Relation.set_equal (Cq_naive.evaluate db q)
           (Engine.evaluate ~family db q)))
    [ unsat_db; path_db ];
  (* The satisfiable instance must actually produce rows. *)
  let rows = Engine.evaluate ~family path_db q in
  Alcotest.(check bool) "satisfiable instance nonempty" false
    (Relation.is_empty rows)

let () =
  Alcotest.run "relation-equiv"
    [
      ("equivalence", List.map QCheck_alcotest.to_alcotest equivalence_tests);
      ( "semijoin order",
        [
          Alcotest.test_case "rows in r's order, both sides" `Quick
            test_semijoin_order;
        ] );
      ( "parallel determinism",
        [
          Alcotest.test_case "satisfiable verdict" `Quick
            test_parallel_satisfiable_deterministic;
          Alcotest.test_case "evaluate answers" `Quick
            test_parallel_evaluate_deterministic;
        ] );
    ]
