(* The differential oracle (DESIGN.md §12): deterministic instance
   generation, the cross-engine agreement contract, counterexample
   shrinking, replayable [.case] files, and — the point of the whole
   subsystem — that each seeded mutant is caught within a bounded
   number of cases with a small shrunk counterexample. *)

module Value = Paradb_relational.Value
module Relation = Paradb_relational.Relation
module Database = Paradb_relational.Database
module Gen = Paradb_oracle.Gen
module Engines = Paradb_oracle.Engines
module Shrink = Paradb_oracle.Shrink
module Case_file = Paradb_oracle.Case_file
module Oracle = Paradb_oracle.Oracle
open Paradb_query

(* ------------------------------------------------------------------ *)
(* Generator determinism and coverage *)

let fingerprint inst =
  Printf.sprintf "%s|%s|%s" inst.Gen.label
    (Gen.shape_to_string inst.Gen.shape)
    (Test_support.db_to_string inst.Gen.db)

let test_gen_deterministic () =
  for index = 0 to 15 do
    let mk () = Gen.instance ~seed:42 ~index ~max_vars:8 ~max_tuples:16 in
    Alcotest.(check string)
      (Printf.sprintf "case %d reproducible" index)
      (fingerprint (mk ())) (fingerprint (mk ()))
  done;
  (* independent per-case RNG: case i needs no cases 0..i-1 *)
  let a = Gen.instance ~seed:7 ~index:9 ~max_vars:8 ~max_tuples:16 in
  let b = Gen.instance ~seed:7 ~index:9 ~max_vars:8 ~max_tuples:16 in
  Alcotest.(check string) "random access" (fingerprint a) (fingerprint b);
  let other = Gen.instance ~seed:8 ~index:9 ~max_vars:8 ~max_tuples:16 in
  Alcotest.(check bool) "seed matters" false
    (fingerprint a = fingerprint other)

(* The first 16 cases hold every class: [acyclic-cmp] first appears at
   case 13, [join-tree-neq] at case 14. *)
let test_gen_class_coverage () =
  let labels =
    List.init 16 (fun index ->
        (Gen.instance ~seed:1 ~index ~max_vars:8 ~max_tuples:16).Gen.label)
  in
  List.iter
    (fun cls ->
      Alcotest.(check bool)
        (Printf.sprintf "class %s generated" cls)
        true (List.mem cls labels))
    Gen.classes

let test_gen_roundtrips_through_parser () =
  (* Every generated shape must survive a to_string/parse round trip:
     the server wire format and [.case] files both depend on it (this
     is the property that caught the lowercase-variables-as-constants
     bug). *)
  for index = 0 to 31 do
    let inst = Gen.instance ~seed:3 ~index ~max_vars:8 ~max_tuples:16 in
    match inst.Gen.shape with
    | Gen.Query q ->
        let q' = Parser.parse_cq (Cq.to_string q) in
        Alcotest.(check string)
          (Printf.sprintf "case %d query reparse" index)
          (Cq.to_string q) (Cq.to_string q')
    | Gen.Sentence f ->
        let f' = Parser.parse_fo (Fo.to_string f) in
        Alcotest.(check string)
          (Printf.sprintf "case %d sentence reparse" index)
          (Fo.to_string f) (Fo.to_string f')
  done

(* ------------------------------------------------------------------ *)
(* Agreement contract *)

let test_agrees_contract () =
  let open Engines in
  let rows l = Rows l in
  Alcotest.(check bool) "exact equal" true
    (agrees ~mode:Exact ~reference:(rows [ "(1)"; "(2)" ])
       (rows [ "(1)"; "(2)" ]));
  Alcotest.(check bool) "exact missing row" false
    (agrees ~mode:Exact ~reference:(rows [ "(1)"; "(2)" ]) (rows [ "(1)" ]));
  Alcotest.(check bool) "subset may miss" true
    (agrees ~mode:Subset ~reference:(rows [ "(1)"; "(2)" ]) (rows [ "(1)" ]));
  Alcotest.(check bool) "subset must not invent" false
    (agrees ~mode:Subset ~reference:(rows [ "(1)" ]) (rows [ "(1)"; "(3)" ]));
  Alcotest.(check bool) "sat bit" true
    (agrees ~mode:Exact ~reference:(rows [ "(1)" ]) (Sat true));
  Alcotest.(check bool) "sat bit mismatch" false
    (agrees ~mode:Exact ~reference:(rows []) (Sat true));
  Alcotest.(check bool) "subset sat true needs witness" false
    (agrees ~mode:Subset ~reference:(rows []) (Sat true));
  Alcotest.(check bool) "not applicable skips" true
    (agrees ~mode:Exact ~reference:(rows [ "(1)" ]) Not_applicable);
  Alcotest.(check bool) "engine error is a finding" false
    (agrees ~mode:Exact ~reference:(rows [ "(1)" ]) (Engine_error "boom"));
  Alcotest.(check bool) "count equal" true
    (agrees ~mode:Exact_count ~reference:(Count 3) (Count 3));
  Alcotest.(check bool) "count off by one" false
    (agrees ~mode:Exact_count ~reference:(Count 3) (Count 2));
  Alcotest.(check bool) "count vs rows is a shape clash" false
    (agrees ~mode:Exact_count ~reference:(rows [ "(1)" ]) (Count 1));
  Alcotest.(check bool) "cost equal" true
    (agrees ~mode:Exact_cost ~reference:(Cost (Some 7)) (Cost (Some 7)));
  Alcotest.(check bool) "cost mismatch" false
    (agrees ~mode:Exact_cost ~reference:(Cost (Some 7)) (Cost (Some 8)));
  Alcotest.(check bool) "cost unsat matches" true
    (agrees ~mode:Exact_cost ~reference:(Cost None) (Cost None));
  Alcotest.(check bool) "cost sat vs unsat" false
    (agrees ~mode:Exact_cost ~reference:(Cost (Some 7)) (Cost None))

(* ------------------------------------------------------------------ *)
(* Shrinking *)

let hand_instance () =
  let v = Value.Int 0 and w = Value.Int 1 and u = Value.Int 2 in
  let e =
    Relation.create ~name:"e" ~schema:[ "a"; "b" ]
      [ [| v; w |]; [| w; u |]; [| u; v |]; [| v; v |] ]
  in
  let x = Term.var "X" and y = Term.var "Y" and z = Term.var "Z" in
  let q =
    Cq.make ~head:[ Term.var "X" ]
      ~constraints:[ Constr.neq x y; Constr.neq y z ]
      [ Atom.make "e" [ x; y ]; Atom.make "e" [ y; z ]; Atom.make "e" [ z; x ] ]
  in
  {
    Gen.seed = 0;
    index = 0;
    label = "hand";
    db = Database.of_relations [ e ];
    shape = Gen.Query q;
  }

let test_shrink_to_minimum () =
  (* With an always-true divergence predicate, the greedy descent must
     reach the global floor: one atom, no constraints, one tuple per
     relation, all values collapsed to the minimum. *)
  let shrunk, steps = Shrink.minimize ~diverges:(fun _ -> true) (hand_instance ()) in
  Alcotest.(check int) "one atom" 1 (Gen.atoms shrunk.Gen.shape);
  Alcotest.(check int) "one tuple" 1 (Gen.tuple_count shrunk);
  (match shrunk.Gen.shape with
  | Gen.Query q ->
      Alcotest.(check int) "no constraints" 0 (List.length q.Cq.constraints)
  | Gen.Sentence _ -> Alcotest.fail "shape changed");
  Alcotest.(check bool) "steps counted" true (steps > 0)

let test_shrink_preserves_divergence () =
  (* A predicate that requires a self-loop tuple: the shrinker may
     remove everything else but must keep one. *)
  let has_self_loop inst =
    List.exists
      (fun rel ->
        List.exists
          (fun t -> Array.length t = 2 && t.(0) = t.(1))
          (Relation.tuples rel))
      (Database.relations inst.Gen.db)
  in
  let shrunk, _ = Shrink.minimize ~diverges:has_self_loop (hand_instance ()) in
  Alcotest.(check bool) "still diverges" true (has_self_loop shrunk);
  Alcotest.(check int) "minimal witness" 1 (Gen.tuple_count shrunk)

(* ------------------------------------------------------------------ *)
(* Case files *)

let test_case_file_roundtrip () =
  let dir = Filename.temp_file "paradb_cases" "" in
  Sys.remove dir;
  let inst = Gen.instance ~seed:11 ~index:4 ~max_vars:6 ~max_tuples:8 in
  let path =
    Case_file.write ~dir ~engine:"fpt" ~expected:"rows=2" ~got:"rows=1" inst
  in
  Fun.protect ~finally:(fun () -> Sys.remove path; Unix.rmdir dir)
  @@ fun () ->
  let case = Case_file.read path in
  Alcotest.(check string) "engine" "fpt" case.Case_file.engine;
  Alcotest.(check string) "shape"
    (Gen.shape_to_string inst.Gen.shape)
    (Gen.shape_to_string case.Case_file.shape);
  let replayed = Case_file.to_instance case in
  Alcotest.(check string) "database"
    (Test_support.db_to_string inst.Gen.db)
    (Test_support.db_to_string replayed.Gen.db)

(* ------------------------------------------------------------------ *)
(* The oracle proper *)

let in_process_engines =
  (* everything but the live-server round trips, which the CLI acceptance
     run covers; unit tests stay socket-free *)
  List.filter
    (fun n -> n <> "serve" && n <> "count-serve")
    Engines.names

let run_oracle ?(seed = 1) ?(cases = 60) ?(engines = in_process_engines) () =
  Oracle.run
    {
      Oracle.seed;
      cases;
      max_vars = 8;
      max_tuples = 16;
      engines = Some engines;
      out_dir = None;
    }

let test_clean_run () =
  let report = run_oracle ~seed:42 ~cases:120 () in
  Alcotest.(check int) "cases" 120 report.Oracle.cases_run;
  Alcotest.(check bool) "many comparisons" true
    (report.Oracle.comparisons > 120);
  Alcotest.(check int) "no divergences" 0
    (List.length report.Oracle.divergences)

let test_unknown_engine_rejected () =
  Alcotest.(check bool) "typo rejected" true
    (match run_oracle ~engines:[ "fpttypo" ] () with
    | exception Invalid_argument msg ->
        Test_support.contains msg "unknown engine"
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Mutation smoke: each seeded bug caught, with a small counterexample *)

let with_mutation name f =
  Unix.putenv "PARADB_MUTATE" name;
  Fun.protect ~finally:(fun () -> Unix.putenv "PARADB_MUTATE" "") f

let check_mutant_caught ?(cases = 60) ~mutant ~engines () =
  with_mutation mutant @@ fun () ->
  let report = run_oracle ~cases ~engines () in
  match report.Oracle.divergences with
  | [] -> Alcotest.failf "mutant %s survived %d cases" mutant cases
  | d :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "%s counterexample <= 4 atoms" mutant)
        true
        (Gen.atoms d.Oracle.shrunk.Gen.shape <= 4);
      Alcotest.(check bool)
        (Printf.sprintf "%s counterexample <= 10 tuples" mutant)
        true
        (Gen.tuple_count d.Oracle.shrunk <= 10)

let test_mutant_semijoin () =
  check_mutant_caught ~mutant:"semijoin_off_by_one"
    ~engines:[ "yannakakis-sat" ] ()

let test_mutant_drop_neq () =
  check_mutant_caught ~mutant:"drop_neq" ~engines:[ "fpt"; "fpt-sat" ] ()

let test_mutant_color_count () =
  check_mutant_caught ~mutant:"color_count" ~engines:[ "fpt"; "fpt-sat" ] ()

let test_mutant_probe_key_swap () =
  check_mutant_caught ~mutant:"probe_key_swap" ~engines:[ "compiled" ] ()

let test_mutant_sum_instead_of_max () =
  check_mutant_caught ~mutant:"sum_instead_of_max"
    ~engines:[ "tropical-yannakakis" ] ()

(* Dropping multiplicities only shows on a projection collision — a
   rarer shape than the other mutants trip on, hence the bigger case
   budget. *)
let test_mutant_count_dedup_drop () =
  check_mutant_caught ~cases:400 ~mutant:"count_dedup_drop"
    ~engines:[ "count-yannakakis" ] ()

let test_mutant_materialize_drop_eq () =
  check_mutant_caught ~mutant:"materialize_drop_eq"
    ~engines:[ "compiled"; "segment-compiled" ] ()

let test_mutant_exists_cut_early () =
  check_mutant_caught ~mutant:"exists_cut_early"
    ~engines:[ "compiled"; "segment-compiled" ] ()

(* A barrier keyed on its first live register merges prefixes that
   differ later in the key: the count memo replays the wrong subtree. *)
let test_mutant_barrier_key_prefix () =
  check_mutant_caught ~mutant:"barrier_key_prefix"
    ~engines:[ "compiled"; "count-compiled" ] ()

(* A shard that confirms any held snapshot lets the coordinator reuse
   segments gathered from an earlier case's data: the cluster engine
   re-LOADs for every case, so the stale answer diverges. *)
let test_mutant_ship_stale_snapshot () =
  check_mutant_caught ~mutant:"ship_stale_snapshot" ~engines:[ "cluster" ] ()

(* Keeping one row per probed key drops the other rows of [r] that
   share it: any engine's reduced relation loses answers. *)
(* A head-free component of a join forest counted as 1 drops the factor
   of its valuations from the product. *)
let test_mutant_forest_count_headfree_bool () =
  check_mutant_caught ~mutant:"forest_count_headfree_bool"
    ~engines:[ "count-compiled" ] ()

let test_mutant_semijoin_probe_first_only () =
  check_mutant_caught ~mutant:"semijoin_probe_first_only"
    ~engines:[ "compiled"; "yannakakis" ] ()

(* Raw codes are first-seen order; the order-mixed class interns its
   mixed Int/Str domain shuffled, so a [<] that skips the ranks keeps or
   drops the wrong rows. *)
let test_mutant_order_raw_codes () =
  check_mutant_caught ~mutant:"order_raw_codes"
    ~engines:[ "compiled"; "count-compiled" ] ()

(* A flipped inclusion–exclusion sign only shows on the cases whose
   count the var-var != rewrite expands, about one in forty. *)
let test_mutant_neq_quotient_sign () =
  check_mutant_caught ~cases:200 ~mutant:"neq_quotient_sign"
    ~engines:[ "count-compiled" ] ()

let test_unknown_mutant_rejected () =
  with_mutation "not_a_mutant" @@ fun () ->
  Alcotest.(check bool) "raises" true
    (match run_oracle ~cases:1 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "oracle"
    [
      ( "gen",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "class coverage" `Quick test_gen_class_coverage;
          Alcotest.test_case "parser round trip" `Quick
            test_gen_roundtrips_through_parser;
        ] );
      ( "contract",
        [ Alcotest.test_case "agrees" `Quick test_agrees_contract ] );
      ( "shrink",
        [
          Alcotest.test_case "to minimum" `Quick test_shrink_to_minimum;
          Alcotest.test_case "preserves divergence" `Quick
            test_shrink_preserves_divergence;
        ] );
      ( "case files",
        [ Alcotest.test_case "round trip" `Quick test_case_file_roundtrip ] );
      ( "oracle",
        [
          Alcotest.test_case "clean run" `Quick test_clean_run;
          Alcotest.test_case "unknown engine" `Quick
            test_unknown_engine_rejected;
        ] );
      ( "mutation smoke",
        [
          Alcotest.test_case "semijoin off by one" `Quick test_mutant_semijoin;
          Alcotest.test_case "drop neq" `Quick test_mutant_drop_neq;
          Alcotest.test_case "color count" `Quick test_mutant_color_count;
          Alcotest.test_case "probe key swap" `Quick
            test_mutant_probe_key_swap;
          Alcotest.test_case "sum instead of max" `Quick
            test_mutant_sum_instead_of_max;
          Alcotest.test_case "count dedup drop" `Quick
            test_mutant_count_dedup_drop;
          Alcotest.test_case "materialize drop eq" `Quick
            test_mutant_materialize_drop_eq;
          Alcotest.test_case "exists cut early" `Quick
            test_mutant_exists_cut_early;
          Alcotest.test_case "barrier key prefix" `Quick
            test_mutant_barrier_key_prefix;
          Alcotest.test_case "ship stale snapshot" `Quick
            test_mutant_ship_stale_snapshot;
          Alcotest.test_case "semijoin probe first only" `Quick
            test_mutant_semijoin_probe_first_only;
          Alcotest.test_case "order raw codes" `Quick
            test_mutant_order_raw_codes;
          Alcotest.test_case "neq quotient sign" `Quick
            test_mutant_neq_quotient_sign;
          Alcotest.test_case "forest count head-free bool" `Quick
            test_mutant_forest_count_headfree_bool;
          Alcotest.test_case "unknown mutant" `Quick
            test_unknown_mutant_rejected;
        ] );
    ]
