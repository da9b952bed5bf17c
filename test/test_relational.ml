module Value = Paradb_relational.Value
module Tuple = Paradb_relational.Tuple
module Relation = Paradb_relational.Relation
module Database = Paradb_relational.Database
module Row_set = Paradb_relational.Row_set
module Code_row = Paradb_relational.Code_row

let rel name schema rows =
  Relation.create ~name ~schema (List.map Tuple.of_ints rows)

let r_edges =
  rel "e" [ "a"; "b" ] [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 1; 3 ] ]

let check_cardinality = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Value *)

let test_value_order () =
  Alcotest.(check bool) "int < str" true (Value.compare (Value.Int 5) (Value.Str "a") < 0);
  Alcotest.(check bool) "int order" true (Value.compare (Value.Int 1) (Value.Int 2) < 0);
  Alcotest.(check bool) "str order" true (Value.compare (Value.Str "a") (Value.Str "b") < 0);
  Alcotest.(check bool) "equal" true (Value.equal (Value.Int 3) (Value.Int 3))

let test_value_of_string () =
  Alcotest.(check bool) "parses int" true (Value.equal (Value.of_string "42") (Value.Int 42));
  Alcotest.(check bool) "parses neg" true (Value.equal (Value.of_string "-7") (Value.Int (-7)));
  Alcotest.(check bool) "parses str" true (Value.equal (Value.of_string "x1") (Value.Str "x1"));
  Alcotest.(check string) "to_string int" "42" (Value.to_string (Value.Int 42))

let test_value_to_int () =
  Alcotest.(check int) "payload" 9 (Value.to_int (Value.Int 9));
  Alcotest.check_raises "str payload" (Invalid_argument "Value.to_int: not an integer: a")
    (fun () -> ignore (Value.to_int (Value.Str "a")))

(* ------------------------------------------------------------------ *)
(* Tuple *)

let test_tuple_compare () =
  let t1 = Tuple.of_ints [ 1; 2 ] and t2 = Tuple.of_ints [ 1; 3 ] in
  Alcotest.(check bool) "lt" true (Tuple.compare t1 t2 < 0);
  Alcotest.(check bool) "eq" true (Tuple.equal t1 (Tuple.of_ints [ 1; 2 ]));
  Alcotest.(check bool) "arity sorts first" true
    (Tuple.compare (Tuple.of_ints [ 9 ]) (Tuple.of_ints [ 1; 1 ]) < 0)

let test_tuple_sub_append () =
  let t = Tuple.of_ints [ 10; 20; 30 ] in
  Alcotest.(check bool) "sub" true
    (Tuple.equal (Tuple.sub t [| 2; 0; 2 |]) (Tuple.of_ints [ 30; 10; 30 ]));
  Alcotest.(check bool) "append" true
    (Tuple.equal
       (Tuple.append (Tuple.of_ints [ 1 ]) (Tuple.of_ints [ 2 ]))
       (Tuple.of_ints [ 1; 2 ]))

(* ------------------------------------------------------------------ *)
(* Relation basics *)

let test_create_dedups () =
  let r = rel "r" [ "x" ] [ [ 1 ]; [ 1 ]; [ 2 ] ] in
  check_cardinality "dedup" 2 (Relation.cardinality r)

let test_create_validates () =
  Alcotest.check_raises "duplicate attr"
    (Invalid_argument "Relation: duplicate attribute a") (fun () ->
      ignore (rel "r" [ "a"; "a" ] []));
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Relation r: row arity 1, schema arity 2") (fun () ->
      ignore (rel "r" [ "a"; "b" ] [ [ 1 ] ]))

let test_project () =
  let p = Relation.project [ "b" ] r_edges in
  check_cardinality "projected" 3 (Relation.cardinality p);
  Alcotest.(check (list string)) "schema" [ "b" ] (Relation.schema_list p);
  (* reorder *)
  let swapped = Relation.project [ "b"; "a" ] r_edges in
  Alcotest.(check bool) "reordered row" true
    (Relation.mem (Tuple.of_ints [ 2; 1 ]) swapped)

let test_rename () =
  let r = Relation.rename [ ("a", "x") ] r_edges in
  Alcotest.(check (list string)) "renamed" [ "x"; "b" ] (Relation.schema_list r);
  let r2 = Relation.rename_positional [ "u"; "v" ] r_edges in
  Alcotest.(check (list string)) "positional" [ "u"; "v" ] (Relation.schema_list r2)

let test_select_restrict () =
  let big = Relation.restrict r_edges "a" (fun v -> Value.to_int v >= 2) in
  check_cardinality "restricted" 2 (Relation.cardinality big);
  let none = Relation.select (fun _ -> false) r_edges in
  Alcotest.(check bool) "empty" true (Relation.is_empty none)

(* ------------------------------------------------------------------ *)
(* Joins *)

let test_natural_join_chain () =
  let r2 = Relation.rename_positional [ "b"; "c" ] r_edges in
  let j = Relation.natural_join r_edges r2 in
  (* paths of length 2: 1-2-3, 2-3-4, 1-3-4 *)
  check_cardinality "join size" 3 (Relation.cardinality j);
  Alcotest.(check (list string)) "join schema" [ "a"; "b"; "c" ]
    (Relation.schema_list j);
  Alcotest.(check bool) "has 1-2-3" true
    (Relation.mem (Tuple.of_ints [ 1; 2; 3 ]) j)

let test_join_no_common_is_product () =
  let s = rel "s" [ "c" ] [ [ 7 ]; [ 8 ] ] in
  let j = Relation.natural_join r_edges s in
  check_cardinality "product size" 8 (Relation.cardinality j);
  let p = Relation.product r_edges s in
  Alcotest.(check bool) "same as product" true (Relation.set_equal j p)

let test_product_rejects_shared () =
  Alcotest.check_raises "shared attr"
    (Invalid_argument "Relation.product: shared attribute a") (fun () ->
      ignore (Relation.product r_edges r_edges))

let test_sort_merge_join () =
  let r2 = Relation.rename_positional [ "b"; "c" ] r_edges in
  let hash = Relation.natural_join r_edges r2 in
  let merge = Relation.sort_merge_join r_edges r2 in
  Alcotest.(check bool) "agree" true (Relation.set_equal hash merge);
  (* no common attributes: product *)
  let s = rel "s" [ "z" ] [ [ 7 ]; [ 8 ] ] in
  Alcotest.(check bool) "product" true
    (Relation.set_equal (Relation.sort_merge_join r_edges s)
       (Relation.product r_edges s))

let test_semijoin () =
  let s = rel "s" [ "b" ] [ [ 2 ]; [ 4 ] ] in
  let sj = Relation.semijoin r_edges s in
  check_cardinality "semijoin" 2 (Relation.cardinality sj);
  Alcotest.(check bool) "kept 1-2" true (Relation.mem (Tuple.of_ints [ 1; 2 ]) sj);
  Alcotest.(check bool) "kept 3-4" true (Relation.mem (Tuple.of_ints [ 3; 4 ]) sj);
  (* no common attributes: semijoin keeps all iff other side nonempty *)
  let t = rel "t" [ "z" ] [ [ 0 ] ] in
  Alcotest.(check bool) "nonempty other side" true
    (Relation.set_equal (Relation.semijoin r_edges t) r_edges);
  let empty_t = rel "t" [ "z" ] [] in
  Alcotest.(check bool) "empty other side" true
    (Relation.is_empty (Relation.semijoin r_edges empty_t))

(* The probe side of [semijoin]: an [s] at most a quarter of [r] walks
   [r]'s memoized index with its distinct keys.  It must keep the same
   rows, in [r]'s order, as the scan side. *)
module Dictionary = Paradb_relational.Dictionary
module Metrics = Paradb_telemetry.Metrics

let semijoin_probe = Metrics.counter "relation.semijoin.probe"

let probes f =
  let before = Metrics.counter_value semijoin_probe in
  let x = f () in
  (x, Metrics.counter_value semijoin_probe - before)

let row_list r = Array.to_list (Array.sub (Relation.rows r) 0 (Relation.cardinality r))

(* 64 edges (i, i mod 8): every key of column b repeats 8 times. *)
let fan = rel "e" [ "a"; "b" ] (List.init 64 (fun i -> [ i; i mod 8 ]))

let expect_fan_rows name keys got =
  let ints row = List.map (fun c -> Value.to_int (Relation.decode_value c)) row in
  Alcotest.(check (list (list int))) name
    (List.filter_map
       (fun i -> if List.mem (i mod 8) keys then Some [ i; i mod 8 ] else None)
       (List.init 64 Fun.id))
    (List.map (fun row -> ints (Array.to_list row)) (row_list got))

let test_semijoin_probe_side () =
  (* duplicate join keys in s: each key is probed once, its rows kept once *)
  let s = rel "s" [ "b"; "c" ] [ [ 3; 0 ]; [ 5; 1 ]; [ 3; 2 ]; [ 3; 3 ] ] in
  let got, n = probes (fun () -> Relation.semijoin fan s) in
  check_cardinality "probe side taken" 1 n;
  expect_fan_rows "duplicate keys: r's matching rows, in r's order" [ 3; 5 ] got;
  (* an s too large for the probe side takes the scan side, and agrees *)
  let big = rel "s" [ "b" ] (List.init 20 (fun i -> [ (i * 5) + 1 ])) in
  let got, n = probes (fun () -> Relation.semijoin fan big) in
  check_cardinality "scan side taken" 0 n;
  expect_fan_rows "scan side" [ 1; 6 ] got;
  (* nothing dropped: r itself, physically *)
  let all = rel "s" [ "b" ] (List.init 8 (fun i -> [ i ])) in
  let got, n = probes (fun () -> Relation.semijoin fan all) in
  check_cardinality "probe side taken" 1 n;
  Alcotest.(check bool) "nothing dropped returns r" true (got == fan);
  (* no key matches: empty, with r's schema *)
  let none = rel "s" [ "b" ] [ [ 99 ] ] in
  let got = Relation.semijoin fan none in
  Alcotest.(check bool) "no match is empty" true (Relation.is_empty got);
  Alcotest.(check (list string)) "keeps r's schema" [ "a"; "b" ]
    (Relation.schema_list got)

(* Two domains probing one shared base view at once — racing to build
   its key index — get the rows a sequential semijoin gets. *)
let test_semijoin_shared_view_domains () =
  let n = 20_000 in
  let base = rel "e" [ "x"; "y" ] (List.init n (fun i -> [ i mod 500; i ])) in
  let view () = Relation.rename_positional [ "a"; "b" ] base in
  let s = rel "s" [ "a" ] [ [ 7 ]; [ 123 ]; [ 499 ] ] in
  let sj () = row_list (Relation.semijoin (view ()) s) in
  let d1 = Domain.spawn sj and d2 = Domain.spawn sj in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  let keys = List.map (fun row -> row.(0)) (row_list s) in
  let expected = List.filter (fun row -> List.mem row.(0) keys) (row_list base) in
  check_cardinality "matched rows" 120 (List.length expected);
  Alcotest.(check bool) "domain 1 = sequential reference" true (r1 = expected);
  Alcotest.(check bool) "domain 2 = domain 1" true (r2 = r1)

(* Degenerate shapes: empty sides, empty common-attribute sets, 0-ary
   operands.  These are the cartesian-guard corners of semijoin /
   natural_join / product. *)
let test_degenerate_cases () =
  let empty_edges = rel "e" [ "a"; "b" ] [] in
  (* semijoin: common attributes present but other side empty *)
  let s_empty = rel "s" [ "b" ] [] in
  Alcotest.(check bool) "semijoin vs empty (common attrs)" true
    (Relation.is_empty (Relation.semijoin r_edges s_empty));
  Alcotest.(check (list string)) "semijoin keeps left schema" [ "a"; "b" ]
    (Relation.schema_list (Relation.semijoin r_edges s_empty));
  (* semijoin: empty left side *)
  let s = rel "s" [ "b" ] [ [ 2 ] ] in
  Alcotest.(check bool) "empty left semijoin" true
    (Relation.is_empty (Relation.semijoin empty_edges s));
  (* semijoin: 0-ary other side acts as a boolean guard *)
  let t_true = rel "t" [] [ [] ] and t_false = rel "t" [] [] in
  Alcotest.(check bool) "0-ary guard true" true
    (Relation.set_equal (Relation.semijoin r_edges t_true) r_edges);
  Alcotest.(check bool) "0-ary guard false" true
    (Relation.is_empty (Relation.semijoin r_edges t_false));
  (* natural_join: empty side kills the join but keeps the merged schema *)
  let r2 = Relation.rename_positional [ "b"; "c" ] empty_edges in
  let j = Relation.natural_join r_edges r2 in
  Alcotest.(check bool) "join vs empty" true (Relation.is_empty j);
  Alcotest.(check (list string)) "join schema survives" [ "a"; "b"; "c" ]
    (Relation.schema_list j);
  let j2 = Relation.natural_join r2 r_edges in
  Alcotest.(check bool) "empty probe side" true (Relation.is_empty j2);
  (* natural_join with no common attributes and an empty side: empty
     product, not the left operand *)
  let z_empty = rel "z" [ "z" ] [] in
  Alcotest.(check bool) "product join vs empty" true
    (Relation.is_empty (Relation.natural_join r_edges z_empty));
  (* product: empty and 0-ary operands *)
  Alcotest.(check bool) "product vs empty" true
    (Relation.is_empty (Relation.product r_edges z_empty));
  Alcotest.(check bool) "product with 0-ary unit" true
    (Relation.set_equal (Relation.product r_edges t_true) r_edges);
  Alcotest.(check bool) "product with 0-ary zero" true
    (Relation.is_empty (Relation.product r_edges t_false));
  (* full projection: nonempty relation projects to the single 0-ary row *)
  Alcotest.(check int) "project-to-unit cardinality" 1
    (Relation.cardinality (Relation.project [] r_edges));
  Alcotest.(check bool) "project-to-unit of empty" true
    (Relation.is_empty (Relation.project [] empty_edges))

let test_set_ops () =
  let r1 = rel "r" [ "a"; "b" ] [ [ 1; 2 ]; [ 3; 4 ] ] in
  (* same attribute set, different column order *)
  let r2 = rel "r" [ "b"; "a" ] [ [ 2; 1 ]; [ 9; 9 ] ] in
  let u = Relation.union r1 r2 in
  check_cardinality "union" 3 (Relation.cardinality u);
  let i = Relation.inter r1 r2 in
  check_cardinality "inter" 1 (Relation.cardinality i);
  Alcotest.(check bool) "inter row" true (Relation.mem (Tuple.of_ints [ 1; 2 ]) i);
  let d = Relation.diff r1 r2 in
  check_cardinality "diff" 1 (Relation.cardinality d);
  Alcotest.(check bool) "diff row" true (Relation.mem (Tuple.of_ints [ 3; 4 ]) d)

let test_extend () =
  let r = Relation.extend "sum" (fun row ->
      Value.Int (Value.to_int row.(0) + Value.to_int row.(1))) r_edges in
  Alcotest.(check (list string)) "schema" [ "a"; "b"; "sum" ]
    (Relation.schema_list r);
  Alcotest.(check bool) "computed" true (Relation.mem (Tuple.of_ints [ 1; 2; 3 ]) r)

let test_arity_zero () =
  let t = rel "t" [] [ [] ] in
  check_cardinality "one empty tuple" 1 (Relation.cardinality t);
  let f = rel "f" [] [] in
  Alcotest.(check bool) "empty 0-ary" true (Relation.is_empty f);
  (* joining with a 0-ary relation acts as a boolean guard *)
  let j = Relation.natural_join r_edges t in
  Alcotest.(check bool) "guard true" true (Relation.set_equal j r_edges);
  let j2 = Relation.natural_join r_edges f in
  Alcotest.(check bool) "guard false" true (Relation.is_empty j2)

let test_domain () =
  let d = Relation.domain r_edges in
  Alcotest.(check int) "domain size" 4 (Value.Set.cardinal d)

(* ------------------------------------------------------------------ *)
(* Database *)

let test_database () =
  let db = Database.of_relations [ r_edges; rel "s" [ "x" ] [ [ 9 ] ] ] in
  Alcotest.(check (list string)) "names" [ "e"; "s" ] (Database.names db);
  Alcotest.(check int) "size" 5 (Database.size db);
  Alcotest.(check int) "cells" 9 (Database.cells db);
  Alcotest.(check int) "arity" 2 (Database.arity_of db "e");
  Alcotest.(check int) "domain" 5 (Value.Set.cardinal (Database.domain db));
  Alcotest.(check bool) "find_opt none" true (Database.find_opt db "zzz" = None)

let test_database_unnamed () =
  Alcotest.check_raises "unnamed"
    (Invalid_argument "Database.add: relation has no name") (fun () ->
      ignore (Database.add (Relation.create ~schema:[ "x" ] []) Database.empty))

(* ------------------------------------------------------------------ *)
(* Properties *)

(* A sealed row store may own an exactly-sized, even empty, row array:
   its first [add] must still grow it. *)
let test_sealed_row_set_grows () =
  List.iter
    (fun rows ->
      let n = Array.length rows in
      let s = Row_set.of_unique_array (Array.copy rows) n in
      Row_set.add s [| 7; 7 |];
      Row_set.add s [| 7; 7 |];
      Alcotest.(check int) "one row added" (n + 1) (Row_set.cardinal s);
      Alcotest.(check bool) "added row found" true (Row_set.mem s [| 7; 7 |]);
      Array.iter
        (fun row ->
          Alcotest.(check bool) "sealed row found" true (Row_set.mem s row))
        rows)
    [ [||]; [| [| 1; 2 |] |]; Array.init 8 (fun i -> [| i; i + 1 |]) ]

(* The closure-based definitions the loop rewrites in [Code_row]
   replaced, kept as the reference. *)
module Old_code_row = struct
  let equal (a : int array) (b : int array) =
    let la = Array.length a in
    la = Array.length b
    &&
    let rec go i = i >= la || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  let compare (a : int array) (b : int array) =
    let la = Array.length a and lb = Array.length b in
    if la <> lb then Int.compare la lb
    else
      let rec go i =
        if i >= la then 0
        else
          let c = Int.compare a.(i) b.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0

  let equal_sub a pa b pb = equal (Code_row.sub a pa) (Code_row.sub b pb)
end

(* Small cells over a tiny domain, so equal rows and duplicate keys are
   common; lengths 0..4 include the empty row. *)
let random_code_row rng ?(len = Random.State.int rng 5) () =
  Array.init len (fun _ -> Random.State.int rng 3)

let random_positions rng ~arity =
  if arity = 0 then [||]
  else Array.init (Random.State.int rng 4) (fun _ -> Random.State.int rng arity)

(* [add_sub]/[find_sub] against [add (sub row pos)]/[mem] on the same
   insert stream.  Starting from a small or sealed set, a few hundred
   inserts cross several [resize_table]s. *)
let sub_keys_agree rng =
  let arity = Random.State.int rng 4 in
  let pos = random_positions rng ~arity in
  let klen = Array.length pos in
  let sealed =
    let seen = Row_set.create 8 in
    for _ = 1 to Random.State.int rng 6 do
      Row_set.add seen (random_code_row rng ~len:klen ())
    done;
    Row_set.to_array seen
  in
  let seal = Random.State.bool rng in
  let make () =
    if seal then Row_set.of_unique_array (Array.copy sealed) (Array.length sealed)
    else Row_set.create 1
  in
  let reference = make () and subject = make () in
  let ok = ref true in
  for _ = 1 to Random.State.int rng 300 do
    let row = random_code_row rng ~len:arity () in
    let key = Code_row.sub row pos in
    let id = Row_set.find_sub subject row pos in
    let was = Row_set.mem reference key in
    if (id >= 0) <> was then ok := false;
    if id >= 0 && not (Code_row.equal (Row_set.get subject id) key) then
      ok := false;
    if Random.State.int rng 4 > 0 then begin
      let n = Row_set.cardinal subject in
      let id' = Row_set.add_sub subject row pos in
      Row_set.add reference key;
      if (id' = n) = was then ok := false;
      if was && id' <> id then ok := false
    end
  done;
  !ok
  && Row_set.cardinal subject = Row_set.cardinal reference
  && List.for_all
       (fun i -> Code_row.equal (Row_set.get subject i) (Row_set.get reference i))
       (List.init (Row_set.cardinal subject) Fun.id)

let cursor_rows r idx probe key =
  let acc = ref [] in
  let i = ref (Relation.probe_first r idx probe key) in
  while !i >= 0 do
    acc := (Relation.rows r).(!i) :: !acc;
    i := Relation.probe_next r idx probe key !i
  done;
  List.rev !acc

let qcheck_tests =
  let random_rel rng ~schema =
    Qgen.random_relation rng ~name:"r" ~arity:(List.length schema)
      ~domain_size:4
      ~tuples:(1 + Random.State.int rng 12)
    |> Relation.rename_positional schema
  in
  [
    Qgen.seeded_property ~name:"code row loops = closure definitions"
      ~count:300 (fun rng ->
        let a = random_code_row rng () and b = random_code_row rng () in
        let b = if Random.State.bool rng then Array.copy a else b in
        let pa = random_positions rng ~arity:(Array.length a)
        and pb = random_positions rng ~arity:(Array.length b) in
        Code_row.equal a b = Old_code_row.equal a b
        && Code_row.compare a b = Old_code_row.compare a b
        && Code_row.compare b a = Old_code_row.compare b a
        && Code_row.equal_sub a pa b pb = Old_code_row.equal_sub a pa b pb
        && Code_row.equal_sub a pa a pa);
    Qgen.seeded_property ~name:"add_sub/find_sub = add (sub ..)/mem"
      ~count:200 sub_keys_agree;
    Qgen.seeded_property ~name:"probe cursor = probe_iter = key filter"
      ~count:200 (fun rng ->
        let arity = 1 + Random.State.int rng 3 in
        let r =
          random_rel rng ~schema:(List.init arity (Printf.sprintf "c%d"))
        in
        let kpos = random_positions rng ~arity in
        let idx = Relation.hash_index r kpos in
        let probe = random_code_row rng ~len:(arity + 1) () in
        (* probe cells are codes of the shared dictionary's small ints *)
        let probe =
          Array.map
            (fun c ->
              Paradb_relational.Dictionary.intern
                Paradb_relational.Dictionary.global (Value.Int c))
            probe
        in
        let key = Array.map (fun p -> (p + 1) mod (arity + 1)) kpos in
        let via_iter = ref [] in
        Relation.probe_iter r idx probe key (fun row -> via_iter := row :: !via_iter);
        let cursor = cursor_rows r idx probe key in
        let expected =
          List.filter
            (fun row -> Code_row.equal_sub row kpos probe key)
            (List.init (Relation.cardinality r) (Array.get (Relation.rows r)))
        in
        let sort = List.sort Code_row.compare in
        cursor = List.rev !via_iter
        && sort cursor = sort expected
        && Relation.probe_mem r idx probe key = (cursor <> []));
    Qgen.seeded_property ~name:"join is commutative (as sets)" ~count:100
      (fun rng ->
        let r = random_rel rng ~schema:[ "a"; "b" ] in
        let s = random_rel rng ~schema:[ "b"; "c" ] in
        Relation.set_equal (Relation.natural_join r s)
          (Relation.natural_join s r));
    Qgen.seeded_property ~name:"join is associative (as sets)" ~count:100
      (fun rng ->
        let r = random_rel rng ~schema:[ "a"; "b" ] in
        let s = random_rel rng ~schema:[ "b"; "c" ] in
        let t = random_rel rng ~schema:[ "c"; "d" ] in
        Relation.set_equal
          (Relation.natural_join (Relation.natural_join r s) t)
          (Relation.natural_join r (Relation.natural_join s t)));
    Qgen.seeded_property ~name:"sort-merge join = hash join" ~count:100
      (fun rng ->
        let r = random_rel rng ~schema:[ "a"; "b" ] in
        let s = random_rel rng ~schema:[ "b"; "c" ] in
        Relation.set_equal (Relation.sort_merge_join r s)
          (Relation.natural_join r s));
    Qgen.seeded_property ~name:"semijoin = project of join" ~count:100
      (fun rng ->
        let r = random_rel rng ~schema:[ "a"; "b" ] in
        let s = random_rel rng ~schema:[ "b"; "c" ] in
        Relation.set_equal (Relation.semijoin r s)
          (Relation.project [ "a"; "b" ] (Relation.natural_join r s)));
    Qgen.seeded_property
      ~name:"semijoin = select_codes reference; r1 itself when nothing drops; \
             sealed result accepts add/mem"
      ~count:200 (fun rng ->
        let r = random_rel rng ~schema:[ "a"; "b" ] in
        let s = random_rel rng ~schema:[ "b"; "c" ] in
        let s_keys = Relation.fold_codes (fun row acc -> row.(0) :: acc) s [] in
        let reference =
          Relation.select_codes (fun row -> List.mem row.(1) s_keys) r
        in
        let got = Relation.semijoin r s in
        let fresh = [| Value.Int 99; Value.Int 98 |] in
        let grown = Relation.add fresh got in
        Relation.set_equal got reference
        && (got == r) = (Relation.cardinality got = Relation.cardinality r)
        && Relation.fold (fun row ok -> ok && Relation.mem row got) got true
        && (not (Relation.mem fresh got))
        && Relation.mem fresh grown
        && Relation.cardinality grown = Relation.cardinality got + 1);
    Qgen.seeded_property ~name:"semijoin shrinks" ~count:100 (fun rng ->
        let r = random_rel rng ~schema:[ "a"; "b" ] in
        let s = random_rel rng ~schema:[ "b"; "c" ] in
        Relation.cardinality (Relation.semijoin r s) <= Relation.cardinality r);
    Qgen.seeded_property ~name:"union/inter/diff partition" ~count:100
      (fun rng ->
        let r = random_rel rng ~schema:[ "a"; "b" ] in
        let s = random_rel rng ~schema:[ "a"; "b" ] in
        Relation.cardinality (Relation.union r s)
        = Relation.cardinality (Relation.diff r s)
          + Relation.cardinality (Relation.inter r s)
          + Relation.cardinality (Relation.diff s r));
    Qgen.seeded_property ~name:"projection is monotone" ~count:100 (fun rng ->
        let r = random_rel rng ~schema:[ "a"; "b"; "c" ] in
        let s = Relation.select (fun row -> Value.to_int row.(0) < 2) r in
        Relation.cardinality (Relation.project [ "a"; "c" ] s)
        <= Relation.cardinality (Relation.project [ "a"; "c" ] r));
    Qgen.seeded_property ~name:"double rename is identity" ~count:100
      (fun rng ->
        let r = random_rel rng ~schema:[ "a"; "b" ] in
        let there = Relation.rename [ ("a", "z") ] r in
        let back = Relation.rename [ ("z", "a") ] there in
        Relation.set_equal r back);
  ]

(* ------------------------------------------------------------------ *)
(* Dictionary: lookups racing growth, and the order index *)

(* [code_opt] against a concurrent [intern] that resizes the table: a
   present value must never read as absent (a miss used to make an
   anchored EVAL answer empty). *)
let test_code_opt_races_intern () =
  let d = Dictionary.create ~size_hint:16 () in
  let ints = Array.init 1000 (fun i -> Value.Int i) in
  Array.iter (fun v -> ignore (Dictionary.intern d v)) ints;
  let done_ = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        for i = 0 to 299_999 do
          ignore (Dictionary.intern d (Value.Str (string_of_int i)))
        done;
        Atomic.set done_ true)
  in
  let misses = ref 0 and lookups = ref 0 in
  while not (Atomic.get done_) do
    Array.iter
      (fun v ->
        incr lookups;
        if Dictionary.code_opt d v = None then incr misses)
      ints
  done;
  Domain.join writer;
  Alcotest.(check bool) "lookups ran" true (!lookups > 0);
  check_cardinality "no present value missed" 0 !misses

let order_builds = Metrics.counter "dictionary.order.builds"
let order_extends = Metrics.counter "dictionary.order.extends"

(* The index against a from-scratch sort of every covered code. *)
let check_order name d (o : Dictionary.order) =
  let n = o.Dictionary.covered in
  let codes = Array.init n Fun.id in
  Array.stable_sort
    (fun a b -> Value.compare (Dictionary.value d a) (Dictionary.value d b))
    codes;
  Alcotest.(check (array int)) (name ^ ": sorted") codes o.Dictionary.sorted;
  Array.iteri
    (fun r c ->
      check_cardinality (name ^ ": rank") r o.Dictionary.rank.(c);
      Alcotest.(check string) (name ^ ": text")
        (Value.to_string (Dictionary.value d c))
        o.Dictionary.text.(c))
    codes

let test_order_index () =
  let rng = Random.State.make [| 7 |] in
  let fresh () =
    if Random.State.bool rng then Value.Int (Random.State.int rng 2001 - 1000)
    else Value.Str (string_of_int (Random.State.int rng 100))
  in
  let d = Dictionary.create () in
  List.iter
    (fun v -> ignore (Dictionary.intern d v))
    [ Value.Str "b"; Value.Int 3; Value.Str "10"; Value.Int (-2); Value.Str "a" ];
  let b0 = Metrics.counter_value order_builds
  and e0 = Metrics.counter_value order_extends in
  let empty = Dictionary.order d ~covering:0 in
  check_cardinality "nothing asked, nothing built" 0 empty.Dictionary.covered;
  let o = Dictionary.order d ~covering:2 in
  check_cardinality "built to the whole dictionary" 5 o.Dictionary.covered;
  check_order "first build" d o;
  Alcotest.(check bool) "covered: the same index" true
    (Dictionary.order d ~covering:5 == o);
  (* an absent value is placed without being interned *)
  let size = Dictionary.size d in
  Alcotest.(check (pair int int)) "absent between" (1, 1)
    (Dictionary.bounds d o (Value.Int 0));
  Alcotest.(check (pair int int)) "present" (3, 4)
    (Dictionary.bounds d o (Value.Str "a"));
  Alcotest.(check (pair int int)) "above all" (5, 5)
    (Dictionary.bounds d o (Value.Str "zz"));
  Alcotest.(check (pair int int)) "below all" (0, 0)
    (Dictionary.bounds d o (Value.Int min_int));
  check_cardinality "bounds interns nothing" size (Dictionary.size d);
  (* growth by one code, then by many: merged, never a second build *)
  ignore (Dictionary.intern d (Value.Int 0));
  let o1 = Dictionary.order d ~covering:6 in
  check_order "extended by one" d o1;
  check_order "the old index is unchanged" d o;
  for _ = 1 to 500 do
    ignore (Dictionary.intern d (fresh ()))
  done;
  let o2 = Dictionary.order d ~covering:(Dictionary.size d) in
  check_order "extended by many" d o2;
  check_cardinality "one build" 1 (Metrics.counter_value order_builds - b0);
  check_cardinality "two extensions" 2 (Metrics.counter_value order_extends - e0);
  Alcotest.(check bool) "beyond the dictionary" true
    (match Dictionary.order d ~covering:(Dictionary.size d + 1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "relational"
    [
      ( "value",
        [
          Alcotest.test_case "order" `Quick test_value_order;
          Alcotest.test_case "of_string" `Quick test_value_of_string;
          Alcotest.test_case "to_int" `Quick test_value_to_int;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "compare" `Quick test_tuple_compare;
          Alcotest.test_case "sub/append" `Quick test_tuple_sub_append;
        ] );
      ( "relation",
        [
          Alcotest.test_case "dedup" `Quick test_create_dedups;
          Alcotest.test_case "validation" `Quick test_create_validates;
          Alcotest.test_case "project" `Quick test_project;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "select" `Quick test_select_restrict;
          Alcotest.test_case "natural join" `Quick test_natural_join_chain;
          Alcotest.test_case "sort-merge join" `Quick test_sort_merge_join;
          Alcotest.test_case "join as product" `Quick test_join_no_common_is_product;
          Alcotest.test_case "product guard" `Quick test_product_rejects_shared;
          Alcotest.test_case "semijoin" `Quick test_semijoin;
          Alcotest.test_case "semijoin probe side" `Quick
            test_semijoin_probe_side;
          Alcotest.test_case "semijoin on a shared view from two domains"
            `Quick test_semijoin_shared_view_domains;
          Alcotest.test_case "sealed row set grows" `Quick
            test_sealed_row_set_grows;
          Alcotest.test_case "degenerate cases" `Quick test_degenerate_cases;
          Alcotest.test_case "set ops" `Quick test_set_ops;
          Alcotest.test_case "extend" `Quick test_extend;
          Alcotest.test_case "0-ary relations" `Quick test_arity_zero;
          Alcotest.test_case "domain" `Quick test_domain;
        ] );
      ( "dictionary",
        [
          Alcotest.test_case "code_opt races intern" `Quick
            test_code_opt_races_intern;
          Alcotest.test_case "order index" `Quick test_order_index;
        ] );
      ( "database",
        [
          Alcotest.test_case "basics" `Quick test_database;
          Alcotest.test_case "unnamed rejected" `Quick test_database_unnamed;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
