module Value = Paradb_relational.Value
module Tuple = Paradb_relational.Tuple
open Paradb_query

module Astring_free = struct
  let contains = Test_support.contains
end

let x = Term.var "x"
let y = Term.var "y"
let z = Term.var "z"
let c1 = Term.int 1
let c2 = Term.int 2

(* ------------------------------------------------------------------ *)
(* Terms and bindings *)

let test_term_vars () =
  Alcotest.(check (list string)) "dedup ordered" [ "x"; "y" ]
    (Term.vars [ x; c1; y; x ])

let test_binding () =
  let b = Binding.of_list [ ("x", Value.Int 1) ] in
  Alcotest.(check bool) "find" true (Binding.find "x" b = Some (Value.Int 1));
  Alcotest.(check bool) "extend same ok" true
    (Binding.extend "x" (Value.Int 1) b <> None);
  Alcotest.(check bool) "extend conflict" true
    (Binding.extend "x" (Value.Int 2) b = None);
  let b2 = Binding.of_list [ ("y", Value.Int 3) ] in
  (match Binding.merge b b2 with
  | Some m -> Alcotest.(check int) "merged" 2 (Binding.cardinal m)
  | None -> Alcotest.fail "merge failed");
  Alcotest.(check bool) "merge conflict" true
    (Binding.merge b (Binding.of_list [ ("x", Value.Int 9) ]) = None);
  Alcotest.(check int) "image" 1
    (Value.Set.cardinal (Binding.image b [ "x"; "zzz" ]))

(* ------------------------------------------------------------------ *)
(* Atoms *)

let test_atom_matches () =
  let a = Atom.make "r" [ x; y; x; c1 ] in
  (* consistent: repeated var equal, constant matches *)
  (match Atom.matches a (Tuple.of_ints [ 5; 6; 5; 1 ]) with
  | Some b ->
      Alcotest.(check bool) "x" true (Binding.find "x" b = Some (Value.Int 5));
      Alcotest.(check bool) "y" true (Binding.find "y" b = Some (Value.Int 6))
  | None -> Alcotest.fail "expected match");
  Alcotest.(check bool) "repeated var mismatch" true
    (Atom.matches a (Tuple.of_ints [ 5; 6; 7; 1 ]) = None);
  Alcotest.(check bool) "constant mismatch" true
    (Atom.matches a (Tuple.of_ints [ 5; 6; 5; 2 ]) = None);
  Alcotest.(check bool) "arity mismatch" true
    (Atom.matches a (Tuple.of_ints [ 5; 6; 5 ]) = None)

let test_atom_substitute () =
  let a = Atom.make "r" [ x; y ] in
  let b = Binding.of_list [ ("x", Value.Int 7) ] in
  let a' = Atom.substitute b a in
  Alcotest.(check string) "grounded" "r(7, y)" (Atom.to_string a')

(* ------------------------------------------------------------------ *)
(* Constraints *)

let test_constr () =
  let b = Binding.of_list [ ("x", Value.Int 1); ("y", Value.Int 2) ] in
  Alcotest.(check bool) "neq" true (Constr.holds b (Constr.neq x y));
  Alcotest.(check bool) "lt" true (Constr.holds b (Constr.lt x y));
  Alcotest.(check bool) "le" true (Constr.holds b (Constr.le x y));
  Alcotest.(check bool) "not lt" false (Constr.holds b (Constr.lt y x));
  Alcotest.(check bool) "var const" false (Constr.holds b (Constr.neq x c1));
  Alcotest.(check bool) "ground" true (Constr.holds Binding.empty (Constr.lt c1 c2));
  Alcotest.check_raises "unbound" (Invalid_argument "Constr.holds: unbound variable z")
    (fun () -> ignore (Constr.holds b (Constr.neq x z)))

(* ------------------------------------------------------------------ *)
(* Conjunctive queries *)

let test_cq_safety () =
  Alcotest.(check bool) "head var must be in body" true
    (try
       ignore (Cq.make ~head:[ x ] [ Atom.make "r" [ y ] ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "constraint var must be in body" true
    (try
       ignore
         (Cq.make ~head:[] ~constraints:[ Constr.neq x z ]
            [ Atom.make "r" [ x ] ]);
       false
     with Invalid_argument _ -> true)

let test_cq_measures () =
  let q =
    Cq.make ~head:[ x ]
      ~constraints:[ Constr.neq x y ]
      [ Atom.make "r" [ x; y ]; Atom.make "s" [ y; z ] ]
  in
  Alcotest.(check int) "v" 3 (Cq.num_vars q);
  Alcotest.(check (list string)) "vars" [ "x"; "y"; "z" ] (Cq.vars q);
  Alcotest.(check int) "q size" (2 + 3 + 3 + 3) (Cq.size q);
  Alcotest.(check bool) "not boolean" false (Cq.is_boolean q);
  Alcotest.(check bool) "neq only" true (Cq.neq_only q)

let test_close_with_tuple () =
  let q = Cq.make ~head:[ x; y; x ] [ Atom.make "r" [ x; y ] ] in
  (match Cq.close_with_tuple q (Tuple.of_ints [ 1; 2; 1 ]) with
  | Some closed ->
      Alcotest.(check bool) "boolean" true (Cq.is_boolean closed);
      Alcotest.(check string) "substituted" "ans() :- r(1, 2)"
        (Cq.to_string closed)
  | None -> Alcotest.fail "expected close");
  Alcotest.(check bool) "repeated head var conflict" true
    (Cq.close_with_tuple q (Tuple.of_ints [ 1; 2; 3 ]) = None);
  let qc = Cq.make ~head:[ c1 ] [ Atom.make "r" [ x ] ] in
  Alcotest.(check bool) "head const mismatch" true
    (Cq.close_with_tuple qc (Tuple.of_ints [ 2 ]) = None);
  Alcotest.(check bool) "head const match" true
    (Cq.close_with_tuple qc (Tuple.of_ints [ 1 ]) <> None)

let test_cq_rename () =
  let q = Cq.make ~head:[ x ] [ Atom.make "r" [ x; y ] ] in
  let q' = Cq.rename (fun v -> v ^ "_0") q in
  Alcotest.(check (list string)) "renamed" [ "x_0"; "y_0" ] (Cq.vars q')

let test_cq_alpha_normalize () =
  (* variables are renamed V0, V1, ... in first-occurrence order, so any
     two alpha-equivalent queries normalize — and cache-key — identically *)
  let q1 = Parser.parse_cq "ans(X, Y) :- e(X, Z), e(Z, Y), X != Y." in
  let q2 = Parser.parse_cq "ans(Foo, Bar) :- e(Foo, Mid), e(Mid, Bar), Foo != Bar." in
  Alcotest.(check string) "normal form" "ans(V0, V2) :- e(V0, V1), e(V1, V2), V0 != V2"
    (Cq.to_string (Cq.alpha_normalize q1));
  Alcotest.(check string) "cache key agrees" (Cq.cache_key q1) (Cq.cache_key q2);
  (* constants are untouched *)
  let q3 = Parser.parse_cq "ans(X) :- e(X, 3), X != alice." in
  Alcotest.(check string) "constants preserved" "ans(V0) :- e(V0, 3), V0 != alice"
    (Cq.to_string (Cq.alpha_normalize q3));
  (* structurally different queries keep distinct keys *)
  let q4 = Parser.parse_cq "ans(X, Y) :- e(Y, Z), e(Z, X), X != Y." in
  Alcotest.(check bool) "different structure, different key" false
    (Cq.cache_key q1 = Cq.cache_key q4)

(* ------------------------------------------------------------------ *)
(* First-order formulas *)

let test_fo_vars () =
  let f = Fo.exists [ "x" ] (Fo.conj [ Fo.atom "r" [ x; y ]; Fo.neg (Fo.atom "s" [ x ]) ]) in
  Alcotest.(check (list string)) "free" [ "y" ] (Fo.free_vars f);
  Alcotest.(check int) "all" 2 (Fo.num_vars f);
  Alcotest.(check bool) "not sentence" false (Fo.is_sentence f);
  Alcotest.(check bool) "not positive" false (Fo.is_positive f)

let test_fo_variable_reuse_counts_once () =
  (* The subtlety of the parameter v: a reused quantified name counts once. *)
  let f =
    Fo.conj
      [
        Fo.exists [ "x" ] (Fo.atom "r" [ x ]);
        Fo.exists [ "x" ] (Fo.atom "s" [ x ]);
      ]
  in
  Alcotest.(check int) "v = 1" 1 (Fo.num_vars f);
  (* ... and prenexing renames apart, increasing v: *)
  let prefix, _ = Fo.prenex f in
  Alcotest.(check int) "prenex has 2 quantifiers" 2 (List.length prefix)

let test_nnf () =
  let f = Fo.neg (Fo.conj [ Fo.atom "r" [ x ]; Fo.neg (Fo.atom "s" [ x ]) ]) in
  let n = Fo.nnf f in
  Alcotest.(check string) "pushed" "(!r(x) | s(x))" (Fo.to_string n)

let test_prenex () =
  let f =
    Fo.conj
      [
        Fo.exists [ "x" ] (Fo.atom "r" [ x ]);
        Fo.neg (Fo.exists [ "y" ] (Fo.atom "s" [ y ]));
      ]
  in
  let prefix, matrix = Fo.prenex f in
  Alcotest.(check int) "two quantifiers" 2 (List.length prefix);
  Alcotest.(check bool) "one forall" true
    (List.exists (fun (q, _) -> q = Fo.Q_forall) prefix);
  (* matrix must be quantifier-free *)
  let rec qfree = function
    | Fo.Exists _ | Fo.Forall _ -> false
    | Fo.Not g -> qfree g
    | Fo.And gs | Fo.Or gs -> List.for_all qfree gs
    | Fo.True | Fo.False | Fo.Rel _ | Fo.Eq _ -> true
  in
  Alcotest.(check bool) "matrix qfree" true (qfree matrix)

let test_positive_to_cqs () =
  let f =
    Fo.exists [ "x" ]
      (Fo.disj [ Fo.atom "r" [ x; c1 ]; Fo.conj [ Fo.atom "s" [ x ]; Fo.atom "t" [ x ] ] ])
  in
  let cqs = Fo.positive_to_cqs f in
  Alcotest.(check int) "two disjuncts" 2 (List.length cqs);
  List.iter (fun q -> Alcotest.(check bool) "boolean" true (Cq.is_boolean q)) cqs

let test_positive_to_cqs_equalities () =
  (* x = 1 in a disjunct gets substituted away *)
  let f = Fo.exists [ "x" ] (Fo.conj [ Fo.atom "r" [ x ]; Fo.eq x c1 ]) in
  (match Fo.positive_to_cqs f with
  | [ q ] -> Alcotest.(check string) "substituted" "ans() :- r(1)" (Cq.to_string q)
  | other -> Alcotest.fail (Printf.sprintf "expected 1 cq, got %d" (List.length other)));
  (* contradictory constants drop the disjunct *)
  let contradiction = Fo.conj [ Fo.atom "r" [ c1 ]; Fo.eq c1 c2 ] in
  Alcotest.(check int) "dropped" 0 (List.length (Fo.positive_to_cqs contradiction))

let test_fo_guards () =
  Alcotest.(check bool) "reject non-positive" true
    (try ignore (Fo.positive_to_cqs (Fo.neg Fo.True)); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "reject open" true
    (try ignore (Fo.positive_to_cqs (Fo.atom "r" [ x ])); false
     with Invalid_argument _ -> true)

let test_of_boolean_cq () =
  let q =
    Cq.make ~head:[] ~constraints:[ Constr.neq x y ]
      [ Atom.make "r" [ x; y ] ]
  in
  let f = Fo.of_boolean_cq q in
  Alcotest.(check bool) "sentence" true (Fo.is_sentence f)

(* ------------------------------------------------------------------ *)
(* Ineq formulas *)

let test_ineq_formula () =
  let f =
    Ineq_formula.disj
      [
        Ineq_formula.atom (Constr.neq x y);
        Ineq_formula.conj
          [ Ineq_formula.atom (Constr.neq x c1); Ineq_formula.atom (Constr.neq y c2) ];
      ]
  in
  Alcotest.(check (list string)) "vars" [ "x"; "y" ] (Ineq_formula.vars f);
  Alcotest.(check int) "consts" 2 (List.length (Ineq_formula.constants f));
  Alcotest.(check bool) "neq only" true (Ineq_formula.neq_only f);
  let b = Binding.of_list [ ("x", Value.Int 1); ("y", Value.Int 1) ] in
  (* x = y, so first disjunct false; x = 1 so second false *)
  Alcotest.(check bool) "holds" false (Ineq_formula.holds b f);
  let b2 = Binding.of_list [ ("x", Value.Int 3); ("y", Value.Int 1) ] in
  Alcotest.(check bool) "holds2" true (Ineq_formula.holds b2 f)

(* ------------------------------------------------------------------ *)
(* Datalog rules and programs *)

let test_rule () =
  let r = Rule.make (Atom.make "p" [ x ]) [ Atom.make "e" [ x; y ] ] in
  Alcotest.(check int) "vars" 2 (Rule.num_vars r);
  Alcotest.(check bool) "not fact" false (Rule.is_fact r);
  Alcotest.(check bool) "range restriction" true
    (try ignore (Rule.make (Atom.make "p" [ z ]) [ Atom.make "e" [ x; y ] ]); false
     with Invalid_argument _ -> true)

let test_program () =
  let p =
    Program.make
      [
        Rule.make (Atom.make "tc" [ x; y ]) [ Atom.make "e" [ x; y ] ];
        Rule.make (Atom.make "tc" [ x; z ])
          [ Atom.make "e" [ x; y ]; Atom.make "tc" [ y; z ] ];
      ]
      ~goal:"tc"
  in
  Alcotest.(check (list string)) "idb" [ "tc" ] (Program.idb_predicates p);
  Alcotest.(check (list string)) "edb" [ "e" ] (Program.edb_predicates p);
  Alcotest.(check int) "arity" 2 (Program.arity p "tc");
  Alcotest.(check int) "max idb arity" 2 (Program.max_idb_arity p);
  Alcotest.(check bool) "arity consistency" true
    (try
       ignore
         (Program.make
            [ Rule.make (Atom.make "p" [ x ]) [ Atom.make "e" [ x; x ] ];
              Rule.make (Atom.make "p" [ x; y ]) [ Atom.make "e" [ x; y ] ] ]
            ~goal:"p");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "goal must be idb" true
    (try
       ignore
         (Program.make
            [ Rule.make (Atom.make "p" [ x ]) [ Atom.make "e" [ x; x ] ] ]
            ~goal:"e");
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parse_cq () =
  let q = Parser.parse_cq "ans(X, Y) :- e(X, Z), e(Z, Y), X != Y, Z < 3." in
  Alcotest.(check int) "atoms" 2 (List.length q.Cq.body);
  Alcotest.(check int) "constraints" 2 (List.length q.Cq.constraints);
  Alcotest.(check (list string)) "head vars" [ "X"; "Y" ] (Cq.head_vars q);
  Alcotest.(check int) "vars" 3 (Cq.num_vars q)

let test_parse_constants () =
  let q = Parser.parse_cq "ans(X) :- r(X, 7, foo, \"bar baz\")." in
  match (List.hd q.Cq.body).Atom.args with
  | [ _; Term.Const (Value.Int 7); Term.Const (Value.Str "foo");
      Term.Const (Value.Str "bar baz") ] -> ()
  | _ -> Alcotest.fail "wrong constants"

let test_parse_boolean_head () =
  let q = Parser.parse_cq "goal :- e(X, X)." in
  Alcotest.(check bool) "boolean" true (Cq.is_boolean q);
  Alcotest.(check string) "name" "goal" q.Cq.name

let test_parse_fo () =
  let f = Parser.parse_fo "exists X Y. (e(X, Y) & !(X = Y))" in
  Alcotest.(check bool) "sentence" true (Fo.is_sentence f);
  let g = Parser.parse_fo "forall X. (e(X, X) -> false)" in
  Alcotest.(check bool) "forall parsed" true
    (match g with Fo.Forall _ -> true | _ -> false);
  let h = Parser.parse_fo "X != Y" in
  Alcotest.(check bool) "neq sugar" true
    (match h with Fo.Not (Fo.Eq _) -> true | _ -> false)

let test_parse_precedence () =
  (* & binds tighter than | *)
  let f = Parser.parse_fo "r(X) | s(X) & t(X)" in
  (match f with
  | Fo.Or [ Fo.Rel _; Fo.And _ ] -> ()
  | _ -> Alcotest.fail (Fo.to_string f));
  (* exists extends to the right *)
  let g = Parser.parse_fo "exists X. r(X) & s(X)" in
  match g with
  | Fo.Exists (_, Fo.And _) -> ()
  | _ -> Alcotest.fail (Fo.to_string g)

let test_parse_facts () =
  let db = Parser.parse_facts "% comment\ne(1, 2). e(2, 3).\nname(1, alice)." in
  let module Database = Paradb_relational.Database in
  Alcotest.(check int) "relations" 2 (List.length (Database.names db));
  Alcotest.(check int) "e rows" 2
    (Paradb_relational.Relation.cardinality (Database.find db "e"));
  (* rows keep file order, as the streaming loader's do, so a written
     fact file (a fuzz case file) reads back row for row *)
  let text = "e(3, 1).\ne(1, 2).\ne(2, 2).\n" in
  Alcotest.(check string) "file order" text
    (Fact_format.to_string (Parser.parse_facts text));
  Alcotest.(check bool) "mixed arity rejected" true
    (try ignore (Parser.parse_facts "e(1). e(1, 2)."); false
     with Parser.Parse_error _ -> true);
  Alcotest.(check bool) "vars rejected" true
    (try ignore (Parser.parse_facts "e(X)."); false
     with Parser.Parse_error _ -> true)

let test_parse_program () =
  let p =
    Parser.parse_program
      "tc(X, Y) :- e(X, Y). tc(X, Z) :- e(X, Y), tc(Y, Z)." ~goal:"tc"
  in
  Alcotest.(check int) "rules" 2 (List.length p.Program.rules)

let test_parse_error_positions () =
  (try
     ignore (Parser.parse_cq "ans(X) :- e(X,\n  Y) e(Y).");
     Alcotest.fail "expected parse error"
   with Parser.Parse_error msg ->
     Alcotest.(check bool) "mentions line 2" true
       (Astring_free.contains msg "line 2"));
  try
    ignore (Parser.parse_fo "exists X. (e(X, X) &");
    Alcotest.fail "expected parse error"
  with Parser.Parse_error msg ->
    Alcotest.(check bool) "mentions a position" true
      (Astring_free.contains msg "line 1")

let test_parse_errors () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true
        (try ignore (Parser.parse_cq s); false
         with Parser.Parse_error _ | Invalid_argument _ -> true))
    [ "ans(X)"; "ans(X) :- e(X,"; "ans(X) :- e(X, Y) e"; "ans(X) :- X != " ]

let test_parse_malformed_atoms () =
  (* syntactically broken atoms must raise [Parse_error], never produce
     a silently different query *)
  List.iter
    (fun s ->
      Alcotest.(check bool) ("malformed " ^ s) true
        (try ignore (Parser.parse_cq s); false
         with Parser.Parse_error _ -> true))
    [
      "ans(X) :- e(X Y).";        (* missing comma *)
      "ans(X) :- e(X,, Y).";      (* doubled comma *)
      "ans(X) :- e(X, Y)), e(Y, Z)."; (* stray close paren *)
      "ans(X) :- (X, Y).";        (* atom with no relation name *)
      "ans(X) :- e(X, Y), .";     (* trailing comma before period *)
      "ans(X) :- e(X, !Y).";      (* bad token inside an atom *)
    ]

let test_parse_unbound_head_vars () =
  (* Safety violations surface as [Invalid_argument] from [Cq.make]:
     every head and constraint variable must occur in a relational
     atom. *)
  List.iter
    (fun s ->
      Alcotest.(check bool) ("unsafe " ^ s) true
        (try ignore (Parser.parse_cq s); false
         with Invalid_argument _ -> true))
    [
      "ans(Z) :- e(X, Y).";             (* head var not in body *)
      "ans(X, Z) :- e(X, Y).";          (* one bound, one not *)
      "ans(X) :- e(X, Y), X != Z.";     (* constraint var unbound *)
      "ans(X) :- e(X, Y), Z < 3.";      (* comparison var unbound *)
    ];
  (* and the same names are fine once the body binds them *)
  let q = Parser.parse_cq "ans(Z) :- e(X, Y), e(Y, Z), X != Z." in
  Alcotest.(check int) "three vars" 3 (Cq.num_vars q)

(* ------------------------------------------------------------------ *)
(* Fact format *)

let test_fact_format () =
  let db =
    Parser.parse_facts "e(1, 2). name(1, alice). quoted(1, \"two words\")."
  in
  let back = Fact_format.roundtrip db in
  let module Database = Paradb_relational.Database in
  let module Relation = Paradb_relational.Relation in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " preserved") true
        (Relation.set_equal (Database.find db name) (Database.find back name)))
    (Database.names db);
  (* numeric strings must round-trip as strings, hence get quoted *)
  Alcotest.(check string) "digit string quoted" "\"42\""
    (Fact_format.value_to_syntax (Value.Str "42"));
  Alcotest.(check string) "int bare" "42"
    (Fact_format.value_to_syntax (Value.Int 42));
  Alcotest.(check string) "keyword quoted" "\"exists\""
    (Fact_format.value_to_syntax (Value.Str "exists"))

(* Printed queries carry string constants in source syntax, so a query
   shipped as text (the cluster's exchange reducers) means the same
   query at the other end. *)
let test_cq_string_constants_roundtrip () =
  let q =
    Cq.make ~name:"gx"
      ~constraints:
        [ Constr.make Constr.Neq (Term.Var "Y") (Term.Const (Value.Str "7")) ]
      ~head:[ Term.Var "X"; Term.Const (Value.Str "Bob") ]
      [
        Atom.make "e"
          [ Term.Var "X"; Term.Const (Value.Str "42"); Term.Var "Y" ];
        Atom.make "name"
          [ Term.Var "X"; Term.Const (Value.Str "Bob") ];
        Atom.make "tag"
          [ Term.Var "Y"; Term.Const (Value.Str "two words");
            Term.Const (Value.Str "plain"); Term.Const (Value.Int 7) ];
      ]
  in
  Alcotest.(check bool)
    ("parse (to_string q) = q: " ^ Cq.to_string q)
    true
    (Cq.equal q (Parser.parse_cq (Cq.to_string q)));
  Alcotest.(check bool) "Str \"7\" and Int 7 keep distinct cache keys" false
    (Cq.cache_key q
    = Cq.cache_key
        (Cq.make ~name:"gx" ~head:[ Term.Var "X"; Term.Const (Value.Str "Bob") ]
           ~constraints:
             [ Constr.make Constr.Neq (Term.Var "Y") (Term.Const (Value.Int 7)) ]
           q.Cq.body))

(* print-parse roundtrip on random tree queries *)
let qcheck_tests =
  [
    Qgen.seeded_property ~name:"cq print/parse roundtrip" ~count:100
      (fun rng ->
        let q = Qgen.random_tree_cq rng ~max_atoms:4 ~max_arity:3 ~neq_tries:3 ~domain_size:5 in
        (* our variables are lowercase; uppercase them for the parser *)
        let q = Cq.rename String.capitalize_ascii q in
        let q' = Parser.parse_cq (Cq.to_string q) in
        Cq.equal q q');
    (* print∘parse is the identity up to variable renaming, and the
       alpha-normal form is a fixpoint of the parser *)
    Qgen.seeded_property ~name:"parse/print identity up to renaming" ~count:100
      (fun rng ->
        let q = Qgen.random_tree_cq rng ~max_atoms:4 ~max_arity:3 ~neq_tries:3 ~domain_size:5 in
        let q = Cq.rename String.capitalize_ascii q in
        let q' = Parser.parse_cq (Cq.to_string q) in
        (* a systematic injective renaming must not change the normal form *)
        let scrambled = Cq.rename (fun v -> "Z" ^ v ^ "q") q in
        let norm = Cq.alpha_normalize q in
        Cq.equal (Cq.alpha_normalize q') norm
        && Cq.equal (Cq.alpha_normalize scrambled) norm
        && Cq.cache_key scrambled = Cq.cache_key q
        && Cq.equal (Parser.parse_cq (Cq.to_string norm)) norm);
    QCheck.Test.make ~name:"parser never crashes on garbage" ~count:300
      QCheck.(string_of_size (Gen.int_range 0 40))
      (fun s ->
        let safe parse =
          try
            ignore (parse s);
            true
          with
          | Parser.Parse_error _ | Invalid_argument _ -> true
          | _ -> false
        in
        safe Parser.parse_cq && safe Parser.parse_fo && safe Parser.parse_facts);
    Qgen.seeded_property ~name:"fact-format roundtrip" ~count:60 (fun rng ->
        let db =
          Qgen.random_database rng ~schema:[ ("r1", 1); ("r2", 2) ]
            ~domain_size:5 ~tuples:10
        in
        let back = Fact_format.roundtrip db in
        let module Database = Paradb_relational.Database in
        let module Relation = Paradb_relational.Relation in
        List.for_all
          (fun name ->
            Relation.set_equal (Database.find db name) (Database.find back name))
          (Database.names db));
    Qgen.seeded_property ~name:"prenex preserves truth" ~count:60 (fun rng ->
        let db =
          Qgen.random_database rng ~schema:[ ("r1", 1); ("r2", 2) ]
            ~domain_size:3 ~tuples:6
        in
        let f =
          Qgen.random_positive_sentence rng
            ~relations:[ ("r1", 1); ("r2", 2) ]
            ~domain_size:3 ~depth:3
        in
        let prefix, matrix = Fo.prenex f in
        let pf =
          List.fold_right
            (fun (q, v) acc ->
              match q with
              | Fo.Q_exists -> Fo.exists [ v ] acc
              | Fo.Q_forall -> Fo.forall [ v ] acc)
            prefix matrix
        in
        Paradb_eval.Fo_naive.sentence_holds db f
        = Paradb_eval.Fo_naive.sentence_holds db pf);
    Qgen.seeded_property ~name:"positive_to_cqs preserves truth" ~count:60
      (fun rng ->
        let db =
          Qgen.random_database rng ~schema:[ ("r1", 1); ("r2", 2) ]
            ~domain_size:3 ~tuples:6
        in
        let f =
          Qgen.random_positive_sentence rng
            ~relations:[ ("r1", 1); ("r2", 2) ]
            ~domain_size:3 ~depth:3
        in
        let cqs = Fo.positive_to_cqs f in
        let union_sat =
          List.exists (fun q -> Paradb_eval.Cq_naive.is_satisfiable db q) cqs
        in
        union_sat = Paradb_eval.Fo_naive.sentence_holds db f);
  ]

let () =
  Alcotest.run "query"
    [
      ( "terms",
        [
          Alcotest.test_case "vars" `Quick test_term_vars;
          Alcotest.test_case "bindings" `Quick test_binding;
        ] );
      ( "atoms",
        [
          Alcotest.test_case "matches" `Quick test_atom_matches;
          Alcotest.test_case "substitute" `Quick test_atom_substitute;
        ] );
      ("constraints", [ Alcotest.test_case "holds" `Quick test_constr ]);
      ( "cq",
        [
          Alcotest.test_case "safety" `Quick test_cq_safety;
          Alcotest.test_case "measures" `Quick test_cq_measures;
          Alcotest.test_case "close with tuple" `Quick test_close_with_tuple;
          Alcotest.test_case "rename" `Quick test_cq_rename;
          Alcotest.test_case "alpha normalize" `Quick test_cq_alpha_normalize;
        ] );
      ( "fo",
        [
          Alcotest.test_case "vars" `Quick test_fo_vars;
          Alcotest.test_case "variable reuse" `Quick test_fo_variable_reuse_counts_once;
          Alcotest.test_case "nnf" `Quick test_nnf;
          Alcotest.test_case "prenex" `Quick test_prenex;
          Alcotest.test_case "positive to cqs" `Quick test_positive_to_cqs;
          Alcotest.test_case "equality elimination" `Quick test_positive_to_cqs_equalities;
          Alcotest.test_case "guards" `Quick test_fo_guards;
          Alcotest.test_case "of boolean cq" `Quick test_of_boolean_cq;
        ] );
      ("ineq formula", [ Alcotest.test_case "eval" `Quick test_ineq_formula ]);
      ( "datalog ast",
        [
          Alcotest.test_case "rule" `Quick test_rule;
          Alcotest.test_case "program" `Quick test_program;
        ] );
      ( "parser",
        [
          Alcotest.test_case "cq" `Quick test_parse_cq;
          Alcotest.test_case "constants" `Quick test_parse_constants;
          Alcotest.test_case "boolean head" `Quick test_parse_boolean_head;
          Alcotest.test_case "fo" `Quick test_parse_fo;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "facts" `Quick test_parse_facts;
          Alcotest.test_case "programs" `Quick test_parse_program;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "malformed atoms" `Quick test_parse_malformed_atoms;
          Alcotest.test_case "unbound head vars" `Quick
            test_parse_unbound_head_vars;
          Alcotest.test_case "error positions" `Quick test_parse_error_positions;
        ] );
      ("fact format", [ Alcotest.test_case "roundtrip" `Quick test_fact_format ]);
      ( "cq printing",
        [
          Alcotest.test_case "string constants round-trip" `Quick
            test_cq_string_constants_roundtrip;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
