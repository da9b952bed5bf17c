module Database = Paradb_relational.Database
module Relation = Paradb_relational.Relation
module Dictionary = Paradb_relational.Dictionary
module Value = Paradb_relational.Value
module Generators = Paradb_workload.Generators
open Paradb_query

type shape = Query of Cq.t | Sentence of Fo.t

type instance = {
  seed : int;
  index : int;
  label : string;
  db : Database.t;
  shape : shape;
}

(* The classes cycled by case index; [order-mixed] takes every tenth
   case, the join-tree classes take turns at the case five before it,
   and [disconnected] takes every twentieth case (index 12 mod 20), so
   every other index keeps the class (and instance) it has in this
   nine-class cycle. *)
let cycled =
  [
    "acyclic";
    "acyclic-neq";
    "chain-neq";
    "cyclic";
    "acyclic-cmp";
    "acyclic-mixed";
    "sentence";
    "boolean-neq";
    "anchored";
  ]

let join_trees = [ "join-tree"; "join-tree-neq" ]

let classes = cycled @ ("order-mixed" :: join_trees) @ [ "disconnected" ]

let label_of index =
  match index mod 10 with
  | 9 -> "order-mixed"
  | 4 -> List.nth join_trees (index / 10 mod 2)
  | 2 when index mod 20 = 12 -> "disconnected"
  | _ -> List.nth cycled (index mod List.length cycled)

(* Per-case RNG: independent of every other case, reproducible from
   (seed, index) alone.  The leading literal keeps the stream disjoint
   from other [Random.State.make [| seed |]] users. *)
let case_rng ~seed ~index = Random.State.make [| 0x5eed; seed; index |]

let booleanize q =
  Cq.make ~name:q.Cq.name ~constraints:q.Cq.constraints ~head:[] q.Cq.body

(* Chain query with far-apart [<>] pairs — the I1-rich instances the
   Theorem-2 engine's color separation actually works for. *)
let chain_instance rng ~max_tuples =
  let length = 2 + Random.State.int rng 3 in
  let candidates = [ (0, length); (1, length); (0, length - 1) ] in
  let neq =
    List.filter
      (fun (i, j) -> i < j && Random.State.bool rng)
      candidates
  in
  let neq = if neq = [] then [ (0, length) ] else neq in
  let nodes = 2 + Random.State.int rng 5 in
  let edges = 1 + Random.State.int rng max_tuples in
  let db = Generators.edge_database rng ~nodes ~edges in
  (db, Generators.chain_query ~length ~neq)

(* Anchored queries: the shapes the compiler materializes by probing a
   base index instead of scanning.  The first atom is pinned by a
   constant in argument 0; later atoms join on at most one earlier
   variable (so the acyclic engines apply) and mix in constants — one in
   eight absent from the data — ground atoms, and constants beside a
   repeated variable, as in [r3(2, V0, V0)]. *)
let anchored_cq rng ~max_atoms ~domain_size =
  let const () =
    if Random.State.int rng 8 = 0 then
      Term.int (domain_size + Random.State.int rng 3)
    else Term.int (Random.State.int rng domain_size)
  in
  let vars = ref [] in
  let new_var () =
    let v = Printf.sprintf "V%d" (List.length !vars) in
    vars := v :: !vars;
    v
  in
  let old_var () = List.nth !vars (Random.State.int rng (List.length !vars)) in
  let atom i =
    let arity = 1 + Random.State.int rng 3 in
    let name = Printf.sprintf "r%d" arity in
    if i > 0 && Random.State.int rng 6 = 0 then
      Atom.make name (List.init arity (fun _ -> const ()))
    else begin
      (* [local]: the variable a repeat refers to; [joined]: this atom
         already shares an earlier variable *)
      let local = ref None and joined = ref false in
      let var_arg () =
        match Random.State.int rng 3 with
        | 0 when !vars <> [] && not !joined ->
            joined := true;
            old_var ()
        | _ -> new_var ()
      in
      let bind v =
        if !local = None then local := Some v;
        Term.var v
      in
      let first =
        if i = 0 || Random.State.int rng 3 = 0 then const () else bind (var_arg ())
      in
      let rest =
        List.init (arity - 1) (fun _ ->
            match (Random.State.int rng 3, !local) with
            | 0, _ -> const ()
            | 1, Some v -> Term.var v
            | _ -> bind (var_arg ()))
      in
      Atom.make name (first :: rest)
    end
  in
  let body = List.init (1 + Random.State.int rng max_atoms) atom in
  let head = List.filter (fun _ -> Random.State.bool rng) (List.rev !vars) in
  Cq.make ~head:(List.map Term.var head) body

(* [disconnected]: two or three variable-disjoint components, so the
   compiled path plans a join forest.  Each component is one atom or two
   joined on a variable, over variables of its own; half are anchored
   by a constant in argument 0, one in six by a constant absent from
   the data, which leaves that component empty.  A component takes a
   second atom only while the body has fewer than [max_atoms], and the
   body keeps to [max_vars] variables (a constant fills a place past
   it), so the brute-force references stay cheap.  The head takes
   variables from one component, from several, or from none, and now
   and then a constant or a repeated variable. *)
let disconnected_cq rng ~max_atoms ~max_vars ~domain_size =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let nvars = ref 0 and natoms = ref 0 in
  let term k () =
    if !nvars >= max_vars then Term.int (Random.State.int rng domain_size)
    else begin
      incr nvars;
      Term.var (Printf.sprintf "C%dV%d" k (!nvars - 1))
    end
  in
  let atom first k =
    incr natoms;
    let arity = 1 + Random.State.int rng 3 in
    Atom.make (Printf.sprintf "r%d" arity)
      (first :: List.init (arity - 1) (fun _ -> term k ()))
  in
  let component k =
    let first =
      match Random.State.int rng 6 with
      | 0 -> Term.int (domain_size + 1)
      | 1 | 2 -> Term.int (Random.State.int rng domain_size)
      | _ -> term k ()
    in
    let a0 = atom first k in
    match Atom.vars a0 with
    | _ :: _ as vs when !natoms < max_atoms && Random.State.bool rng ->
        [ a0; atom (Term.var (pick vs)) k ]
    | _ -> [ a0 ]
  in
  let components = List.init (2 + Random.State.int rng 2) component in
  let vars = List.map (List.concat_map Atom.vars) components in
  let some_of vs = List.filter (fun _ -> Random.State.bool rng) vs in
  let head =
    match Random.State.int rng 3 with
    | 0 -> (
        (* one component's variables *)
        match List.filter (( <> ) []) vars with
        | [] -> []
        | vss -> (
            let vs = pick vss in
            match some_of vs with [] -> [ pick vs ] | h -> h))
    | 1 -> List.concat_map some_of vars
    | _ -> []
  in
  let head = List.map Term.var head in
  let head =
    match (head, Random.State.int rng 4) with
    | x :: _, 0 -> head @ [ x ]
    | _, 1 -> Term.int (Random.State.int rng domain_size) :: head
    | _ -> head
  in
  Cq.make ~head (List.concat components)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [join-tree] and [join-tree-neq]: acyclic by construction and free of
   constraints, or [!=]-only, so the interpreted Yannakakis and fpt
   engines take every case.  Each atom after the first hangs off a
   random earlier atom and shares a nonempty subset of its variables —
   multi-variable join keys, which [random_tree_cq] (one shared
   variable per atom) never builds — beside fresh variables, constants
   and repeats of its own variables.  A shared variable's atoms are
   then a connected subtree, so the atoms form a join tree. *)
let join_tree_cq rng ~max_atoms ~domain_size ~neq_tries =
  let fresh = ref 0 in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let atom parent =
    let shared =
      match Option.map Atom.vars parent with
      | None | Some [] -> []
      | Some (v :: vs) -> v :: List.filter (fun _ -> Random.State.bool rng) vs
    in
    let arity = max (List.length shared) (1 + Random.State.int rng 3) in
    let own = ref [] in
    let extra () =
      match (Random.State.int rng 6, !own) with
      | 0, _ -> Term.int (Random.State.int rng domain_size)
      | 1, (_ :: _ as vs) -> Term.var (pick vs)
      | _ ->
          let v = Printf.sprintf "V%d" !fresh in
          incr fresh;
          own := v :: !own;
          Term.var v
    in
    let args =
      Array.init arity (fun i ->
          match List.nth_opt shared i with
          | Some v -> Term.var v
          | None -> extra ())
    in
    shuffle rng args;
    Atom.make (Printf.sprintf "r%d" arity) (Array.to_list args)
  in
  let rec grow atoms n =
    if n = 0 then List.rev atoms
    else
      let parent = if atoms = [] then None else Some (pick atoms) in
      grow (atom parent :: atoms) (n - 1)
  in
  let atoms = grow [] (1 + Random.State.int rng max_atoms) in
  let vars = List.sort_uniq compare (List.concat_map Atom.vars atoms) in
  let term () =
    if Random.State.bool rng then Term.int (Random.State.int rng domain_size)
    else Term.var (pick vars)
  in
  let constraints =
    if vars = [] then []
    else
      List.init neq_tries (fun _ ->
          let x = Term.var (pick vars) in
          Constr.neq x (term ()))
      |> List.filter (fun c -> c.Constr.lhs <> c.Constr.rhs)
  in
  let head = List.filter (fun _ -> Random.State.bool rng) vars in
  Cq.make ~constraints ~head:(List.map Term.var head) atoms

(* The [order-mixed] value pool: Ints and Strs, some Strs spelled like
   numbers.  Value order puts every Int before every Str. *)
let order_pool =
  Array.append
    (Array.init 11 (fun i -> Value.Int (i - 5)))
    (Array.map
       (fun s -> Value.Str s)
       [| "a"; "b"; "ab"; "ba"; "z"; "x1"; "10"; "-3" |])

(* [order-mixed]: a tree CQ over a mixed Int/Str domain, dense in [<]
   and [<=] between variables and against constants.  The domain is
   interned in shuffled order before any row is built, so dictionary
   codes (first-seen order) disagree with value order — the case the
   compiled checks must see through by ranking.  Constants come from
   the domain (interned, but not always in the rows) or, one in three,
   are a fresh Int beyond the pool or a fresh Str: absent from the
   dictionary too, since comparison constants are never interned. *)
let order_mixed_instance rng ~max_atoms ~domain_size ~tuples =
  let pool = Array.copy order_pool in
  shuffle rng pool;
  let domain = Array.sub pool 0 domain_size in
  Array.iter (fun v -> ignore (Dictionary.intern Dictionary.global v)) domain;
  let to_domain = function
    | Value.Int i when i >= 0 && i < domain_size -> domain.(i)
    | v -> v
  in
  let db =
    Generators.tree_cq_database rng ~max_arity:3 ~domain_size ~tuples
    |> Database.relations
    |> List.map (fun r ->
           Relation.create ~name:(Relation.name r)
             ~schema:(Relation.schema_list r)
             (List.map (Array.map to_domain) (Relation.tuples r)))
    |> Database.of_relations
  in
  let q =
    Generators.random_tree_cq rng ~max_atoms ~max_arity:3 ~neq_tries:0
      ~domain_size
  in
  let term = function Term.Const v -> Term.Const (to_domain v) | t -> t in
  let body =
    List.map (fun a -> Atom.make a.Atom.rel (List.map term a.Atom.args)) q.Cq.body
  in
  let vars = Array.of_list (Cq.vars q) in
  let nv = Array.length vars in
  let const () =
    Term.Const
      (match Random.State.int rng 6 with
       | 0 -> Value.Int (100 + Random.State.int rng 1_000_000)
       | 1 -> Value.Str (Printf.sprintf "m%d" (Random.State.int rng 1_000_000))
       | _ -> domain.(Random.State.int rng domain_size))
  in
  let cmp () =
    let op = if Random.State.bool rng then Constr.lt else Constr.le in
    let x = Term.var vars.(Random.State.int rng nv) in
    match Random.State.int rng 3 with
    | 0 -> op x (Term.var vars.(Random.State.int rng nv))
    | 1 -> op x (const ())
    | _ -> op (const ()) x
  in
  let constraints =
    List.filter
      (fun c -> c.Constr.lhs <> c.Constr.rhs)
      (List.init (1 + Random.State.int rng 3) (fun _ -> cmp ()))
  in
  (db, Cq.make ~constraints ~head:q.Cq.head body)

let instance ~seed ~index ~max_vars ~max_tuples =
  let rng = case_rng ~seed ~index in
  let label = label_of index in
  let max_atoms = max 1 (min 4 (max_vars / 2)) in
  let domain_size = 2 + Random.State.int rng 6 in
  let tuples = 1 + Random.State.int rng (max 1 max_tuples) in
  let tree ?(cmp_tries = 0) ~neq_tries () =
    let q =
      Generators.random_tree_cq ~cmp_tries rng ~max_atoms ~max_arity:3
        ~neq_tries ~domain_size
    in
    let db =
      Generators.tree_cq_database rng ~max_arity:3 ~domain_size ~tuples
    in
    (db, q)
  in
  let db, shape =
    match label with
    | "acyclic" ->
        let db, q = tree ~neq_tries:0 () in
        (db, Query q)
    | "acyclic-neq" ->
        let db, q = tree ~neq_tries:3 () in
        (db, Query q)
    | "chain-neq" ->
        let db, q = chain_instance rng ~max_tuples in
        (db, Query q)
    | "cyclic" ->
        let nodes = 2 + Random.State.int rng 5 in
        let db = Generators.edge_database rng ~nodes ~edges:tuples in
        let q =
          Generators.random_cyclic_cq rng
            ~cycle:(3 + Random.State.int rng 2)
            ~neq:(Random.State.bool rng)
        in
        (db, Query q)
    | "acyclic-cmp" ->
        let db, q = tree ~cmp_tries:2 ~neq_tries:0 () in
        (db, Query q)
    | "acyclic-mixed" ->
        let db, q = tree ~cmp_tries:2 ~neq_tries:2 () in
        (db, Query q)
    | "sentence" ->
        let db =
          Generators.tree_cq_database rng ~max_arity:2 ~domain_size ~tuples
        in
        let f =
          Generators.random_positive_sentence rng
            ~relations:[ ("r1", 1); ("r2", 2) ]
            ~domain_size
            ~depth:(2 + Random.State.int rng 2)
        in
        (db, Sentence f)
    | "order-mixed" ->
        let db, q = order_mixed_instance rng ~max_atoms ~domain_size ~tuples in
        (db, Query q)
    | ("join-tree" | "join-tree-neq") as label ->
        let neq_tries =
          if label = "join-tree" then 0 else 1 + Random.State.int rng 2
        in
        let q = join_tree_cq rng ~max_atoms ~domain_size ~neq_tries in
        let db =
          Generators.tree_cq_database rng ~max_arity:3 ~domain_size ~tuples
        in
        (db, Query q)
    | "disconnected" ->
        let q =
          disconnected_cq rng ~max_atoms ~max_vars:(min 6 max_vars) ~domain_size
        in
        let db =
          Generators.tree_cq_database rng ~max_arity:3 ~domain_size ~tuples
        in
        (db, Query q)
    | "anchored" ->
        let q = anchored_cq rng ~max_atoms ~domain_size in
        let db =
          Generators.tree_cq_database rng ~max_arity:3 ~domain_size ~tuples
        in
        (db, Query q)
    | _ ->
        (* boolean-neq *)
        let db, q = tree ~neq_tries:3 () in
        (db, Query (booleanize q))
  in
  { seed; index; label; db; shape }

let shape_to_string = function
  | Query q -> Cq.to_string q
  | Sentence f -> Fo.to_string f

(* Size of an instance, in the units of the shrink targets. *)
let atoms = function
  | Query q -> List.length q.Cq.body
  | Sentence _ -> 0

let tuple_count inst = Database.size inst.db
