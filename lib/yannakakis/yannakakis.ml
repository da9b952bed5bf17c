module Database = Paradb_relational.Database
module Relation = Paradb_relational.Relation
module Annotated = Paradb_relational.Annotated
module Tuple = Paradb_relational.Tuple
module Join_tree = Paradb_hypergraph.Join_tree
module SS = Paradb_hypergraph.Hypergraph.String_set
module Trace = Paradb_telemetry.Trace
module Metrics = Paradb_telemetry.Metrics
module Budget = Paradb_telemetry.Budget
open Paradb_query

exception Cyclic_query

let m_full_reduce = Metrics.counter "yannakakis.full_reduce"

let atom_relation ?budget ?(filter = fun _ -> true) db atom =
  Budget.poll budget;
  let vars = Atom.vars atom in
  (* Accumulate a plain list: [Relation.create] dedups in its hash store,
     so no ordered-set intermediate is needed. *)
  let rows =
    Relation.fold
      (fun tuple acc ->
        match Atom.matches atom tuple with
        | Some binding when filter binding ->
            Array.of_list
              (List.map
                 (fun x ->
                   match Binding.find x binding with
                   | Some v -> v
                   | None -> assert false)
                 vars)
            :: acc
        | _ -> acc)
      (Database.find db atom.Atom.rel)
      []
  in
  Relation.create ~name:atom.Atom.rel ~schema:vars rows

let answer q rows =
  Relation.of_set ~name:q.Cq.name
    ~schema:(List.mapi (fun i _ -> Printf.sprintf "a%d" i) q.Cq.head)
    rows

let head_rows head proj =
  let cells =
    List.map
      (function
        | Term.Var x -> `Var (Relation.position proj x)
        | Term.Const v -> `Const v)
      head
  in
  Relation.fold
    (fun row acc ->
      Tuple.Set.add
        (Array.of_list
           (List.map (function `Var i -> row.(i) | `Const v -> v) cells))
        acc)
    proj Tuple.Set.empty

let fold_up ?budget tree ~keep ~project ~join rels =
  let acc = Array.copy rels in
  Array.iter
    (fun j ->
      Budget.poll budget;
      let u = tree.Join_tree.parent.(j) in
      if u >= 0 then acc.(u) <- join j u acc.(u) (project (keep j u) acc.(j)))
    tree.Join_tree.bottom_up;
  acc

let project_onto keep r =
  Relation.project
    (List.filter (fun a -> SS.mem a keep) (Relation.schema_list r))
    r

let connectors tree j u =
  SS.inter tree.Join_tree.node_vars.(j) tree.Join_tree.node_vars.(u)

let semijoin_bottom_up ?budget tree rels =
  Trace.with_span "yannakakis.semijoin_bottom_up" @@ fun () ->
  (* Mutation hook: skip the first semijoin of the pass, leaving the
     reduction one edge short — [is_satisfiable] then trusts a root that
     was never filtered against that subtree.  The compiled pipeline's
     probes check every join, so there it only leaves rows unreduced. *)
  let skip =
    ref (if Paradb_telemetry.Mutate.enabled "semijoin_off_by_one" then 1 else 0)
  in
  (* [⋉] reads only the child's connector columns, so the child goes in
     unprojected. *)
  fold_up ?budget tree ~keep:(connectors tree)
    ~project:(fun _ child -> child)
    ~join:(fun _ _ parent child ->
      if !skip > 0 then (decr skip; parent) else Relation.semijoin parent child)
    rels

let semijoin_top_down ?budget tree rels =
  Trace.with_span "yannakakis.semijoin_top_down" @@ fun () ->
  let rels = Array.copy rels in
  Array.iter
    (fun j ->
      Budget.poll budget;
      let u = tree.Join_tree.parent.(j) in
      if u >= 0 then rels.(j) <- Relation.semijoin rels.(j) rels.(u))
    tree.Join_tree.top_down;
  rels

let full_reducer ?budget tree rels =
  Metrics.incr m_full_reduce;
  semijoin_top_down ?budget tree (semijoin_bottom_up ?budget tree rels)

(* What the shared prelude leaves each entry point to finish. *)
type prelude =
  | Empty_body  (** no atoms: the head is all constants and holds *)
  | Empty  (** an atom relation, or the reduced root, is empty *)
  | Reduced of Join_tree.t * Relation.t array

let prelude ?budget ~entry ~reduce db q =
  if Cq.has_constraints q then
    invalid_arg
      (Printf.sprintf
         "Yannakakis.%s: query has constraint atoms; use Paradb_core" entry);
  match q.Cq.body with
  | [] -> Empty_body
  | body -> (
      match Join_tree.of_cq q with
      | None -> raise Cyclic_query
      | Some tree ->
          let rels =
            Array.of_list (List.map (atom_relation ?budget db) body)
          in
          if Array.exists Relation.is_empty rels then Empty
          else
            let rels = reduce ?budget tree rels in
            if Relation.is_empty rels.(tree.Join_tree.root) then Empty
            else Reduced (tree, rels))

let evaluate ?budget db q =
  match prelude ?budget ~entry:"evaluate" ~reduce:full_reducer db q with
  | Empty_body ->
      answer q (head_rows q.Cq.head (Relation.create ~schema:[] [ [||] ]))
  | Empty -> answer q Tuple.Set.empty
  | Reduced (tree, rels) ->
      (* Join-and-project: a child keeps its connectors and the head
         variables of its subtree. *)
      let head_vars = Cq.head_vars q in
      let head_set = SS.of_list head_vars in
      let acc =
        fold_up ?budget tree
          ~keep:(fun j u -> SS.union (connectors tree j u) head_set)
          ~project:project_onto
          ~join:(fun _ _ parent child -> Relation.natural_join parent child)
          rels
      in
      answer q
        (head_rows q.Cq.head
           (Relation.project head_vars acc.(tree.Join_tree.root)))

(* Semiring aggregation by message passing on the join tree.  Each atom
   relation is annotated (with [sr.one], or with [weight] when given),
   then folded bottom-up: a child is ⊕-projected onto its connector with
   the parent and ⊗-joined in; the answer is the ⊕-total at the root.
   The running-intersection property is what makes this correct — a
   child's private variables are shared with nothing above it, so
   ⊕-summing them out at the connector loses no information, and each
   atom's annotation enters the product exactly once.  With [Semiring.nat]
   and unit weights this computes the number of satisfying valuations in
   time polynomial in the reduced relations, where the naive reference
   pays the full valuation tree.

   The Bool full reducer still runs first: dropping rows that join with
   nothing is pure pruning (they contribute ⊕-zero), so the trusted set
   kernel does the cheap filtering and the annotated passes only touch
   what survives. *)
let aggregate ?budget (sr : 'a Paradb_relational.Semiring.t) ?weight db q =
  Trace.with_span "yannakakis.aggregate" @@ fun () ->
  match prelude ?budget ~entry:"aggregate" ~reduce:full_reducer db q with
  | Empty_body -> sr.one
  | Empty -> sr.zero
  | Reduced (tree, rels) ->
      let annotated =
        Array.mapi
          (fun i rel ->
            Annotated.of_relation sr ?weight:(Option.map (fun f -> f i rel) weight)
              rel)
          rels
      in
      let acc =
        fold_up ?budget tree ~keep:(connectors tree)
          ~project:(fun keep a -> Annotated.project sr (SS.elements keep) a)
          ~join:(fun _ _ parent msg -> Annotated.natural_join sr parent msg)
          annotated
      in
      Annotated.total sr acc.(tree.Join_tree.root)

let count ?budget db q = aggregate ?budget Paradb_relational.Semiring.nat db q

(* Emptiness needs only the bottom-up pass: the root is then nonempty
   iff the full join is. *)
let is_satisfiable ?budget db q =
  match
    prelude ?budget ~entry:"is_satisfiable" ~reduce:semijoin_bottom_up db q
  with
  | Empty_body | Reduced _ -> true
  | Empty -> false

let decide ?budget db q tuple =
  match Cq.close_with_tuple q tuple with
  | None -> false
  | Some closed -> is_satisfiable ?budget db closed
