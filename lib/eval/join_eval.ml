module Database = Paradb_relational.Database
module Relation = Paradb_relational.Relation
module Tuple = Paradb_relational.Tuple
module Yannakakis = Paradb_yannakakis.Yannakakis
open Paradb_query

type join_algorithm =
  | Hash_join
  | Sort_merge

(* Apply every not-yet-applied constraint whose variables are all present
   in the relation. *)
let apply_constraints rel pending =
  let present c =
    List.for_all (Relation.has_attr rel) (Constr.vars c)
  in
  let ready, pending = List.partition present pending in
  let rel =
    List.fold_left
      (fun rel c ->
        let value row = function
          | Term.Var x -> row.(Relation.position rel x)
          | Term.Const v -> v
        in
        Relation.select
          (fun row ->
            Constr.eval_op c.Constr.op (value row c.Constr.lhs)
              (value row c.Constr.rhs))
          rel)
      rel ready
  in
  (rel, pending)

let shares_attrs r s = Relation.common_attrs r s <> []

(* Greedy join order: start from the smallest relation; repeatedly join
   the smallest relation sharing an attribute with the accumulated one
   (falling back to a cross product only when forced). *)
let evaluate ?(algorithm = Hash_join) db q =
  let join a b =
    match algorithm with
    | Hash_join -> Relation.natural_join a b
    | Sort_merge -> Relation.sort_merge_join a b
  in
  let answer = Yannakakis.answer q in
  match q.Cq.body with
  | [] ->
      answer
        (if List.for_all (Constr.holds Binding.empty) q.Cq.constraints then
           Yannakakis.head_rows q.Cq.head (Relation.create ~schema:[] [ [||] ])
         else Tuple.Set.empty)
  | body ->
      let rels = List.map (Yannakakis.atom_relation db) body in
      let smallest_first =
        List.sort
          (fun a b -> Int.compare (Relation.cardinality a) (Relation.cardinality b))
          rels
      in
      let acc, rest =
        match smallest_first with
        | first :: rest -> (first, rest)
        | [] -> assert false
      in
      let acc, pending = apply_constraints acc q.Cq.constraints in
      let rec fold acc pending rest =
        match rest with
        | [] -> (acc, pending)
        | _ ->
            let connected, disconnected =
              List.partition (shares_attrs acc) rest
            in
            let pick, others =
              match
                List.sort
                  (fun a b ->
                    Int.compare (Relation.cardinality a) (Relation.cardinality b))
                  (if connected <> [] then connected else disconnected)
              with
              | pick :: others ->
                  ( pick,
                    others
                    @ (if connected <> [] then disconnected else connected) )
              | [] -> assert false
            in
            let acc = join acc pick in
            let acc, pending = apply_constraints acc pending in
            fold acc pending others
      in
      let joined, pending = fold acc pending rest in
      assert (pending = []);
      answer
        (Yannakakis.head_rows q.Cq.head
           (Relation.project (Cq.head_vars q) joined))

let is_satisfiable ?algorithm db q =
  not (Relation.is_empty (evaluate ?algorithm db q))

let decide ?algorithm db q tuple =
  match Cq.close_with_tuple q tuple with
  | None -> false
  | Some closed -> is_satisfiable ?algorithm db closed
