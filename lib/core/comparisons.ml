module Relation = Paradb_relational.Relation
module Value = Paradb_relational.Value
module Digraph = Paradb_graph.Digraph
open Paradb_query

type outcome =
  | Inconsistent
  | Collapsed of Cq.t

let dedup = Paradb_relational.Listx.dedup

let preprocess q =
  let comparisons = Cq.comparison_constraints q in
  (* Nodes: every term occurring in a comparison atom. *)
  let nodes =
    dedup
      (List.concat_map (fun c -> [ c.Constr.lhs; c.Constr.rhs ]) comparisons)
  in
  let node_id t =
    let rec go i = function
      | [] -> assert false
      | n :: rest -> if Term.equal n t then i else go (i + 1) rest
    in
    go 0 nodes
  in
  let constants =
    List.filter (function Term.Const _ -> true | Term.Var _ -> false) nodes
  in
  (* Arcs: one per comparison; plus the fixed order among the constants. *)
  let arcs =
    List.map
      (fun c ->
        (node_id c.Constr.lhs, node_id c.Constr.rhs, c.Constr.op = Constr.Lt))
      comparisons
    @ List.concat_map
        (fun c1 ->
          List.filter_map
            (fun c2 ->
              match c1, c2 with
              | Term.Const v1, Term.Const v2 when Value.compare v1 v2 < 0 ->
                  Some (node_id c1, node_id c2, true)
              | _ -> None)
            constants)
        constants
  in
  let g = Digraph.create (List.length nodes) in
  List.iter (fun (u, v, _) -> Digraph.add_edge g u v) arcs;
  let comp, n_comps = Digraph.sccs g in
  let strict_in_scc =
    List.exists (fun (u, v, strict) -> strict && comp.(u) = comp.(v)) arcs
  in
  if strict_in_scc then Inconsistent
  else begin
    (* Representative per component: a constant if one is present. *)
    let reps = Array.make n_comps None in
    List.iteri
      (fun i t ->
        match reps.(comp.(i)), t with
        | None, _ -> reps.(comp.(i)) <- Some t
        | Some (Term.Var _), Term.Const _ -> reps.(comp.(i)) <- Some t
        | _ -> ())
      nodes;
    let map_term t =
      match t with
      | Term.Const _ -> t
      | Term.Var _ ->
          if List.exists (Term.equal t) nodes then
            match reps.(comp.(node_id t)) with
            | Some r -> r
            | None -> t
          else t
    in
    let head = List.map map_term q.Cq.head in
    let body =
      List.map
        (fun a -> Atom.make a.Atom.rel (List.map map_term a.Atom.args))
        q.Cq.body
    in
    (* Re-examine every constraint under the substitution. *)
    let exception Unsat in
    try
      let constraints =
        dedup
          (List.filter_map
             (fun c ->
               let lhs = map_term c.Constr.lhs
               and rhs = map_term c.Constr.rhs in
               match lhs, rhs with
               | Term.Const a, Term.Const b ->
                   if Constr.eval_op c.Constr.op a b then None else raise Unsat
               | _ ->
                   if Term.equal lhs rhs then
                     match c.Constr.op with
                     | Constr.Le -> None (* x <= x: trivial *)
                     | Constr.Lt | Constr.Neq -> raise Unsat
                   else Some (Constr.make c.Constr.op lhs rhs))
             q.Cq.constraints)
      in
      Collapsed (Cq.make ~name:q.Cq.name ~constraints ~head body)
    with Unsat -> Inconsistent
  end

let is_acyclic_with_comparisons q =
  match preprocess q with
  | Inconsistent -> true
  | Collapsed q' ->
      Paradb_hypergraph.Hypergraph.is_acyclic
        (Paradb_hypergraph.Hypergraph.of_cq q')

let evaluate ?budget db q =
  match preprocess q with
  | Inconsistent ->
      Paradb_yannakakis.Yannakakis.answer q Paradb_relational.Tuple.Set.empty
  | Collapsed q' ->
      let acyclic =
        Paradb_hypergraph.Hypergraph.is_acyclic
          (Paradb_hypergraph.Hypergraph.of_cq q')
      in
      if Cq.comparison_constraints q' = [] && acyclic && q'.Cq.body <> [] then
        Engine.evaluate ?budget db q'
      else Paradb_eval.Cq_naive.evaluate ?budget db q'

let is_satisfiable ?budget db q =
  match preprocess q with
  | Inconsistent -> false
  | Collapsed q' ->
      let acyclic =
        Paradb_hypergraph.Hypergraph.is_acyclic
          (Paradb_hypergraph.Hypergraph.of_cq q')
      in
      if Cq.comparison_constraints q' = [] && acyclic && q'.Cq.body <> [] then
        Engine.is_satisfiable ?budget db q'
      else Paradb_eval.Cq_naive.is_satisfiable ?budget db q'
