module Database = Paradb_relational.Database
module Relation = Paradb_relational.Relation
module Yannakakis = Paradb_yannakakis.Yannakakis
open Paradb_query

let reduce db q =
  if Cq.has_constraints q then
    invalid_arg "Bounded_vars.reduce: constraint atoms are not supported";
  (* Group atoms by their exact variable set. *)
  let groups : (string list * Atom.t list) list =
    List.fold_left
      (fun groups atom ->
        let key = List.sort String.compare (Atom.vars atom) in
        match List.assoc_opt key groups with
        | Some members ->
            (key, atom :: members) :: List.remove_assoc key groups
        | None -> (key, [ atom ]) :: groups)
      [] q.Cq.body
  in
  let rel_name key = "rs_" ^ String.concat "_" key in
  let new_relations =
    List.map
      (fun (key, members) ->
        let rels =
          (* P_a over the atom's variables in canonical (sorted) order *)
          List.map
            (fun a -> Relation.project key (Yannakakis.atom_relation db a))
            members
        in
        let intersection =
          match rels with
          | [] -> assert false
          | first :: rest -> List.fold_left Relation.inter first rest
        in
        Relation.with_name (rel_name key) intersection)
      groups
  in
  let new_atoms =
    List.map
      (fun (key, _) -> Atom.make (rel_name key) (List.map Term.var key))
      groups
  in
  (* Atoms with no variables (all constants) have key []; R_[] is 0-ary:
     nonempty iff every such atom maps to a tuple. *)
  let q' = Cq.make ~name:q.Cq.name ~head:q.Cq.head new_atoms in
  (q', Database.of_relations new_relations)
