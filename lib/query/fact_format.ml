module Database = Paradb_relational.Database
module Relation = Paradb_relational.Relation

let value_to_syntax = Term.value_to_syntax

let to_string db =
  let buf = Buffer.create 1024 in
  List.iter
    (fun rel ->
      Relation.iter
        (fun row ->
          Buffer.add_string buf (Relation.name rel);
          Buffer.add_char buf '(';
          Array.iteri
            (fun i v ->
              if i > 0 then Buffer.add_string buf ", ";
              Buffer.add_string buf (value_to_syntax v))
            row;
          Buffer.add_string buf ").\n")
        rel)
    (Database.relations db);
  Buffer.contents buf

let print oc db = output_string oc (to_string db)
let roundtrip db = Parser.parse_facts (to_string db)
