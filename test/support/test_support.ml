(* Helpers every [test_*.ml] suite used to carry its own copy of:
   substring checks on error messages and summaries, temp fact files,
   canonical answer-set serialization, database pretty-printing, and
   seeded RNG setup. *)

module Relation = Paradb_relational.Relation
module Tuple = Paradb_relational.Tuple

(* Substring check without a string-library dependency. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

(* Write [text] to a fresh temp file; the caller removes it (usually via
   [Fun.protect]). *)
let write_temp_facts ?(prefix = "paradb_facts") text =
  let path = Filename.temp_file prefix ".facts" in
  Out_channel.with_open_text path (fun oc -> output_string oc text);
  path

(* Canonical answer set: sorted tuple strings, the cross-engine
   comparison currency (same serialization as the server's EVAL
   payload). *)
let sorted_rows rel =
  List.map Tuple.to_string (List.sort Tuple.compare (Relation.tuples rel))

(* Canonical GATHER payload: sorted [name(v1, v2).] fact lines, the
   reference the server's code-level encoder is checked against. *)
let sorted_fact_lines rel =
  List.map
    (fun t ->
      Printf.sprintf "%s(%s)." (Relation.name rel)
        (String.concat ", "
           (List.map Paradb_query.Fact_format.value_to_syntax
              (Tuple.to_list t))))
    (List.sort Tuple.compare (Relation.tuples rel))

(* A database as re-parseable fact syntax, for failure messages. *)
let db_to_string db = Paradb_query.Fact_format.to_string db

(* Seeded RNG; 17 is the suites' traditional default. *)
let rng ?(seed = 17) () = Random.State.make [| seed |]

(* The complete digraph on [n] nodes, self-loops included, as facts of
   [e]: a k-edge path then has exactly n^(k+1) valuations. *)
let complete_graph_facts n =
  String.concat "\n"
    (List.init (n * n) (fun i -> Printf.sprintf "e(%d, %d)." (i / n) (i mod n)))

(* [ans() :- e(X0, X1), ..., e(X(k-1), Xk).] *)
let path_query k =
  Printf.sprintf "ans() :- %s."
    (String.concat ", "
       (List.init k (fun i -> Printf.sprintf "e(X%d, X%d)" i (i + 1))))
