(* Semiring-annotated relations: a map from code rows to annotations.

   This is the opt-in layer over the plain set-semantics kernel.  The
   Bool engine never allocates one of these — [Relation.t]'s dedup and
   semijoins already implement the Bool semiring — so the trusted fast
   path is untouched.  Counting (Nat) and min-cost (Tropical) evaluation
   build annotated copies of the per-atom relations and push them
   through project/join, which ⊕-sum and ⊗-multiply annotations where
   the set kernel would dedup and intersect. *)

type 'a t = {
  schema : string array;
  rows : 'a Code_row.Table.t;
}

let schema t = Array.to_list t.schema
let cardinality t = Code_row.Table.length t.rows
let find t row = Code_row.Table.find_opt t.rows row

let position t attr =
  let n = Array.length t.schema in
  let rec go i =
    if i >= n then raise Not_found
    else if String.equal t.schema.(i) attr then i
    else go (i + 1)
  in
  go 0

let positions t attrs = Array.of_list (List.map (position t) attrs)

let check_schema name schema =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun a ->
      if Hashtbl.mem seen a then
        invalid_arg
          (Printf.sprintf "Annotated.%s: duplicate attribute %S" name a)
      else Hashtbl.add seen a ())
    schema

(* Merge [ann] into the slot for [row], ⊕-summing with any previous
   annotation.  [dedup_drop] is the armed-once-per-call value of the
   [count_dedup_drop] mutation hook: when set, duplicates keep their
   first annotation — multiplicities silently collapse toward set
   semantics, which is exactly the bug the counting oracle must catch. *)
let merge_row (sr : 'a Semiring.t) ~dedup_drop rows row ann =
  match Code_row.Table.find_opt rows row with
  | None -> Code_row.Table.replace rows row ann
  | Some prev ->
      if not dedup_drop then Code_row.Table.replace rows row (sr.plus prev ann)

let of_rows (sr : 'a Semiring.t) ~schema pairs =
  check_schema "of_rows" schema;
  let arity = List.length schema in
  let rows = Code_row.Table.create (List.length pairs + 1) in
  List.iter
    (fun (row, ann) ->
      if Array.length row <> arity then
        invalid_arg "Annotated.of_rows: row arity mismatch";
      merge_row sr ~dedup_drop:false rows row ann)
    pairs;
  { schema = Array.of_list schema; rows }

let of_relation (sr : 'a Semiring.t) ?weight rel =
  let rows = Code_row.Table.create (Relation.cardinality rel + 1) in
  let ann =
    match weight with Some f -> f | None -> fun _ -> sr.one
  in
  Relation.iter_codes (fun row -> Code_row.Table.replace rows row (ann row)) rel;
  { schema = Relation.schema rel; rows }

let project (sr : 'a Semiring.t) attrs t =
  check_schema "project" attrs;
  let pos = positions t attrs in
  let dedup_drop = Paradb_telemetry.Mutate.enabled "count_dedup_drop" in
  let rows = Code_row.Table.create (Code_row.Table.length t.rows + 1) in
  Code_row.Table.iter
    (fun row ann ->
      merge_row sr ~dedup_drop rows (Code_row.sub row pos) ann)
    t.rows;
  { schema = Array.of_list attrs; rows }

let common_attrs a b =
  List.filter (fun attr -> Array.exists (String.equal attr) b.schema)
    (Array.to_list a.schema)

let natural_join (sr : 'a Semiring.t) a b =
  let common = common_attrs a b in
  let rest_b =
    List.filter
      (fun attr -> not (List.mem attr common))
      (Array.to_list b.schema)
  in
  let out_schema = Array.to_list a.schema @ rest_b in
  let key_a = positions a common and key_b = positions b common in
  let rest_pos = positions b rest_b in
  (* index the smaller work: one pass over b keyed on the join columns *)
  let index : (Code_row.t, (Code_row.t * 'a) list) Hashtbl.t =
    Hashtbl.create (Code_row.Table.length b.rows + 1)
  in
  Code_row.Table.iter
    (fun row ann ->
      let k = Code_row.sub row key_b in
      let prev = Option.value (Hashtbl.find_opt index k) ~default:[] in
      Hashtbl.replace index k ((row, ann) :: prev))
    b.rows;
  let rows = Code_row.Table.create (Code_row.Table.length a.rows + 1) in
  Code_row.Table.iter
    (fun ra ann_a ->
      match Hashtbl.find_opt index (Code_row.sub ra key_a) with
      | None -> ()
      | Some matches ->
          List.iter
            (fun (rb, ann_b) ->
              let out = Code_row.append ra (Code_row.sub rb rest_pos) in
              merge_row sr ~dedup_drop:false rows out (sr.times ann_a ann_b))
            matches)
    a.rows;
  { schema = Array.of_list out_schema; rows }

let total (sr : 'a Semiring.t) t =
  Code_row.Table.fold (fun _ ann acc -> sr.plus acc ann) t.rows sr.zero
