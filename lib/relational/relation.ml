(* Rows are stored dictionary-encoded: each cell is a dense int code from
   the process dictionary [Dictionary.global], and the row store is a
   hash set of flat [int array]s.  All operators work directly on code
   rows; [Value.t] tuples only appear at the construction/observation
   boundary.  Per-relation key indexes (key-position vector -> hash index
   from key to rows) are built lazily and memoized, so repeated
   joins/semijoins against the same relation pay for the index once. *)

(* A hash join index: bucket heads + per-row chain links over the dense
   row array of the owning [Row_set].  Probing hashes the probe row's key
   cells in place ([Code_row.hash_sub]) and walks the chain comparing
   cells positionally, so neither building nor probing allocates keys. *)
type key_index = {
  kpos : int array; (* key column positions in the owner *)
  ktable : int array; (* hash slot -> first row id, -1 = empty *)
  knext : int array; (* row id -> next row id in the same slot *)
  kmask : int;
}

type t = {
  name : string;
  schema : string array;
  index : (string, int) Hashtbl.t; (* attribute -> column *)
  rows : Row_set.t;
  key_indexes : key_index Code_row.Table.t; (* positions -> index, lazy *)
  mutable decoded : Tuple.t array option; (* memoized decoded rows *)
  lock : Mutex.t; (* guards [key_indexes] and [decoded] *)
}

let build_index schema =
  let index = Hashtbl.create (Array.length schema) in
  Array.iteri
    (fun i attr ->
      if Hashtbl.mem index attr then
        invalid_arg ("Relation: duplicate attribute " ^ attr);
      Hashtbl.add index attr i)
    schema;
  index

let make ?(name = "") ~schema_array:schema rows =
  let index = build_index schema in
  { name; schema; index; rows; key_indexes = Code_row.Table.create 2;
    decoded = None; lock = Mutex.create () }

let dict = Dictionary.global
let encode_row row = Array.map (Dictionary.intern dict) row
let decode_row row = Array.map (Dictionary.value dict) row

let check_arity name arity row =
  if Array.length row <> arity then
    invalid_arg
      (Printf.sprintf "Relation %s: row arity %d, schema arity %d" name
         (Array.length row) arity)

let of_seq ?(name = "") ~schema rows =
  let schema = Array.of_list schema in
  let arity = Array.length schema in
  let store = Row_set.create 16 in
  Seq.iter
    (fun row ->
      check_arity name arity row;
      Row_set.add store (encode_row row))
    rows;
  make ~name ~schema_array:schema store

let create ?name ~schema rows = of_seq ?name ~schema (List.to_seq rows)
let of_set ?name ~schema rows = of_seq ?name ~schema (Tuple.Set.to_seq rows)

let name r = r.name
let with_name name r = { r with name }
let schema r = r.schema
let schema_list r = Array.to_list r.schema
let arity r = Array.length r.schema
let cardinality r = Row_set.cardinal r.rows
let is_empty r = Row_set.is_empty r.rows

let mem row r =
  Array.length row = arity r
  &&
  let encoded =
    try Some (Array.map (fun v ->
        match Dictionary.code_opt dict v with
        | Some c -> c
        | None -> raise Exit) row)
    with Exit -> None
  in
  match encoded with None -> false | Some codes -> Row_set.mem r.rows codes

(* Decoded rows are memoized: evaluators that repeatedly iterate the same
   relation at the [Value.t] level (the naive backtracking baseline above
   all) decode each row once, not once per pass. *)
let decoded_rows r =
  match r.decoded with
  | Some a -> a
  | None ->
      Mutex.protect r.lock (fun () ->
          match r.decoded with
          | Some a -> a
          | None ->
              let a = Array.make (cardinality r) [||] in
              let i = ref 0 in
              Row_set.iter
                (fun row ->
                  a.(!i) <- decode_row row;
                  incr i)
                r.rows;
              r.decoded <- Some a;
              a)

let fold f r init = Array.fold_left (fun acc row -> f row acc) init (decoded_rows r)
let iter f r = Array.iter f (decoded_rows r)
let tuples r = fold List.cons r []
let tuple_set r = fold Tuple.Set.add r Tuple.Set.empty

let fold_codes f r init = Row_set.fold f r.rows init
let iter_codes f r = Row_set.iter f r.rows
let rows r = Row_set.rows r.rows
let decode_value code = Dictionary.value dict code

let add row r =
  if Array.length row <> arity r then invalid_arg "Relation.add: arity";
  let rows = Row_set.copy r.rows in
  Row_set.add rows (encode_row row);
  make ~name:r.name ~schema_array:r.schema rows

let position r attr = Hashtbl.find r.index attr
let positions r attrs = Array.of_list (List.map (position r) attrs)
let has_attr r attr = Hashtbl.mem r.index attr
let common_attrs r1 r2 = List.filter (has_attr r2) (schema_list r1)

(* The memoized key index for [positions].  Guarded by [r.lock] so
   concurrent domains sharing a relation build it once. *)
let rec index_cap n c = if c >= n then c else index_cap n (c * 2)

let m_key_index_builds = Paradb_telemetry.Metrics.counter "relation.key_index.builds"

let key_index r (positions : int array) =
  let build () =
    Paradb_telemetry.Metrics.incr m_key_index_builds;
    let n = cardinality r in
    let cap = index_cap (2 * max 8 n) 16 in
    let ktable = Array.make cap (-1) in
    let knext = Array.make (max 1 n) (-1) in
    let kmask = cap - 1 in
    for i = 0 to n - 1 do
      let slot = Code_row.hash_sub (Row_set.get r.rows i) positions land kmask in
      knext.(i) <- ktable.(slot);
      ktable.(slot) <- i
    done;
    { kpos = positions; ktable; knext; kmask }
  in
  Mutex.protect r.lock (fun () ->
      match Code_row.Table.find_opt r.key_indexes positions with
      | Some idx -> idx
      | None ->
          let idx = build () in
          Code_row.Table.add r.key_indexes positions idx;
          idx)

(* Probe cursor over row ids: [probe_first owner idx row key] is the
   first row id of [owner] whose key cells (at [idx.kpos]) equal [row]'s
   cells at [key], [probe_next] the one after a given id, [-1] past the
   last.  Plain loops over the chain, so a probe allocates nothing;
   [probe_iter] and [probe_mem] are the same walk. *)
let probe_from owner idx row key i =
  let rows = rows owner in
  let i = ref i in
  while !i >= 0 && not (Code_row.equal_sub rows.(!i) idx.kpos row key) do
    i := idx.knext.(!i)
  done;
  !i

let probe_first owner idx row (key : int array) =
  probe_from owner idx row key
    idx.ktable.(Code_row.hash_sub row key land idx.kmask)

let probe_next owner idx row (key : int array) i =
  probe_from owner idx row key idx.knext.(i)

let probe_iter owner idx row key f =
  let rows = rows owner in
  let i = ref (probe_first owner idx row key) in
  while !i >= 0 do
    f rows.(!i);
    i := probe_next owner idx row key !i
  done

let probe_mem owner idx row key = probe_first owner idx row key >= 0

type hash_index = key_index

let hash_index = key_index

let of_codes ?(name = "") ?(size_hint = 16) ~schema rows =
  let schema = Array.of_list schema in
  let arity = Array.length schema in
  let store = Row_set.create (max 16 size_hint) in
  Seq.iter
    (fun row ->
      check_arity name arity row;
      Row_set.add store (Array.copy row))
    rows;
  make ~name ~schema_array:schema store

let of_unique_codes ?(name = "") ~schema rows =
  let schema = Array.of_list schema in
  let arity = Array.length schema in
  Array.iter (check_arity name arity) rows;
  make ~name ~schema_array:schema
    (Row_set.of_unique_array rows (Array.length rows))

let project attrs r =
  let pos = positions r attrs in
  let rows = Row_set.create (cardinality r) in
  Row_set.iter (fun row -> Row_set.add rows (Code_row.sub row pos)) r.rows;
  make ~name:r.name ~schema_array:(Array.of_list attrs) rows

let rename pairs r =
  let fresh attr =
    match List.assoc_opt attr pairs with Some nu -> nu | None -> attr
  in
  let schema = Array.map fresh r.schema in
  (* Rows and cached indexes are position-based, hence schema-independent:
     share them. *)
  { r with schema; index = build_index schema }

let rename_positional new_schema r =
  if List.length new_schema <> arity r then
    invalid_arg "Relation.rename_positional: arity";
  let schema = Array.of_list new_schema in
  { r with schema; index = build_index schema }

let select_codes pred r =
  let rows = Row_set.create (cardinality r) in
  Row_set.iter (fun row -> if pred row then Row_set.add rows row) r.rows;
  make ~name:r.name ~schema_array:r.schema rows

let select pred r = select_codes (fun row -> pred (decode_row row)) r

let restrict r attr pred =
  let i = position r attr in
  select_codes (fun row -> pred (Dictionary.value dict row.(i))) r

let extend_codes extra_attrs f r =
  let schema = Array.append r.schema (Array.of_list extra_attrs) in
  let rows = Row_set.create (cardinality r) in
  Row_set.iter (fun row -> Row_set.add rows (Code_row.append row (f row))) r.rows;
  make ~name:r.name ~schema_array:schema rows

let extend attr f r =
  extend_codes [ attr ]
    (fun row -> [| Dictionary.intern dict (f (decode_row row)) |])
    r

(* Hash join.  The probe side is [r1]; the build side [r2] is indexed on
   the common attributes (via the memoized key index).  Result schema:
   r1's attributes followed by r2's attributes that are not common.
   [keep], when given, filters output rows before they are stored — a
   fused join-then-select that skips materialising the unfiltered
   result. *)
let natural_join ?keep r1 r2 =
  let common = common_attrs r1 r2 in
  let extra = List.filter (fun a -> not (has_attr r1 a)) (schema_list r2) in
  let key1 = positions r1 common and key2 = positions r2 common in
  let extra2 = positions r2 extra in
  let idx = key_index r2 key2 in
  let rows = Row_set.create (max (cardinality r1) 16) in
  let n1 = Array.length r1.schema and nx = Array.length extra2 in
  let emit =
    match keep with
    | None -> Row_set.add rows
    | Some pred -> fun out -> if pred out then Row_set.add rows out
  in
  Row_set.iter
    (fun row ->
      probe_iter r2 idx row key1 (fun row2 ->
          let out = Array.make (n1 + nx) 0 in
          Array.blit row 0 out 0 n1;
          for i = 0 to nx - 1 do
            out.(n1 + i) <- row2.(extra2.(i))
          done;
          emit out))
    r1.rows;
  make ~name:r1.name
    ~schema_array:(Array.append r1.schema (Array.of_list extra))
    rows

(* Same result as [natural_join], computed by sorting both sides on the
   common attributes and merging (the [|P| log |P|] implementation the
   paper's accounting assumes).  Code order is not value order, but any
   total order consistent with equality groups correctly. *)
let sort_merge_join r1 r2 =
  let common = common_attrs r1 r2 in
  let key1 = positions r1 common and key2 = positions r2 common in
  let extra = List.filter (fun a -> not (has_attr r1 a)) (schema_list r2) in
  let extra2 = positions r2 extra in
  let keyed store keypos =
    let rows =
      Row_set.fold (fun row acc -> (Code_row.sub row keypos, row) :: acc) store []
    in
    List.sort (fun (k1, _) (k2, _) -> Code_row.compare k1 k2) rows
  in
  let left = keyed r1.rows key1 and right = keyed r2.rows key2 in
  let rows = Row_set.create (max (cardinality r1) 16) in
  (* Advance both sorted lists; on equal keys, emit the group product. *)
  let rec take_group key acc = function
    | (k, row) :: rest when Code_row.equal k key -> take_group key (row :: acc) rest
    | rest -> (acc, rest)
  in
  let rec merge left right =
    match left, right with
    | [], _ | _, [] -> ()
    | (k1, _) :: _, (k2, _) :: _ ->
        let c = Code_row.compare k1 k2 in
        if c < 0 then merge (snd (take_group k1 [] left)) right
        else if c > 0 then merge left (snd (take_group k2 [] right))
        else begin
          let group1, left' = take_group k1 [] left in
          let group2, right' = take_group k1 [] right in
          List.iter
            (fun row1 ->
              List.iter
                (fun row2 ->
                  Row_set.add rows
                    (Code_row.append row1 (Code_row.sub row2 extra2)))
                group2)
            group1;
          merge left' right'
        end
  in
  merge left right;
  make ~name:r1.name
    ~schema_array:(Array.append r1.schema (Array.of_list extra))
    rows

let m_semijoin_probe = Paradb_telemetry.Metrics.counter "relation.semijoin.probe"
let m_semijoin_scan = Paradb_telemetry.Metrics.counter "relation.semijoin.scan"

(* [r2] at most [1 / probe_ratio] the size of [r1] takes the probe side. *)
let probe_ratio = 4

(* Probe side of [r1 ⋉ r2]: the ids of [r1]'s rows matching a distinct
   key of [r2], walked through [r1]'s memoized index.  Each row of [r1]
   matches at most one distinct key, so the walk is |r2| + (matches)
   and the ids come out distinct.  A row of [r2] stands for its key iff
   it is the first its own key's chain yields. *)
let probe_matches r1 key1 r2 key2 =
  let ids = ref (Array.make 16 0) and m = ref 0 in
  let push i =
    if !m = Array.length !ids then begin
      let a = Array.make (2 * !m) 0 in
      Array.blit !ids 0 a 0 !m;
      ids := a
    end;
    !ids.(!m) <- i;
    incr m
  in
  (* Mutation hook: keep only the first matched row of each key. *)
  let first_only = Paradb_telemetry.Mutate.enabled "semijoin_probe_first_only" in
  let n2 = cardinality r2 in
  if n2 > 0 then begin
    let idx2 = key_index r2 key2 and idx1 = key_index r1 key1 in
    let rows2 = rows r2 in
    for j = 0 to n2 - 1 do
      let key = rows2.(j) in
      if probe_first r2 idx2 key key2 = j then begin
        let i = ref (probe_first r1 idx1 key key2) in
        while !i >= 0 do
          push !i;
          i := if first_only then -1 else probe_next r1 idx1 key key2 !i
        done
      end
    done
  end;
  (!ids, !m)

(* The kept ids [ids.(0..m-1)] (distinct, any order) as [r1]'s rows in
   row-id order: sort the ids when few, mark and sweep when many. *)
let rows_in_order r1 ids m =
  let n = cardinality r1 and rows1 = rows r1 in
  if 16 * m < n then begin
    let ids = Array.sub ids 0 m in
    Array.sort (fun (a : int) b -> compare a b) ids;
    Array.map (fun i -> rows1.(i)) ids
  end
  else begin
    let mark = Bytes.make n '\000' in
    for j = 0 to m - 1 do
      Bytes.unsafe_set mark ids.(j) '\001'
    done;
    let kept = Array.make m [||] and k = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.unsafe_get mark i <> '\000' then begin
        kept.(!k) <- rows1.(i);
        incr k
      end
    done;
    kept
  end

let semijoin r1 r2 =
  let common = common_attrs r1 r2 in
  match common with
  | [] ->
      (* Degenerate cartesian case: with no shared attributes, r1 x r2
         restricted to r1's columns is r1 itself when r2 has at least one
         row, and empty (with r1's schema) when r2 is empty.  This holds
         for 0-ary r2 too: a 0-ary relation with the empty tuple counts as
         nonempty. *)
      if is_empty r2 then
        make ~name:r1.name ~schema_array:r1.schema (Row_set.create 1)
      else r1
  | _ ->
      (* The kept rows are a subset of a set, collected in r1's order:
         seal them instead of rehashing, and when nothing is dropped
         return r1 itself so its memoized indexes stay live.  A small r2
         probes r1's index with its distinct keys, so the cost is the
         rows matched, not |r1|; otherwise every row of r1 probes r2's. *)
      let key1 = positions r1 common and key2 = positions r2 common in
      let n = cardinality r1 in
      let sealed kept k =
        if k = n then r1
        else
          make ~name:r1.name ~schema_array:r1.schema
            (Row_set.of_unique_array kept k)
      in
      if probe_ratio * cardinality r2 <= n then begin
        Paradb_telemetry.Metrics.incr m_semijoin_probe;
        let ids, m = probe_matches r1 key1 r2 key2 in
        if m = n then r1 else sealed (rows_in_order r1 ids m) m
      end
      else begin
        Paradb_telemetry.Metrics.incr m_semijoin_scan;
        let idx = key_index r2 key2 in
        let kept = Array.make n [||] and k = ref 0 in
        Row_set.iter
          (fun row ->
            if probe_mem r2 idx row key1 then begin
              kept.(!k) <- row;
              incr k
            end)
          r1.rows;
        sealed kept !k
      end

(* Reorder r2's columns to match r1's schema; fail if attribute sets
   differ. *)
let align_rows op_name r1 r2 =
  if arity r1 <> arity r2 then invalid_arg (op_name ^ ": schemas differ");
  let pos =
    try positions r2 (schema_list r1)
    with Not_found -> invalid_arg (op_name ^ ": schemas differ")
  in
  let rows = Row_set.create (cardinality r2) in
  Row_set.iter (fun row -> Row_set.add rows (Code_row.sub row pos)) r2.rows;
  rows

let union r1 r2 =
  let rows2 = align_rows "Relation.union" r1 r2 in
  let rows = Row_set.copy r1.rows in
  Row_set.iter (fun row -> Row_set.add rows row) rows2;
  make ~name:r1.name ~schema_array:r1.schema rows

let diff r1 r2 =
  let rows2 = align_rows "Relation.diff" r1 r2 in
  let rows = Row_set.create (cardinality r1) in
  Row_set.iter
    (fun row -> if not (Row_set.mem rows2 row) then Row_set.add rows row)
    r1.rows;
  make ~name:r1.name ~schema_array:r1.schema rows

let inter r1 r2 =
  let rows2 = align_rows "Relation.inter" r1 r2 in
  let rows = Row_set.create 16 in
  Row_set.iter
    (fun row -> if Row_set.mem rows2 row then Row_set.add rows row)
    r1.rows;
  make ~name:r1.name ~schema_array:r1.schema rows

let product r1 r2 =
  (match common_attrs r1 r2 with
  | [] -> ()
  | a :: _ -> invalid_arg ("Relation.product: shared attribute " ^ a));
  let rows = Row_set.create (max (cardinality r1) 16) in
  Row_set.iter
    (fun row1 ->
      Row_set.iter
        (fun row2 -> Row_set.add rows (Code_row.append row1 row2))
        r2.rows)
    r1.rows;
  make ~name:r1.name
    ~schema_array:(Array.append r1.schema r2.schema)
    rows

let set_equal r1 r2 =
  arity r1 = arity r2
  && List.for_all (has_attr r2) (schema_list r1)
  && Row_set.equal r1.rows (align_rows "Relation.set_equal" r1 r2)

let domain r =
  (* Collect distinct codes first so each value is decoded once. *)
  let seen = Hashtbl.create 64 in
  Row_set.iter
    (fun row -> Array.iter (fun c -> Hashtbl.replace seen c ()) row)
    r.rows;
  Hashtbl.fold
    (fun c () acc -> Value.Set.add (Dictionary.value dict c) acc)
    seen Value.Set.empty

(* Printing is capped so that accidentally formatting a large relation
   stays readable; [set_equal] and friends are the programmatic API. *)
let pp_row_cap = 50

let pp ppf r =
  Format.fprintf ppf "@[<v>%s(%s) [%d rows]"
    (if r.name = "" then "_" else r.name)
    (String.concat ", " (schema_list r))
    (cardinality r);
  let shown = ref 0 in
  (try
     iter
       (fun row ->
         if !shown >= pp_row_cap then raise Exit;
         incr shown;
         Format.fprintf ppf "@,  %a" Tuple.pp row)
       r
   with Exit ->
     Format.fprintf ppf "@,  ... (%d more)" (cardinality r - pp_row_cap));
  Format.fprintf ppf "@]"

let to_string r = Format.asprintf "%a" pp r
