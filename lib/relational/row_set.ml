(* Open-addressing hash set with a dense side array of rows.  [table]
   holds indexes into [rows] (-1 = empty slot); linear probing; row
   hashes are cached in [hashes] so resizing never rehashes a row.  Rows
   are kept in insertion order, which gives O(1) [get] and cheap dense
   iteration.

   A set built by [of_unique_array] starts SEALED: [mask = -1] and the
   table/hash arrays empty.  Dense reads work as usual; the first
   operation that needs the probe table ([add]/[mem]) builds it then.
   The cold-open path of the segment store depends on this — decoding a
   10M-row segment must not pay a hash insert per row that evaluation
   will never look at. *)

type t = {
  mutable rows : Code_row.t array;
  mutable hashes : int array;
  mutable size : int;
  mutable table : int array;
  mutable mask : int; (* -1: probe table not built yet *)
}

let rec pow2 n c = if c >= n then c else pow2 n (c * 2)

let create n =
  let cap = pow2 (2 * max 8 n) 16 in
  {
    rows = Array.make (max 8 n) [||];
    hashes = Array.make (max 8 n) 0;
    size = 0;
    table = Array.make cap (-1);
    mask = cap - 1;
  }

let of_unique_array rows size =
  { rows; hashes = [||]; size; table = [||]; mask = -1 }

let ensure_table s =
  if s.mask < 0 then begin
    let cap = pow2 (2 * max 8 s.size) 16 in
    let table = Array.make cap (-1) in
    let mask = cap - 1 in
    let hashes = Array.make (max 8 (Array.length s.rows)) 0 in
    for i = 0 to s.size - 1 do
      let h = Code_row.hash s.rows.(i) in
      hashes.(i) <- h;
      let j = ref (h land mask) in
      while table.(!j) >= 0 do
        j := (!j + 1) land mask
      done;
      table.(!j) <- i
    done;
    s.hashes <- hashes;
    s.table <- table;
    s.mask <- mask
  end

let cardinal s = s.size
let is_empty s = s.size = 0
let get s i = s.rows.(i)
let rows s = s.rows

let grow_dense s =
  let n = Array.length s.rows in
  (* a sealed set may own an exactly-sized (even empty) row array *)
  let cap = max 8 (2 * n) in
  let rows = Array.make cap [||] and hashes = Array.make cap 0 in
  Array.blit s.rows 0 rows 0 n;
  Array.blit s.hashes 0 hashes 0 n;
  s.rows <- rows;
  s.hashes <- hashes

let resize_table s =
  let cap = 2 * (s.mask + 1) in
  let table = Array.make cap (-1) in
  let mask = cap - 1 in
  for i = 0 to s.size - 1 do
    let j = ref (s.hashes.(i) land mask) in
    while table.(!j) >= 0 do
      j := (!j + 1) land mask
    done;
    table.(!j) <- i
  done;
  s.table <- table;
  s.mask <- mask

(* One probe walk for whole rows and sub-row keys.  [slot s eq row pos h]
   is the probe-table slot holding the id of the stored key [k] with hash
   [h] and [eq k row pos], or the empty slot where that key would go.
   [eq] is always a closed top-level function, so passing it allocates
   nothing; it runs only on a hash match. *)
let slot s eq row pos h =
  let j = ref (h land s.mask) in
  while
    let i = s.table.(!j) in
    i >= 0 && not (s.hashes.(i) = h && eq s.rows.(i) row pos)
  do
    j := (!j + 1) land s.mask
  done;
  !j

let row_matches key row (_ : int array) = Code_row.equal key row

let key_matches (key : Code_row.t) (row : Code_row.t) (pos : int array) =
  let n = Array.length pos in
  Array.length key = n
  &&
  let k = ref 0 in
  while !k < n && key.(!k) = row.(pos.(!k)) do
    incr k
  done;
  !k = n

(* Store [key] (hash [h]) in the empty slot [j]; its id is the old size. *)
let insert s j h key =
  if s.size = Array.length s.rows then grow_dense s;
  s.rows.(s.size) <- key;
  s.hashes.(s.size) <- h;
  s.table.(j) <- s.size;
  s.size <- s.size + 1;
  (* Keep load factor under 3/4. *)
  if 4 * s.size > 3 * (s.mask + 1) then resize_table s

let add s row =
  ensure_table s;
  let h = Code_row.hash row in
  let j = slot s row_matches row [||] h in
  if s.table.(j) < 0 then insert s j h row

let mem s row =
  ensure_table s;
  s.table.(slot s row_matches row [||] (Code_row.hash row)) >= 0

let find_sub s row pos =
  ensure_table s;
  s.table.(slot s key_matches row pos (Code_row.hash_sub row pos))

let add_sub s row pos =
  ensure_table s;
  let h = Code_row.hash_sub row pos in
  let j = slot s key_matches row pos h in
  let id = s.table.(j) in
  if id >= 0 then id
  else begin
    insert s j h (Code_row.sub row pos);
    s.size - 1
  end

let to_array s = Array.sub s.rows 0 s.size

let iter f s =
  for i = 0 to s.size - 1 do
    f s.rows.(i)
  done

let fold f s init =
  let acc = ref init in
  for i = 0 to s.size - 1 do
    acc := f s.rows.(i) !acc
  done;
  !acc

let copy s =
  {
    rows = Array.copy s.rows;
    hashes = Array.copy s.hashes;
    size = s.size;
    table = Array.copy s.table;
    mask = s.mask;
  }

let equal a b =
  cardinal a = cardinal b
  &&
  try
    iter (fun row -> if not (mem b row) then raise Exit) a;
    true
  with Exit -> false
