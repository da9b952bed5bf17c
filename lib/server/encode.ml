module Relation = Paradb_relational.Relation
module Value = Paradb_relational.Value

let rec pow2 c n = if c >= n then c else pow2 (2 * c) n

(* Four linear passes over the answer's cells, and one sort of its
   distinct values:

   1. slot every cell: an open-addressing table of slots (-1: free)
      gives each distinct code a dense slot;
   2. rank the slots in [Value.compare] order — codes of one dictionary
      are values one-to-one, so ranks never tie — and rewrite every cell
      to its rank;
   3. sort the row ids by a stable counting sort per column, last column
      first (LSD radix), which is lexicographic [Tuple.compare] order;
   4. render the first [limit] rows from per-rank text, built on first
      use, into one exactly-sized buffer per line. *)
let lines ?limit ~left ~cell ~right r =
  let arity = Relation.arity r and n = Relation.cardinality r in
  let m = match limit with Some m -> max 0 (min m n) | None -> n in
  let cells = Array.make (n * arity) 0 in
  let mask = pow2 16 (2 * n * arity) - 1 in
  let table = Array.make (mask + 1) (-1) in
  let codes = Array.make (n * arity) 0 and d = ref 0 and c_i = ref 0 in
  Relation.iter_codes
    (fun row ->
      for k = 0 to arity - 1 do
        let c = row.(k) in
        let j = ref ((c * 0x9E3779B1) land mask) in
        while table.(!j) >= 0 && codes.(table.(!j)) <> c do
          j := (!j + 1) land mask
        done;
        if table.(!j) < 0 then begin
          table.(!j) <- !d;
          codes.(!d) <- c;
          incr d
        end;
        cells.(!c_i) <- table.(!j);
        incr c_i
      done)
    r;
  let d = !d in
  let values = Array.init d (fun s -> Relation.decode_value r codes.(s)) in
  let by_rank = Array.init d Fun.id in
  Array.stable_sort (fun a b -> Value.compare values.(a) values.(b)) by_rank;
  let rank = Array.make d 0 in
  Array.iteri (fun rk s -> rank.(s) <- rk) by_rank;
  Array.iteri (fun i s -> cells.(i) <- rank.(s)) cells;
  let order = ref (Array.init n Fun.id) and spare = ref (Array.make n 0) in
  let count = Array.make (d + 1) 0 in
  for k = arity - 1 downto 0 do
    Array.fill count 0 (d + 1) 0;
    Array.iter
      (fun row ->
        let rk = cells.((row * arity) + k) in
        count.(rk + 1) <- count.(rk + 1) + 1)
      !order;
    for x = 1 to d do
      count.(x) <- count.(x) + count.(x - 1)
    done;
    let dst = !spare in
    Array.iter
      (fun row ->
        let rk = cells.((row * arity) + k) in
        dst.(count.(rk)) <- row;
        count.(rk) <- count.(rk) + 1)
      !order;
    spare := !order;
    order := dst
  done;
  let text = Array.make d None in
  let text_of rk =
    match text.(rk) with
    | Some t -> t
    | None ->
        let t = cell values.(by_rank.(rk)) in
        text.(rk) <- Some t;
        t
  in
  let ll = String.length left and lr = String.length right in
  let line row =
    let base = row * arity in
    let len = ref (ll + lr + (2 * max 0 (arity - 1))) in
    for k = 0 to arity - 1 do
      len := !len + String.length (text_of cells.(base + k))
    done;
    let b = Bytes.create !len in
    Bytes.blit_string left 0 b 0 ll;
    let pos = ref ll in
    for k = 0 to arity - 1 do
      if k > 0 then begin
        Bytes.unsafe_set b !pos ',';
        Bytes.unsafe_set b (!pos + 1) ' ';
        pos := !pos + 2
      end;
      let t = text_of cells.(base + k) in
      Bytes.blit_string t 0 b !pos (String.length t);
      pos := !pos + String.length t
    done;
    Bytes.blit_string right 0 b !pos lr;
    Bytes.unsafe_to_string b
  in
  let order = !order and acc = ref [] in
  for i = m - 1 downto 0 do
    acc := line order.(i) :: !acc
  done;
  !acc
