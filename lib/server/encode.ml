module Relation = Paradb_relational.Relation
module Dictionary = Paradb_relational.Dictionary
module Value = Paradb_relational.Value

(* Answers with at least [D / radix_ratio] cells, D the size of the
   dictionary's order index, radix-sort on ranks: one pass per column
   over a count array of D + 1.  Smaller answers sort their row ids by
   comparing rank tuples, so they never touch O(D) memory. *)
let radix_ratio = 8

(* Stable counting sort of [order] by column [k]'s rank, LSD radix
   style: applied last column first, it yields lexicographic order. *)
let radix_pass ranks arity count k order dst =
  let d = Array.length count - 1 in
  Array.fill count 0 (d + 1) 0;
  Array.iter
    (fun row ->
      let rk = ranks.((row * arity) + k) in
      count.(rk + 1) <- count.(rk + 1) + 1)
    order;
  for x = 1 to d do
    count.(x) <- count.(x) + count.(x - 1)
  done;
  Array.iter
    (fun row ->
      let rk = ranks.((row * arity) + k) in
      dst.(count.(rk)) <- row;
      count.(rk) <- count.(rk) + 1)
    order

(* Three passes over the answer's cells, straight from the dictionary's
   order index:

   1. rank every cell (the index is extended first if the answer holds
      a code it does not cover yet);
   2. sort the row ids by their rank tuples — ranks are value order, so
      this is lexicographic [Tuple.compare] order, and rows are distinct
      so it is total;
   3. render the first [limit] rows from the index's per-code text into
      one exactly-sized buffer per line. *)
let lines ?limit ?quote ~left ~right r =
  let arity = Relation.arity r and n = Relation.cardinality r in
  let m = match limit with Some m -> max 0 (min m n) | None -> n in
  let dict = Relation.dict r and rows = Relation.rows r in
  let top = ref (-1) in
  for i = 0 to n - 1 do
    let row = rows.(i) in
    for k = 0 to arity - 1 do
      if row.(k) > !top then top := row.(k)
    done
  done;
  let o = Dictionary.order dict ~covering:(!top + 1) in
  let rank = o.Dictionary.rank and text = o.Dictionary.text in
  let ranks = Array.make (n * arity) 0 in
  for i = 0 to n - 1 do
    let row = rows.(i) in
    for k = 0 to arity - 1 do
      ranks.((i * arity) + k) <- rank.(row.(k))
    done
  done;
  let order = Array.init n Fun.id in
  let order =
    if radix_ratio * n * arity >= o.Dictionary.covered then begin
      let order = ref order and spare = ref (Array.make n 0) in
      let count = Array.make (o.Dictionary.covered + 1) 0 in
      for k = arity - 1 downto 0 do
        radix_pass ranks arity count k !order !spare;
        let sorted = !spare in
        spare := !order;
        order := sorted
      done;
      !order
    end
    else begin
      let rec cmp a b k =
        if k = arity then 0
        else
          let c = Int.compare ranks.(a + k) ranks.(b + k) in
          if c <> 0 then c else cmp a b (k + 1)
      in
      Array.sort (fun a b -> cmp (a * arity) (b * arity) 0) order;
      order
    end
  in
  let cell =
    match quote with
    | None -> fun c -> text.(c)
    | Some quote -> (
        fun c ->
          match Dictionary.value dict c with
          | Value.Str s -> quote s
          | Value.Int _ -> text.(c))
  in
  let ll = String.length left and lr = String.length right in
  let texts = Array.make arity "" in
  let line row =
    let row = rows.(row) in
    let len = ref (ll + lr + (2 * max 0 (arity - 1))) in
    for k = 0 to arity - 1 do
      texts.(k) <- cell row.(k);
      len := !len + String.length texts.(k)
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
      let t = texts.(k) in
      Bytes.blit_string t 0 b !pos (String.length t);
      pos := !pos + String.length t
    done;
    Bytes.blit_string right 0 b !pos lr;
    Bytes.unsafe_to_string b
  in
  let acc = ref [] in
  for i = m - 1 downto 0 do
    acc := line order.(i) :: !acc
  done;
  !acc
