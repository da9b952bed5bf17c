(* Order statistics and answer digests shared by the served and traced
   runs. *)

let sorted_array l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks over a sorted array. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let p50 l = quantile (sorted_array l) 0.5

(* Quartiles exactly as Python's [statistics.quantiles(values, n=4)]
   (the default "exclusive" method), so [--repeat] reports the spread
   the same way a script over repeated runs would.  Needs two values. *)
let quartiles l =
  let a = sorted_array l in
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let m = n + 1 in
  let cut i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (cut 1, cut 2, cut 3)

(* An answer digest over payload lines: the row count, an
   order-insensitive sum (set equality) and an order-sensitive fold
   (bit-identity of the canonical sorted serialization). *)
type digest = { rows : int; set : int; seq : int }

let digest lines =
  List.fold_left
    (fun d l ->
      let h = Hashtbl.hash l in
      { rows = d.rows + 1; set = d.set + h; seq = (d.seq * 1_000_003) + h })
    { rows = 0; set = 0; seq = 17 }
    lines
