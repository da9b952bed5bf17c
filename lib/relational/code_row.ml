type t = int array

(* Equality, comparison and sub-row equality are plain loops: a local
   recursive helper would close over its arguments and allocate on every
   call, and these sit on every hash-chain compare. *)
let equal (a : t) (b : t) =
  let la = Array.length a in
  la = Array.length b
  &&
  let i = ref 0 in
  while !i < la && a.(!i) = b.(!i) do
    incr i
  done;
  !i = la

(* FNV-1a over the cells; int codes are immediate so this never follows a
   pointer. *)
let hash (a : t) =
  let h = ref 0x811c9dc5 in
  for i = 0 to Array.length a - 1 do
    h := (!h lxor a.(i)) * 0x01000193
  done;
  !h land max_int

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let i = ref 0 in
    while !i < la && a.(!i) = b.(!i) do
      incr i
    done;
    if !i = la then 0 else Int.compare a.(!i) b.(!i)
  end

(* A loop, not [Array.map]: the closure would cost every memo key and
   every output row an extra allocation. *)
let sub (row : t) (positions : int array) =
  let n = Array.length positions in
  let r = Array.make n 0 in
  for i = 0 to n - 1 do
    r.(i) <- row.(positions.(i))
  done;
  r

(* Hash and equality of the sub-row at [positions] without materialising
   it — the allocation-free primitives behind key indexes. *)
let hash_sub (row : t) (positions : int array) =
  let h = ref 0x811c9dc5 in
  for i = 0 to Array.length positions - 1 do
    h := (!h lxor row.(positions.(i))) * 0x01000193
  done;
  !h land max_int

let equal_sub (a : t) (pa : int array) (b : t) (pb : int array) =
  let la = Array.length pa in
  la = Array.length pb
  &&
  let i = ref 0 in
  while !i < la && a.(pa.(!i)) = b.(pb.(!i)) do
    incr i
  done;
  !i = la

let append = Array.append

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
