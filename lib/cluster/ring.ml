module Value = Paradb_relational.Value

(* FNV-1a (64-bit), masked to a nonnegative OCaml int.  The point is
   stability: coordinator and shards are separate processes (and may be
   separate binaries across a rolling restart), so the partitioning
   hash must be a function of the value's bytes alone — never
   [Hashtbl.hash] or anything seeded per-process. *)
let fnv_prime = 0x100000001b3L
let fnv_offset = 0xcbf29ce484222325L

let hash_bytes s =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  Int64.to_int !h land max_int

(* Tag by constructor so [Int 1] and [Str "1"] (distinct domain values)
   never alias. *)
let hash_value = function
  | Value.Int i -> hash_bytes ("i\x00" ^ string_of_int i)
  | Value.Str s -> hash_bytes ("s\x00" ^ s)

type t = {
  points : (int * int) array;  (** (point hash, shard), sorted by hash *)
  shards : int;
}

let default_vnodes = 64

let create ~shards =
  if shards < 1 then invalid_arg "Ring.create: need at least one shard";
  let points =
    Array.init (shards * default_vnodes) (fun i ->
        let shard = i / default_vnodes and v = i mod default_vnodes in
        (hash_bytes (Printf.sprintf "vnode:%d:%d" shard v), shard))
  in
  Array.sort compare points;
  { points; shards }

let shards t = t.shards

(* First ring point clockwise from [h] (wrapping past the top). *)
let owner t h =
  let n = Array.length t.points in
  let rec search lo hi =
    (* invariant: answer index is in [lo, hi], where hi = n means wrap *)
    if lo >= hi then if lo = n then snd t.points.(0) else snd t.points.(lo)
    else
      let mid = (lo + hi) / 2 in
      if fst t.points.(mid) >= h then search lo mid else search (mid + 1) hi
  in
  search 0 n

let owner_of_value t v = owner t (hash_value v)

(* Successor shards for slice replicas: copy [r] of shard [s]'s slice
   lives on shard [(s + r) mod shards].  Slice-granular (not per-key)
   placement keeps replica fan-out a bulk transfer and makes failover
   addressing trivial: the replica of slice [s] under name [db@r<r>] is
   always exactly one hop per replica rank. *)
let replica_shard t ~shard ~rank = (shard + rank) mod t.shards
