module Metrics = Paradb_telemetry.Metrics

type order = {
  covered : int;
  sorted : int array;
  rank : int array;
  text : string array;
}

type t = {
  mutable values : Value.t array; (* code -> value; grown geometrically *)
  mutable size : int;
  codes : int Value.Table.t; (* value -> code *)
  lock : Mutex.t;
  order : order Atomic.t; (* published whole; readers never lock *)
  order_lock : Mutex.t; (* one extension at a time *)
}

let m_order_builds = Metrics.counter "dictionary.order.builds"
let m_order_extends = Metrics.counter "dictionary.order.extends"

let no_order = { covered = 0; sorted = [||]; rank = [||]; text = [||] }

let create ?(size_hint = 1024) () =
  {
    values = Array.make (max 16 size_hint) (Value.Int 0);
    size = 0;
    codes = Value.Table.create (max 16 size_hint);
    lock = Mutex.create ();
    order = Atomic.make no_order;
    order_lock = Mutex.create ();
  }

let global = create ()
let size d = d.size

let intern d v =
  (* Fast path: already interned.  Safe only because codes are never
     removed or reassigned, and the slow path double-checks under the
     lock. *)
  match Value.Table.find_opt d.codes v with
  | Some c -> c
  | None ->
      Mutex.protect d.lock (fun () ->
          match Value.Table.find_opt d.codes v with
          | Some c -> c
          | None ->
              let c = d.size in
              if c = Array.length d.values then begin
                let bigger = Array.make (2 * c) (Value.Int 0) in
                Array.blit d.values 0 bigger 0 c;
                (* Publish the grown array before the new size so a
                   concurrent [value] never reads past the array. *)
                d.values <- bigger
              end;
              d.values.(c) <- v;
              d.size <- c + 1;
              Value.Table.add d.codes v c;
              c)

(* A lock-free hit is exact (the table compared the key), but a miss is
   not: [Hashtbl.resize] installs the new, still empty bucket array
   before refilling it, so a lookup racing an [intern] that grows the
   table can miss a present value.  Resizes only happen under the lock,
   so the miss is confirmed there. *)
let code_opt d v =
  match Value.Table.find_opt d.codes v with
  | Some _ as hit -> hit
  | None -> Mutex.protect d.lock (fun () -> Value.Table.find_opt d.codes v)

let value d c =
  if c < 0 || c >= d.size then
    invalid_arg (Printf.sprintf "Dictionary.value: unknown code %d" c)
  else d.values.(c)

(* First index in [lo, hi) of [sorted] whose value is not below [v]
   ([strict]: not at or below). *)
let search values sorted ~strict v lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = Value.compare values.(sorted.(mid)) v in
    if c < 0 || (strict && c = 0) then lo := mid + 1 else hi := mid
  done;
  !lo

(* Merge the codes interned since [o] into its order: the fresh codes
   are sorted among themselves (k log k), each finds its place in the
   old order by a binary search that starts where the previous one
   ended, and the runs between are blitted — O(D + k log D) in all.
   Ranks change for every code after the first insertion point, so the
   rank array is rebuilt; text is copied and only the fresh codes are
   rendered. *)
let extend values n o =
  let d = o.covered in
  let fresh = Array.init (n - d) (fun i -> d + i) in
  Array.sort (fun a b -> Value.compare values.(a) values.(b)) fresh;
  let sorted = Array.make n 0 in
  let src = ref 0 and dst = ref 0 in
  Array.iter
    (fun c ->
      let at = search values o.sorted ~strict:false values.(c) !src d in
      let run = at - !src in
      Array.blit o.sorted !src sorted !dst run;
      sorted.(!dst + run) <- c;
      src := at;
      dst := !dst + run + 1)
    fresh;
  Array.blit o.sorted !src sorted !dst (d - !src);
  let rank = Array.make n 0 in
  Array.iteri (fun r c -> rank.(c) <- r) sorted;
  let text = Array.make n "" in
  Array.blit o.text 0 text 0 d;
  for c = d to n - 1 do
    text.(c) <- Value.to_string values.(c)
  done;
  { covered = n; sorted; rank; text }

let order d ~covering =
  let o = Atomic.get d.order in
  if covering <= o.covered then o
  else
    Mutex.protect d.order_lock (fun () ->
        let o = Atomic.get d.order in
        if covering <= o.covered then o
        else begin
          (* Size and values read together under the intern lock: every
             code below [n] is then readable in [values]. *)
          let values, n = Mutex.protect d.lock (fun () -> (d.values, d.size)) in
          if covering > n then
            invalid_arg
              (Printf.sprintf "Dictionary.order: %d codes asked, %d interned"
                 covering n);
          Metrics.incr (if o.covered = 0 then m_order_builds else m_order_extends);
          let o = extend values n o in
          Atomic.set d.order o;
          o
        end)

let bounds d o v =
  let values = d.values in
  let lo = search values o.sorted ~strict:false v 0 o.covered in
  let hi =
    if lo < o.covered && Value.equal values.(o.sorted.(lo)) v then lo + 1
    else lo
  in
  (lo, hi)
