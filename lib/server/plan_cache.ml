(* Classic hash-table-plus-intrusive-doubly-linked-list LRU; the list
   head is the most recently used entry.  All structure mutations happen
   under [lock].

   Scoped entries carry their (database, generation).  Generations are
   catalog-wide and monotone, so once a generation of a database has
   been cached, entries of its older generations can never hit again:
   they are unlinked at once instead of waiting for LRU eviction, and a
   late build for an older generation is not inserted. *)

type node = {
  key : string;
  scope : (string * int) option;
  mutable plan : Plan.t;
  mutable prev : node option; (* towards the head (more recent) *)
  mutable next : node option; (* towards the tail (less recent) *)
}

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  superseded : int;
  size : int;
}

module Metrics = Paradb_telemetry.Metrics

let m_hits = Metrics.counter "server.plan_cache.hits"
let m_misses = Metrics.counter "server.plan_cache.misses"
let m_evictions = Metrics.counter "server.plan_cache.evictions"
let m_build_failures = Metrics.counter "server.plan_cache.build_failures"
let m_superseded = Metrics.counter "server.plan_cache.superseded"

type t = {
  capacity : int;
  table : (string, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable superseded : int;
  latest : (string, int) Hashtbl.t; (* database -> newest cached generation *)
  lock : Mutex.t;
}

let create ~capacity () =
  if capacity <= 0 then invalid_arg "Plan_cache.create: capacity must be positive";
  {
    capacity;
    table = Hashtbl.create (2 * capacity);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    superseded = 0;
    latest = Hashtbl.create 8;
    lock = Mutex.create ();
  }

let capacity c = c.capacity

let unlink c n =
  (match n.prev with Some p -> p.next <- n.next | None -> c.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> c.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front c n =
  n.next <- c.head;
  (match c.head with Some h -> h.prev <- Some n | None -> c.tail <- Some n);
  c.head <- Some n

let evict_lru c =
  match c.tail with
  | None -> ()
  | Some n ->
      unlink c n;
      Hashtbl.remove c.table n.key;
      c.evictions <- c.evictions + 1;
      Metrics.incr m_evictions

let count_superseded c =
  c.superseded <- c.superseded + 1;
  Metrics.incr m_superseded

(* Called under [lock] before inserting an entry of [scope]: [false] when
   a newer generation of the same database is already cached. *)
let admit c = function
  | None -> true
  | Some (db, g) -> (
      match Hashtbl.find_opt c.latest db with
      | Some newest when newest > g ->
          count_superseded c;
          false
      | Some newest when newest = g -> true
      | _ ->
          Hashtbl.replace c.latest db g;
          let rec sweep = function
            | None -> ()
            | Some n ->
                let next = n.next in
                (match n.scope with
                | Some (db', g') when db' = db && g' < g ->
                    unlink c n;
                    Hashtbl.remove c.table n.key;
                    count_superseded c
                | _ -> ());
                sweep next
          in
          sweep c.head;
          true)

let find_or_build ?scope c ~key build =
  let cached =
    Mutex.protect c.lock (fun () ->
        match Hashtbl.find_opt c.table key with
        | Some n ->
            c.hits <- c.hits + 1;
            Metrics.incr m_hits;
            unlink c n;
            push_front c n;
            Some n.plan
        | None ->
            c.misses <- c.misses + 1;
            Metrics.incr m_misses;
            None)
  in
  match cached with
  | Some plan -> (plan, `Hit)
  | None ->
      (* [build] runs outside the lock and may raise ([Plan.analyze] on a
         hostile query, an injected fault): nothing was inserted yet, so
         re-raising leaves the table and LRU list untouched — the key
         stays absent and the next request retries the build. *)
      let plan =
        match build () with
        | exception e ->
            Metrics.incr m_build_failures;
            raise e
        | plan -> plan
      in
      Mutex.protect c.lock (fun () ->
          match Hashtbl.find_opt c.table key with
          | Some n ->
              (* a racing session inserted first; keep one entry *)
              n.plan <- plan;
              unlink c n;
              push_front c n
          | None ->
              if admit c scope then begin
                if Hashtbl.length c.table >= c.capacity then evict_lru c;
                let n = { key; scope; plan; prev = None; next = None } in
                Hashtbl.replace c.table key n;
                push_front c n
              end);
      (plan, `Miss)

let mem c key = Mutex.protect c.lock (fun () -> Hashtbl.mem c.table key)

let counters c =
  Mutex.protect c.lock (fun () ->
      {
        hits = c.hits;
        misses = c.misses;
        evictions = c.evictions;
        superseded = c.superseded;
        size = Hashtbl.length c.table;
      })

let keys c =
  Mutex.protect c.lock (fun () ->
      let rec go acc = function
        | None -> List.rev acc
        | Some n -> go (n.key :: acc) n.next
      in
      go [] c.head)
