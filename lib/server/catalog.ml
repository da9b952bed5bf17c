module Database = Paradb_relational.Database
module Relation = Paradb_relational.Relation
module Source = Paradb_query.Source
module Store = Paradb_storage.Store
module Segment = Paradb_storage.Segment

type entry = { db : Database.t; generation : int }

(* Two locks with distinct jobs:

   [lock]  protects the in-memory table and generation counter.  Held
           only for table reads and swaps — microseconds, never across
           disk IO, so readers are never blocked behind a write.

   [io]    serializes every disk mutation of the data dir (persist on
           LOAD/FACT, the background compactor's fold).  Manifest
           read-modify-write must not interleave, and a fold must not
           race an append.  Always acquired BEFORE [lock] when both are
           needed.

   Before the background compactor existed one lock covered both; that
   was fine while the longest hold was a delta append, but a fold of a
   10M-tuple store runs for seconds and must not stall EVALs. *)
type t = {
  table : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  io : Mutex.t;
  mutable next_generation : int;
  data_dir : string option;
  incarnation : string;
}

(* A random nonce per catalog, i.e. per server process: a restarted
   server counts generations from 0 again, and the nonce keeps its
   snapshot tokens from ever equalling the ones it handed out before. *)
let create ?data_dir () =
  {
    table = Hashtbl.create 16;
    lock = Mutex.create ();
    io = Mutex.create ();
    next_generation = 0;
    data_dir;
    incarnation =
      Printf.sprintf "%016Lx"
        (Random.State.bits64 (Random.State.make_self_init ()));
  }

let data_dir cat = cat.data_dir

(* Directory names come from protocol tokens; keep them from escaping
   the data dir (or colliding) by the same sanitization segment files
   use. *)
let dir_for cat name =
  Option.map
    (fun d -> Filename.concat d (Store.sanitize_name name))
    cat.data_dir

(* Every mutation gets a fresh generation from a catalog-wide counter, so
   a (name, generation) pair identifies one immutable snapshot for the
   catalog's lifetime — the token the plan cache keys compiled pipelines
   on. *)
let fresh_generation cat =
  let g = cat.next_generation in
  cat.next_generation <- g + 1;
  g

let set cat name db =
  Mutex.protect cat.lock (fun () ->
      Hashtbl.replace cat.table name { db; generation = fresh_generation cat })

let find cat name =
  Mutex.protect cat.lock (fun () ->
      Option.map
        (fun e -> (e.db, e.generation))
        (Hashtbl.find_opt cat.table name))

let snap cat ~generation = Printf.sprintf "%s.%d" cat.incarnation generation

let current_snap cat name =
  Option.map (fun (_, generation) -> snap cat ~generation) (find cat name)

let merge base additions =
  List.fold_left
    (fun db r ->
      match Database.find_opt db (Relation.name r) with
      | None -> Database.add r db
      | Some existing -> Database.add (Relation.union existing r) db)
    base (Database.relations additions)

(* Persistence failures surface as [Error "storage: ..."]; the entry is
   left as it was, so a failed write never publishes a snapshot the disk
   does not hold. *)
let wrap_storage f =
  match f () with
  | v -> Ok v
  | exception Segment.Corrupt msg -> Error ("storage: " ^ msg)
  | exception Sys_error msg -> Error ("storage: " ^ msg)
  | exception Unix.Unix_error (e, _, _) ->
      Error ("storage: " ^ Unix.error_message e)
  | exception Paradb_storage.Io_fault.Crash msg ->
      (* an injected crash point fired mid-write: the publish never
         happened, so the entry stays as it was — exactly the contract a
         real kill would leave, minus the dead process *)
      Error ("storage: " ^ msg)

(* Persist [additions] under the entry's segment directory: the first
   write compacts a fresh store, every later one appends delta
   segments.  Runs under the io lock — manifest read-modify-write must
   not interleave with another write or a compaction fold. *)
let persist ~dir additions =
  if Store.is_store dir then
    List.iter (fun r -> Store.append ~dir r) (Database.relations additions)
  else ignore (Store.compact ~dir additions)

(* A durable mutation, two-phase: persist under [io] (slow, disk), then
   merge-and-swap under [lock] (fast, memory).  The merge is validated
   BEFORE the disk write — an arity clash must not leave segments
   behind — and revalidated inside the swap, since another writer may
   have changed the base while we held only [io].  Both writers hold
   [io] for their whole mutation, so in practice the base cannot change
   under us; the revalidation is belt and braces. *)
let durable_mutation cat ~dir ~name ~additions ~mode_of =
  Mutex.protect cat.io (fun () ->
      let base0 =
        Mutex.protect cat.lock (fun () ->
            Option.map (fun e -> e.db) (Hashtbl.find_opt cat.table name))
      in
      let mode = mode_of base0 in
      let base = Option.value base0 ~default:Database.empty in
      match
        try Ok (merge base additions) with Invalid_argument msg -> Error msg
      with
      | Error _ as e -> e
      | Ok merged -> (
          match wrap_storage (fun () -> persist ~dir additions) with
          | Error _ as e -> e
          | Ok () ->
              Mutex.protect cat.lock (fun () ->
                  Hashtbl.replace cat.table name
                    { db = merged; generation = fresh_generation cat });
              Ok (merged, mode)))

let load cat name additions =
  match dir_for cat name with
  | None ->
      set cat name additions;
      Ok (additions, `Replaced)
  | Some dir ->
      durable_mutation cat ~dir ~name ~additions ~mode_of:(function
        | Some _ -> `Appended
        | None -> `Created)

let add_fact cat name fact =
  (* parse_facts accepts any fact-file fragment, so one ill-formed or
     non-ground "fact" fails here rather than corrupting the entry *)
  match Source.parse_facts fact with
  | Error e -> Error e
  | Ok additions -> (
      match dir_for cat name with
      | Some dir ->
          Result.map fst
            (durable_mutation cat ~dir ~name ~additions ~mode_of:(fun _ -> ()))
      | None -> (
          try
            Mutex.protect cat.lock (fun () ->
                let base =
                  match Hashtbl.find_opt cat.table name with
                  | Some e -> e.db
                  | None -> Database.empty
                in
                let merged = merge base additions in
                Hashtbl.replace cat.table name
                  { db = merged; generation = fresh_generation cat };
                Ok merged)
          with Invalid_argument msg ->
            (* e.g. an arity clash with the relation already in the entry *)
            Error msg))

(* The cluster exchange framing: replace entry [name] with a parsed
   fact-file fragment in one generation bump.  Deliberately in-memory
   only — a BULK carries one shard's slice of a snapshot the
   coordinator already holds durably; shard-local persistence of
   exchange traffic would just duplicate it. *)
let bulk_set cat name text =
  match Source.parse_facts text with
  | Error e -> Error e
  | Ok db ->
      set cat name db;
      Ok db

let attach cat =
  match cat.data_dir with
  | None -> []
  | Some root ->
      if not (Sys.file_exists root && Sys.is_directory root) then []
      else
        Sys.readdir root |> Array.to_list |> List.sort compare
        |> List.filter_map (fun name ->
               let dir = Filename.concat root name in
               if Store.is_store dir then begin
                 let db = Store.open_dir dir in
                 set cat name db;
                 Some (name, Database.size db)
               end
               else None)

let entries cat =
  Mutex.protect cat.lock (fun () ->
      Hashtbl.fold
        (fun name e acc -> (name, Database.size e.db) :: acc)
        cat.table [])
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Background compaction support.  The fold reorganizes the disk layout
   only — every relation's visible rows are unchanged — so the
   in-memory snapshot, its generation, and the plan cache all stay
   valid; nothing under [lock] is touched. *)

let segment_count cat name =
  match dir_for cat name with
  | Some dir when Store.is_store dir -> (
      match Store.entries dir with
      | es -> Some (List.length es)
      | exception (Segment.Corrupt _ | Sys_error _) -> None)
  | _ -> None

(* Entries whose store has accumulated at least [min_segments] segments
   AND holds more segments than relations, worst first.  The second
   condition is what lets the sweeper converge: a freshly folded store
   has exactly one segment per relation, and without it any store with
   [min_segments] relations would be refolded on every scan. *)
let compact_candidates cat ~min_segments =
  let names =
    Mutex.protect cat.lock (fun () ->
        Hashtbl.fold (fun name _ acc -> name :: acc) cat.table [])
  in
  List.filter_map
    (fun name ->
      match dir_for cat name with
      | Some dir when Store.is_store dir -> (
          match Store.entries dir with
          | es ->
              let n = List.length es in
              let rels =
                List.sort_uniq compare
                  (List.map (fun e -> e.Store.relation) es)
              in
              if n >= min_segments && n > List.length rels then Some (name, n)
              else None
          | exception (Segment.Corrupt _ | Sys_error _) -> None)
      | _ -> None)
    (List.sort compare names)
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let compact_entry cat name =
  match dir_for cat name with
  | None -> Error "storage: no data dir"
  | Some dir ->
      Mutex.protect cat.io (fun () ->
          if Store.is_store dir then
            wrap_storage (fun () -> Store.fold_in_place ~dir)
          else Error (Printf.sprintf "storage: %s is not a store" dir))

type entry_stats = {
  name : string;
  tuples : int;
  generation : int;
  segments : int option;
}

let m_segments name =
  Paradb_telemetry.Metrics.gauge (Printf.sprintf "store.%s.segments" name)

(* Per-entry operator view: snapshot generation always, on-disk segment
   count when the entry owns a store directory (the delta-accumulation
   signal `paradb compact` folds away).  Counting re-reads the manifest,
   which is a few lines — STATS is not a hot path.  Each count is also
   published as a [store.<name>.segments] high-watermark gauge so
   METRICS scrapes see delta growth between STATS calls. *)
let entries_stats cat =
  let snap =
    Mutex.protect cat.lock (fun () ->
        Hashtbl.fold
          (fun name e acc -> (name, Database.size e.db, e.generation) :: acc)
          cat.table [])
  in
  List.sort compare snap
  |> List.map (fun (name, tuples, generation) ->
         let segments = segment_count cat name in
         Option.iter
           (fun n -> Paradb_telemetry.Metrics.set_max (m_segments name) n)
           segments;
         { name; tuples; generation; segments })
