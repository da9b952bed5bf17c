module Value = Paradb_relational.Value
module Tuple = Paradb_relational.Tuple
module Relation = Paradb_relational.Relation
module Database = Paradb_relational.Database
module Semiring = Paradb_relational.Semiring
module Source = Paradb_query.Source
module Cq = Paradb_query.Cq
module Atom = Paradb_query.Atom
module Constr = Paradb_query.Constr
module Segment = Paradb_storage.Segment
module Planner = Paradb_planner.Planner
module Protocol = Paradb_server.Protocol
module Client = Paradb_server.Client
module Server = Paradb_server.Server
module Frontend = Paradb_server.Frontend
module Guard = Paradb_server.Guard
module Plan = Paradb_server.Plan
module Plan_cache = Paradb_server.Plan_cache
module Session = Paradb_server.Session
module Fault = Paradb_server.Fault
module Metrics = Paradb_telemetry.Metrics
module Export = Paradb_telemetry.Export
module Budget = Paradb_telemetry.Budget
module Clock = Paradb_telemetry.Clock
module Mutate = Paradb_telemetry.Mutate

(* Cluster telemetry.  Counters are cumulative over the process;
   [cluster.inflight] is a high-watermark gauge (see Metrics.set_max).
   Straggler visibility comes from the per-shard round histograms
   [cluster.shard<i>.round.ns] — their p99 against [cluster.round.ns]'s
   is the straggler signal STATS surfaces. *)
let m_rounds = Metrics.counter "cluster.rounds"
let m_bytes_out = Metrics.counter "cluster.bytes_out"
let m_bytes_in = Metrics.counter "cluster.bytes_in"
let m_scatter = Metrics.counter "cluster.eval.scatter"
let m_exchange = Metrics.counter "cluster.eval.exchange"
let m_failover = Metrics.counter "cluster.failover"
let m_redial = Metrics.counter "cluster.redial"
let m_admission = Metrics.counter "cluster.admission.rejected"
let m_deadline = Metrics.counter "cluster.deadline_exceeded"
let h_round = Metrics.histogram "cluster.round.ns"
let g_inflight = Metrics.gauge "cluster.inflight"

(* Exchange reducers answered from an identical reducer gathered
   earlier in the same request (the triangle's three scans of [e]). *)
let m_reducers_reused = Metrics.counter "cluster.exchange.reducers_reused"

(* Gather SHIPs by outcome: [shipped] decoded a payload, [unchanged]
   reused the segment held from an earlier request because the shard
   confirmed its snapshot token. *)
let m_ship_shipped = Metrics.counter "cluster.ship.shipped"
let m_ship_unchanged = Metrics.counter "cluster.ship.unchanged"

(* Replica-health telemetry: a replica write that could not be
   delivered counts on [cluster.write.replica_miss] (and is journaled
   for handoff when a hints dir is configured); DIGEST/REPAIR count
   divergent slices and repair work. *)
let m_replica_miss = Metrics.counter "cluster.write.replica_miss"
let m_divergent = Metrics.counter "cluster.replica.divergent"
let m_repair_runs = Metrics.counter "cluster.repair.runs"
let m_repair_reshipped = Metrics.counter "cluster.repair.reshipped"
let m_repair_rows = Metrics.counter "cluster.repair.rows"

type config = {
  addrs : (string * int) array;
  replicas : int;
  timeout : float option;
  retries : int;
  limits : Guard.limits;
  max_inflight : int option;
  hints_dir : string option;
}

let default_config addrs =
  {
    addrs = Array.of_list addrs;
    replicas = 1;
    timeout = Some 30.0;
    retries = 2;
    limits = Guard.default_limits;
    max_inflight = None;
    hints_dir = None;
  }

module StringSet = Set.Make (String)

(* What the coordinator remembers about a distributed database: the
   full relation-name set (shards drop empty slices, so only the
   coordinator can distinguish "relation exists but this slice is
   empty" from "no such relation") and the total tuple count. *)
type db_info = { rels : StringSet.t; tuples : int }

(* One slice's last validated SHIP answer: which server and entry
   answered, the snapshot token it named ([None]: the answer carried
   none and cannot be revalidated), and the decoded segment. *)
type slot = {
  target : int;
  entry : string;
  snap : string option;
  seg : Segment.t;
}

(* One gather's last result: a slot per slice ([None]: the slice holds
   none of the relation), the union of their segments, and [key], the
   gather's identity — the reducer's cache key and every slot's token,
   [None] when some slot has no token. *)
type gathered = {
  slots : slot option array;
  key : string option;
  union : Relation.t;
}

type t = {
  config : config;
  ring : Ring.t;
  dbs : (string, db_info) Hashtbl.t;
  mu : Mutex.t;
  inflight : int Atomic.t;
  shard_hist : Metrics.histogram array;
  hints : Hints.t option;
  gathers : (string, gathered) Hashtbl.t;
      (** by database and reducer cache key; at most [reuse_capacity] *)
  gather_order : string Queue.t;  (** [gathers]' keys, oldest first *)
  rejoins : Plan_cache.t;  (** compiled exchange re-joins *)
}

(* The bound on held gathers and re-join plans: the plan cache's
   default capacity. *)
let reuse_capacity = 128

let create config =
  let n = Array.length config.addrs in
  if n < 1 then invalid_arg "Coordinator.create: need at least one shard";
  if config.replicas < 1 || config.replicas > n then
    invalid_arg "Coordinator.create: replicas must be in [1, shards]";
  (match config.max_inflight with
  | Some m when m < 1 ->
      invalid_arg "Coordinator.create: max_inflight must be positive"
  | _ -> ());
  (match config.timeout with
  | Some s when not (s > 0.0) ->
      invalid_arg "Coordinator.create: timeout must be positive"
  | _ -> ());
  {
    config;
    ring = Ring.create ~shards:n;
    dbs = Hashtbl.create 8;
    mu = Mutex.create ();
    inflight = Atomic.make 0;
    shard_hist =
      Array.init n (fun i ->
          Metrics.histogram (Printf.sprintf "cluster.shard%d.round.ns" i));
    hints = Option.map Hints.create config.hints_dir;
    gathers = Hashtbl.create 16;
    gather_order = Queue.create ();
    rejoins = Plan_cache.create ~capacity:reuse_capacity ();
  }

let shards t = Array.length t.config.addrs

let find_db t db = Mutex.protect t.mu (fun () -> Hashtbl.find_opt t.dbs db)

(* Read-modify-write of [db]'s info under one lock hold, so concurrent
   writers never drop each other's relation names. *)
let update_db t db f =
  Mutex.protect t.mu (fun () ->
      Hashtbl.replace t.dbs db (f (Hashtbl.find_opt t.dbs db)))

(* Early exit from deep inside a fan-out with a ready-made response. *)
exception Reply of Protocol.response

(* Raised when a shard cannot be reached even after a redial; carries
   the shard index so the final error names the dead server. *)
exception Shard_down of int

let shard_down_msg t s =
  let host, port = t.config.addrs.(s) in
  Printf.sprintf "shard %d (%s:%d) unreachable" s host port

(* Replica [rank] of database [db]'s slice [s] lives on shard
   [(s + rank) mod n] under the name [db@r<rank>]; rank 0 is the
   primary under the plain name.  Shard j can hold [db@r1] for exactly
   one slice (j - 1 mod n), so the name is unambiguous per shard. *)
let replica_name db ~rank =
  if rank = 0 then db else Printf.sprintf "%s@r%d" db rank

(* One frame to one shard over this connection's pooled client: a
   request line, or a BULK header and its fact lines.
   A transport failure on a pooled connection redials once (the shard
   may just have restarted); a failure on a fresh connection means the
   shard is down.  The injected faults ride here: [shard_loss] drops
   the pooled socket first (forcing the redial, and the failover above
   us if the shard really is gone), [straggler_delay] stalls the
   sub-request. *)
let send_frame t conns budget shard (frame : Hints.frame) =
  Fault.straggler_sleep ();
  if Fault.shard_loss_now () then (
    match conns.(shard) with
    | Some c ->
        (try Client.close c with _ -> ());
        conns.(shard) <- None
    | None -> ());
  let arm c =
    match budget with
    | None -> ()
    | Some b ->
        let remaining = Budget.remaining_ns b in
        if remaining <= 0 then
          raise
            (Budget.Exhausted
               {
                 budget_ns = Budget.budget_ns b;
                 elapsed_ns = Budget.elapsed_ns b;
               });
        let secs = float_of_int remaining /. 1e9 in
        Client.set_timeout c
          (match t.config.timeout with
          | Some tmo -> Float.min secs tmo
          | None -> secs)
  in
  let dial () =
    let host, port = t.config.addrs.(shard) in
    match
      Client.connect ~host ?timeout:t.config.timeout ~retries:t.config.retries
        ~port ()
    with
    | c ->
        conns.(shard) <- Some c;
        c
    | exception (Unix.Unix_error _ | Failure _ | Sys_error _) ->
        raise (Shard_down shard)
  in
  let attempt c =
    arm c;
    match
      match frame.Hints.payload with
      | [] -> Client.request_line c frame.Hints.header
      | payload -> Client.request_bulk c ~header:frame.Hints.header payload
    with
    | r -> r
    | exception ((Failure _ | Unix.Unix_error _ | Sys_error _ | End_of_file) as e)
      ->
        (try Client.close c with _ -> ());
        conns.(shard) <- None;
        raise e
  in
  let t0 = Clock.now_ns () in
  let resp =
    match conns.(shard) with
    | Some c -> (
        match attempt c with
        | r -> r
        | exception (Failure _ | Unix.Unix_error _ | Sys_error _ | End_of_file)
          ->
            (* stale pooled connection; redial once *)
            Metrics.incr m_redial;
            let c = dial () in
            (try attempt c
             with Failure _ | Unix.Unix_error _ | Sys_error _ | End_of_file ->
               raise (Shard_down shard)))
    | None -> (
        let c = dial () in
        try attempt c
        with Failure _ | Unix.Unix_error _ | Sys_error _ | End_of_file ->
          raise (Shard_down shard))
  in
  Metrics.observe t.shard_hist.(shard) (Clock.now_ns () - t0);
  Metrics.incr
    ~by:(Protocol.wire_bytes (frame.Hints.header :: frame.Hints.payload))
    m_bytes_out;
  Metrics.incr ~by:(Protocol.wire_bytes (Protocol.response_to_lines resp))
    m_bytes_in;
  resp

let line_frame header = { Hints.header; payload = [] }

(* A data request addressed to slice [shard] of [db]: try the primary,
   then walk the replica ranks.  Each rank is a different server AND a
   different entry name, so a half-loaded replica never shadows the
   primary silently.  [mk ~target entry] builds the request line; the
   answer comes back with the server and entry that gave it. *)
let rec data_call t conns budget ~shard ~rank ~db mk =
  let target = Ring.replica_shard t.ring ~shard ~rank in
  let entry = replica_name db ~rank in
  match send_frame t conns budget target (line_frame (mk ~target entry)) with
  | r -> (target, entry, r)
  | exception (Shard_down _ as e) ->
      if rank + 1 >= t.config.replicas then raise e
      else begin
        Metrics.incr m_failover;
        data_call t conns budget ~shard ~rank:(rank + 1) ~db mk
      end

(* One scatter-gather round: a wave of sub-requests whose wall time is
   the straggler's. *)
let round f =
  let t0 = Clock.now_ns () in
  let r = f () in
  Metrics.incr m_rounds;
  Metrics.observe h_round (Clock.now_ns () - t0);
  r

(* Fact-file serialization of one slice, one [name(v1, v2).] line per
   tuple — the GATHER line format, which [Source.parse_facts] reads back
   on the shard.  Empty relations vanish here; the coordinator's
   [db_info] keeps the full schema so queries over empty slices still
   resolve. *)
let slice_lines db =
  List.concat_map (fun r -> Session.fact_lines r) (Database.relations db)

(* A replica write (rank >= 1) that could not be delivered.  The write
   as a whole still succeeds — the primary has the data — but the miss
   is never silent: it is counted, logged, and (with a hints dir)
   journaled as a frame to replay when the replica's shard is back. *)
let replica_missed t ~target ~rank ~reason frame =
  Metrics.incr m_replica_miss;
  let host, port = t.config.addrs.(target) in
  Printf.eprintf
    "paradb-cluster: replica write miss: rank %d on shard %d (%s:%d): %s%s\n%!"
    rank target host port reason
    (match t.hints with
    | Some _ -> " (journaled for handoff)"
    | None -> " (NO hints dir: replica will diverge until REPAIR)");
  Option.iter (fun h -> Hints.journal h ~shard:target frame) t.hints

(* Deliver one journaled frame to its shard.  [`Delivered] clears it;
   [`Unreachable] keeps it (and stops the replay — the shard is still
   down); a shard-side [ERR] means the frame itself is bad (it will
   never succeed), so it is dropped and counted. *)
let deliver_frame t conns shard f =
  match send_frame t conns None shard f with
  | Protocol.Ok_ _ -> `Delivered
  | Protocol.Err e ->
      Printf.eprintf "paradb-cluster: dropping bad hint for shard %d: %s\n%!"
        shard e;
      `Bad
  | exception Shard_down _ -> `Unreachable

(* Replay every shard's pending hints, in journal order, stopping at
   the first shard that is still unreachable.  Runs BEFORE any new
   write fans out, so a recovered replica applies the missed writes
   before the new one — order-preserving per shard. *)
let replay_hints t conns =
  match t.hints with
  | None -> ()
  | Some h ->
      for shard = 0 to shards t - 1 do
        if Hints.pending h ~shard then begin
          let frames = Hints.read_frames h ~shard in
          let rec go delivered dropped = function
            | [] -> (delivered, dropped, [])
            | f :: rest -> (
                match deliver_frame t conns shard f with
                | `Delivered -> go (delivered + 1) dropped rest
                | `Bad -> go delivered (dropped + 1) rest
                | `Unreachable -> (delivered, dropped, f :: rest))
          in
          let delivered, dropped, undelivered = go 0 0 frames in
          if delivered > 0 then Hints.count_replayed delivered;
          if dropped > 0 then Hints.count_dropped dropped;
          if delivered > 0 || dropped > 0 then
            Hints.rewrite h ~shard undelivered
        end
      done

(* The one replica write loop: send [frame name] to every replica rank
   of slice [slice], [name] being the rank's entry name, and count the
   ranks that acknowledged.  A rank that answers ERR or cannot be
   reached goes through {!replica_missed} (counted, logged, journaled
   for handoff) — except that with [~primary_fails] a rank-0 failure
   fails the whole request: a write must land on its owner, while
   repair treats every rank alike. *)
let write_ranks t conns ~primary_fails ~db ~slice frame =
  let acked = ref 0 in
  for rank = 0 to t.config.replicas - 1 do
    let target = Ring.replica_shard t.ring ~shard:slice ~rank in
    let f = frame (replica_name db ~rank) in
    let fails = primary_fails && rank = 0 in
    match send_frame t conns None target f with
    | Protocol.Ok_ _ -> incr acked
    | Protocol.Err e when fails ->
        raise (Reply (Protocol.Err (Printf.sprintf "shard %d: %s" target e)))
    | Protocol.Err e -> replica_missed t ~target ~rank ~reason:e f
    | exception Shard_down s when not fails ->
        replica_missed t ~target ~rank ~reason:(shard_down_msg t s) f
  done;
  !acked

let bulk_frame lines name =
  {
    Hints.header = Printf.sprintf "BULK %s %d" name (List.length lines);
    payload = lines;
  }

(* Partition [database] and ship every slice to its owner shard and
   each replica rank as one BULK frame per (shard, entry).  Loading
   cannot fail over — a slice must land on its owner — so a dead owner
   (rank 0) fails the LOAD with its name; a dead replica is a
   {!replica_missed}. *)
let distribute t conns ~db database =
  replay_hints t conns;
  let slices = Partition.split t.ring database in
  round (fun () ->
      Array.iteri
        (fun slice part ->
          ignore
            (write_ranks t conns ~primary_fails:true ~db ~slice
               (bulk_frame (slice_lines part))))
        slices);
  let rels =
    List.fold_left
      (fun acc r -> StringSet.add (Relation.name r) acc)
      StringSet.empty (Database.relations database)
  in
  update_db t db (fun _ -> { rels; tuples = Database.size database });
  Protocol.Ok_
    {
      summary =
        Printf.sprintf "%s shards=%d replicas=%d relations=%d tuples=%d" db
          (shards t) t.config.replicas
          (StringSet.cardinal rels)
          (Database.size database);
      payload = [];
    }

let do_load t conns ~db ~path =
  match Source.load_database path with
  | Error e -> Protocol.Err e
  | Ok database -> distribute t conns ~db database

let do_bulk_text t conns ~db text =
  match Source.parse_facts text with
  | Error e -> Protocol.Err e
  | Ok database -> distribute t conns ~db database

(* FACT routes the one tuple to its owner (and the owner's replica
   entries).  Like LOAD, it does not fail over, and only a primary
   failure fails the request. *)
let do_fact t conns ~db ~fact =
  match Source.parse_facts fact with
  | Error e -> Protocol.Err e
  | Ok parsed -> (
      match Database.relations parsed with
      | [ r ] when Relation.cardinality r = 1 ->
          replay_hints t conns;
          let tup = List.hd (Relation.tuples r) in
          let owner =
            if Tuple.arity tup = 0 then 0
            else Ring.owner_of_value t.ring tup.(0)
          in
          round (fun () ->
              ignore
                (write_ranks t conns ~primary_fails:true ~db ~slice:owner
                   (fun name ->
                     line_frame (Printf.sprintf "FACT %s %s" name fact))));
          update_db t db (fun info ->
              let info =
                Option.value info
                  ~default:{ rels = StringSet.empty; tuples = 0 }
              in
              {
                rels = StringSet.add (Relation.name r) info.rels;
                tuples = info.tuples + 1;
              });
          Protocol.Ok_
            { summary = Printf.sprintf "%s shard=%d" db owner; payload = [] }
      | _ -> Protocol.Err "FACT: expected exactly one ground fact")

(* --- EVAL ------------------------------------------------------- *)

let positional_schema m = List.init m (fun i -> Printf.sprintf "a%d" i)

(* A shard that never received a slice of some relation (its slice was
   empty, so BULK carried no line for it) answers a missing-relation
   error — "query names a relation missing from ..." out of the plan
   path, "Database.find: no relation ..." out of an engine.  A shard
   that never received any fact of the database at all (the FACT path
   creates shard-side catalog entries lazily, on the owning replicas
   only) answers "no database ...".  After the coordinator's own
   precheck (the database and every body relation provably exist
   cluster-wide), any of the three can only mean an empty
   contribution. *)
let is_missing_relation e =
  String.starts_with ~prefix:"query names a relation" e
  || String.starts_with ~prefix:"Database.find: no relation" e
  || String.starts_with ~prefix:"no database " e

(* One SHIP answer's segment, validated: exactly one payload line, hex,
   every section checksum, and the arity the coordinator expects.  Any
   failure raises [Segment.Corrupt] naming [source]. *)
let decode_shipped ~source ~arity payload =
  match payload with
  | [ hex ] ->
      let seg = Segment.decode ~source (Segment.of_hex ~source hex) in
      if Segment.arity seg <> arity then
        raise
          (Segment.Corrupt
             (Printf.sprintf "segment %s: arity %d, expected %d" source
                (Segment.arity seg) arity));
      seg
  | _ ->
      raise
        (Segment.Corrupt
           (Printf.sprintf "segment %s: %d payload lines, expected 1" source
              (List.length payload)))

(* The set union of decoded segments as one relation [name] over a
   positional schema: codes go straight from the segment pages into the
   row store, which dedups.  Decoding is lazy, so a corrupt code page
   raises [Segment.Corrupt] from here. *)
let union_segments ~name ~arity segs =
  let drop_last = Mutate.enabled "ship_drop_row" in
  let rows seg =
    let n = Segment.rows seg in
    Seq.take
      (if drop_last && n > 0 then n - 1 else n)
      (Segment.rows_seq seg)
  in
  Relation.of_codes ~name
    ~size_hint:(List.fold_left (fun acc seg -> acc + Segment.rows seg) 0 segs)
    ~schema:(positional_schema arity)
    (Seq.concat_map rows (List.to_seq segs))

let truncated_answer summary =
  List.mem "truncated=true" (String.split_on_char ' ' summary)

(* The gather this coordinator last validated under [key], if still
   held; [remember] holds a new one, dropping the oldest past
   [reuse_capacity]. *)
let held t key = Mutex.protect t.mu (fun () -> Hashtbl.find_opt t.gathers key)

let remember t key g =
  Mutex.protect t.mu (fun () ->
      if not (Hashtbl.mem t.gathers key) then begin
        Queue.push key t.gather_order;
        if Queue.length t.gather_order > reuse_capacity then
          Hashtbl.remove t.gathers (Queue.pop t.gather_order)
      end;
      Hashtbl.replace t.gathers key g)

let snap_word word =
  if String.starts_with ~prefix:"snap=" word then
    Some (String.sub word 5 (String.length word - 5))
  else None

let summary_snap summary =
  List.find_map snap_word (String.split_on_char ' ' summary)

(* [shipped unchanged snap=<token>]: exactly three words, which no
   answer carrying rows can be (those always have cache=, rows=, ns=). *)
let unchanged_snap summary =
  match String.split_on_char ' ' summary with
  | [ "shipped"; "unchanged"; word ] -> snap_word word
  | _ -> None

(* [Some] of every value when none is [None]. *)
let all_some opts =
  List.fold_right
    (fun o acc ->
      match (o, acc) with Some x, Some rest -> Some (x :: rest) | _ -> None)
    opts (Some [])

(* One slice of a gather.  [prior] is the slice's slot from the last
   validated gather; when the request goes to the server and entry that
   slot came from, it is offered as [if=<snap>], and a matching
   [unchanged] answer reuses it.  An [unchanged] answer to any other
   request is a malformed peer, never a reuse. *)
let ship_slice t conns budget ~db ~slice ~arity ~prior query_text =
  let offered ~target entry =
    match prior with
    | Some ({ snap = Some snap; _ } as p)
      when p.target = target && p.entry = entry ->
        Some (p, snap)
    | _ -> None
  in
  let target, entry, resp =
    data_call t conns budget ~shard:slice ~rank:0 ~db (fun ~target entry ->
        match offered ~target entry with
        | Some (_, snap) ->
            Printf.sprintf "SHIP %s if=%s %s" entry snap query_text
        | None -> Printf.sprintf "SHIP %s %s" entry query_text)
  in
  let source = Printf.sprintf "shard %d" slice in
  let invalid fmt =
    Printf.ksprintf (fun m -> raise (Segment.Corrupt (source ^ ": " ^ m))) fmt
  in
  match resp with
  | Protocol.Ok_ { summary; _ } when truncated_answer summary ->
      raise
        (Reply
           (Protocol.Err
              (Printf.sprintf
                 "shard %d truncated its answer; raise max-rows on the shards"
                 slice)))
  | Protocol.Ok_ { summary; payload } -> (
      match (unchanged_snap summary, offered ~target entry) with
      | Some got, Some (p, asked) when got = asked && payload = [] ->
          Metrics.incr m_ship_unchanged;
          Some p
      | Some got, Some (_, asked) ->
          invalid "unchanged at snap %s, asked about %s" got asked
      | Some _, None -> invalid "unchanged answer to an unconditional SHIP"
      | None, _ ->
          let seg = decode_shipped ~source ~arity payload in
          Metrics.incr m_ship_shipped;
          Some { target; entry; snap = summary_snap summary; seg })
  | Protocol.Err e when is_missing_relation e -> None
  | Protocol.Err e ->
      raise (Reply (Protocol.Err (Printf.sprintf "shard %d: %s" slice e)))

(* Ship the answer of [q] from every slice and union the decoded
   segments into relation [head_name].  A shard that truncated its
   answer, or whose payload fails to decode, is a clean [ERR] for the
   whole request: a partial reducer would be silently wrong.

   Gathers are held across requests, keyed by database and
   [Cq.cache_key q]: each slice is asked [if=] its held snapshot
   changed, and the union is rebuilt only when some slot's token did.
   Also returns the gather's [key] (see {!gathered}). *)
let gather_all t conns budget ~db ~head_name q =
  let arity = List.length q.Cq.head in
  let rkey = Cq.cache_key q in
  let hkey = db ^ " " ^ rkey in
  let last = held t hkey in
  let text = Cq.to_string q in
  try
    let slots =
      Array.init (shards t) (fun slice ->
          ship_slice t conns budget ~db ~slice ~arity text
            ~prior:(Option.bind last (fun g -> g.slots.(slice))))
    in
    let token = function
      | None -> Some "-"
      | Some { snap = None; _ } -> None
      | Some { target; entry; snap = Some snap; _ } ->
          Some (Printf.sprintf "%d/%s/%s" target entry snap)
    in
    let key =
      all_some (List.map token (Array.to_list slots))
      |> Option.map (fun toks -> String.concat " " (rkey :: toks))
    in
    let union =
      match last with
      | Some g when key <> None && g.key = key -> g.union
      | _ ->
          let g =
            {
              slots;
              key;
              union =
                union_segments ~name:head_name ~arity
                  (List.filter_map
                     (Option.map (fun s -> s.seg))
                     (Array.to_list slots));
            }
          in
          if key <> None then remember t hkey g;
          g.union
    in
    (Relation.with_name head_name union, key)
  with Segment.Corrupt msg ->
    raise (Reply (Protocol.Err ("shard payload invalid: " ^ msg)))

(* Scatter fast path: every atom's first argument is the same variable,
   so the whole query is co-partitioned — each answer is witnessed
   entirely on the shard owning that variable's value.  One round:
   evaluate the original query on every shard, union. *)
let scatter_eval t conns budget ~db q =
  round (fun () -> fst (gather_all t conns budget ~db ~head_name:q.Cq.name q))

(* Scatter counting: under co-partitioning every satisfying valuation's
   witness tuples all carry the same first value, so the valuation is
   counted on exactly one shard — per-shard counts partition the total
   and the coordinator just sums them.  A shard whose slice of some
   body relation is empty (never shipped) contributes zero. *)
let scatter_count t conns budget ~db ~query =
  round (fun () ->
      List.fold_left Semiring.checked_add 0
        (List.init (shards t) (fun s ->
             match
               data_call t conns budget ~shard:s ~rank:0 ~db
                 (fun ~target:_ entry ->
                   Printf.sprintf "COUNT %s auto %s" entry query)
             with
             | _, _, Protocol.Ok_ { payload = [ n ]; _ }
               when int_of_string_opt (String.trim n) <> None ->
                 int_of_string (String.trim n)
             | _, _, Protocol.Ok_ _ ->
                 raise
                   (Reply
                      (Protocol.Err
                         (Printf.sprintf "shard %d: malformed COUNT payload" s)))
             | _, _, Protocol.Err e when is_missing_relation e -> 0
             | _, _, (Protocol.Err e as overflow) when e = Session.count_overflow
               ->
                 raise (Reply overflow)
             | _, _, Protocol.Err e ->
                 raise
                   (Reply (Protocol.Err (Printf.sprintf "shard %d: %s" s e))))))

(* --- reducer exchange ------------------------------------------- *)

(* Every reducer is named [gx]; the exchange aliases each gathered copy
   to [gx<i>], so identical reducers share one key and one gather. *)
let reducer_head = "gx"

(* The reducer for body atom [i]: its matching tuples, semijoin-reduced
   against whatever of the rest of the query is provably co-located.
   An atom [j] whose first argument is the same variable is
   co-partitioned with atom [i] (any joint witness puts both tuples on
   the owner of that variable's value), so it can prune shard-side;
   constraints whose variables all occur in the included atoms prune
   too.  The head repeats the atom's arguments verbatim — constants
   and repeated variables included — so the gathered relation is
   exactly a reduced copy of the atom's relation, and the coordinator
   can re-join by renaming the atom to [gx<i>]. *)
let reducer q i =
  let atom = List.nth q.Cq.body i in
  let partners =
    match Planner.first_var atom with
    | None -> []
    | Some v ->
        List.filteri
          (fun j a -> j <> i && Planner.first_var a = Some v)
          q.Cq.body
  in
  let body = atom :: partners in
  let bound =
    List.fold_left
      (fun acc a -> StringSet.union acc (StringSet.of_list (Atom.vars a)))
      StringSet.empty body
  in
  let constraints =
    List.filter
      (fun c ->
        List.for_all (fun v -> StringSet.mem v bound) (Constr.vars c))
      q.Cq.constraints
  in
  Cq.make ~name:reducer_head ~constraints ~head:atom.Atom.args body

(* General path, two rounds.  Round 1 gathers one reducer relation per
   body atom from every shard; round 2 joins them at the coordinator
   under the original head and constraints, with every atom renamed to
   its reducer.  Linear-time class is preserved: the reducers are
   selections/semijoins (linear shard-side), the exchange moves only
   reduced relations, and the final join runs the same planner the
   single node would.  Reducers equal up to variable renaming (same
   [Cq.cache_key]) are gathered once and aliased.  Besides the scratch
   database and the rewritten query, returns the re-join's identity:
   every gather's key, [None] if some gather has none. *)
let exchange_scratch t conns budget ~db q =
  let gname i = Printf.sprintf "gx%d" i in
  let shipped = Hashtbl.create 4 in
  let gathered =
    round (fun () ->
        List.mapi
          (fun i _atom ->
            let r = reducer q i in
            let key = Cq.cache_key r in
            let rel, gkey =
              match Hashtbl.find_opt shipped key with
              | Some g ->
                  Metrics.incr m_reducers_reused;
                  g
              | None ->
                  let g =
                    gather_all t conns budget ~db ~head_name:reducer_head r
                  in
                  Hashtbl.add shipped key g;
                  g
            in
            (Relation.with_name (gname i) rel, gkey))
          q.Cq.body)
  in
  let scratch =
    List.fold_left
      (fun acc (r, _) -> Database.add r acc)
      Database.empty gathered
  in
  let rewritten =
    Cq.make ~name:q.Cq.name ~constraints:q.Cq.constraints ~head:q.Cq.head
      (List.mapi
         (fun i atom -> Atom.make (gname i) atom.Atom.args)
         q.Cq.body)
  in
  let key =
    Option.map (String.concat "\n") (all_some (List.map snd gathered))
  in
  (scratch, rewritten, key)

(* Round 2: the re-join, compiled once per re-join identity and held in
   [t.rejoins] — the same gathers always build the same scratch rows.
   [scoped] is {!Plan.scoped_key} or {!Plan.scoped_count_key}, with the
   identity standing in for the database. *)
let rejoin t budget ~scoped ~prepare ~exec (scratch, rewritten, key) =
  round (fun () ->
      let build () =
        prepare ?budget (Plan.analyze Plan.Auto rewritten) scratch ~generation:0
      in
      let plan =
        match key with
        | None -> build ()
        | Some db ->
            fst
              (Plan_cache.find_or_build t.rejoins
                 ~key:(scoped ~db ~generation:0 Plan.Auto rewritten)
                 build)
      in
      exec ?budget plan scratch rewritten)

let exchange_eval t conns budget ~db q =
  rejoin t budget ~scoped:Plan.scoped_key ~prepare:Plan.prepare
    ~exec:(Plan.evaluate ?family:None)
    (exchange_scratch t conns budget ~db q)

(* COUNT over the exchange: the same round-1 reducers (semijoin
   reduction is count-preserving — a dropped tuple takes part in no
   satisfying valuation), then the exact count computed locally on the
   scratch database. *)
let exchange_count t conns budget ~db q =
  rejoin t budget ~scoped:Plan.scoped_count_key ~prepare:Plan.prepare_count
    ~exec:Plan.count
    (exchange_scratch t conns budget ~db q)

(* Shared EVAL/GATHER/COUNT core: parse, precheck the relation names
   against the coordinator's recorded schema, arm the deadline, pick
   the distribution strategy, fan out.  [scatter]/[exchange] are the
   verb's two strategies (relation-valued for EVAL/GATHER, int-valued
   for COUNT); [render] turns the result into the verb's payload and
   summary. *)
let guarded t ~db ~engine ~query ~scatter ~exchange render =
  (* The engine token is validated for wire compatibility but the
     cluster always dispatches auto: shard-side engines are a
     shard-local concern, and every engine computes the same answer set
     (the differential oracle's invariant). *)
  Session.with_query ~engine ~query @@ fun _kind q ->
  match find_db t db with
  | None -> Protocol.Err (Printf.sprintf "no database %s (use LOAD or FACT)" db)
  | Some info
    when List.exists
           (fun a -> not (StringSet.mem a.Atom.rel info.rels))
           q.Cq.body ->
      Protocol.Err (Printf.sprintf "query names a relation missing from %s" db)
  | Some _ -> (
      let budget =
        Option.map
          (fun deadline_ns -> Budget.start ~deadline_ns)
          t.config.limits.Guard.deadline_ns
      in
      let t0 = Clock.now_ns () in
      try
        let mode, result =
          match Planner.shard_choice (Plan.analyze Plan.Auto q).Plan.pplan with
          | Planner.Copartitioned _ ->
              Metrics.incr m_scatter;
              ("scatter", scatter budget q)
          | Planner.Exchange ->
              Metrics.incr m_exchange;
              ("exchange", exchange budget q)
        in
        render ~mode ~ns:(Clock.now_ns () - t0) result
      with
      | Budget.Exhausted { elapsed_ns; _ } ->
          Metrics.incr m_deadline;
          Protocol.Err
            (Printf.sprintf "deadline-exceeded after %dns" elapsed_ns)
      | Semiring.Count_overflow -> Protocol.Err Session.count_overflow
      | Invalid_argument msg -> Protocol.Err msg)

let guarded_eval t conns ~db ~engine ~query render =
  guarded t ~db ~engine ~query
    ~scatter:(fun budget q -> scatter_eval t conns budget ~db q)
    ~exchange:(fun budget q -> exchange_eval t conns budget ~db q)
    render

let render_eval t ~mode ~ns result =
  let rows = Relation.cardinality result in
  let limit, truncated = Session.row_cap ~limits:t.config.limits rows in
  Protocol.Ok_
    {
      summary =
        Printf.sprintf "engine=cluster mode=%s shards=%d rows=%d ns=%d%s" mode
          (shards t) rows ns
          (if truncated then " truncated=true" else "");
      payload = Plan.sorted_tuples ?limit result;
    }

(* GATHER at the coordinator answers fact lines exactly like a shard
   would, so coordinators can themselves be gathered from (tiered
   topologies). *)
let render_gather t ~mode:_ ~ns result =
  Session.gather_answer ~limits:t.config.limits ~cache:"miss" ~ns result

(* SHIP at the coordinator answers like a shard's SHIP, so coordinators
   can themselves be shipped from. *)
let render_ship t ~mode:_ ~ns result =
  Session.ship_answer ~limits:t.config.limits ~cache:"miss" ~ns result

(* Admission control: the inflight count is tracked (and its
   high-watermark published) unconditionally; the limit only rejects
   when configured.  Layered on the Guard limits rather than replacing
   them — deadline and row caps still apply to admitted requests. *)
let admitted t f =
  let cur = Atomic.fetch_and_add t.inflight 1 + 1 in
  Metrics.set_max g_inflight cur;
  Fun.protect
    ~finally:(fun () -> ignore (Atomic.fetch_and_add t.inflight (-1)))
    (fun () ->
      match t.config.max_inflight with
      | Some cap when cur > cap ->
          Metrics.incr m_admission;
          Protocol.Err
            (Printf.sprintf "admission-limited: %d requests in flight (max %d)"
               cur cap)
      | _ -> f ())

let do_eval t conns ~db ~engine ~query =
  admitted t (fun () -> guarded_eval t conns ~db ~engine ~query (render_eval t))

let do_gather t conns ~db ~query =
  admitted t (fun () ->
      guarded_eval t conns ~db ~engine:"auto" ~query (render_gather t))

let do_ship t conns ~db ~query =
  admitted t (fun () ->
      guarded_eval t conns ~db ~engine:"auto" ~query (render_ship t))

(* COUNT at the coordinator: the payload is the same single bare-count
   line a single node answers, so clients (and the differential
   oracle's count engines) read both identically. *)
let render_count t ~mode ~ns n =
  Protocol.Ok_
    {
      summary =
        Printf.sprintf "engine=cluster mode=%s shards=%d count=%d ns=%d" mode
          (shards t) n ns;
      payload = [ string_of_int n ];
    }

let do_count t conns ~db ~engine ~query =
  admitted t (fun () ->
      (* the single node's refusal: the fpt engine's randomized trials
         witness satisfiability, not multiplicities *)
      if Plan.engine_kind_of_string engine = Some Plan.Fpt then
        Protocol.Err (Plan.cannot_count Plan.E_fpt)
      else
        guarded t ~db ~engine ~query
          ~scatter:(fun budget _q -> scatter_count t conns budget ~db ~query)
          ~exchange:(fun budget q -> exchange_count t conns budget ~db q)
          (render_count t))

(* --- replica digests and repair --------------------------------- *)

(* The digest of replica [rank] of slice [slice]: the shard's sorted
   per-relation fingerprint lines.  A replica that never received the
   entry digests as empty rather than as an error — an empty slice and
   a missing entry are the same logical content. *)
let rank_digest t conns ~db ~slice ~rank =
  let target = Ring.replica_shard t.ring ~shard:slice ~rank in
  match
    send_frame t conns None target
      (line_frame (Printf.sprintf "DIGEST %s" (replica_name db ~rank)))
  with
  | Protocol.Ok_ { payload; _ } -> Ok (List.sort compare payload)
  | Protocol.Err e when is_missing_relation e -> Ok []
  | Protocol.Err e -> Error e
  | exception Shard_down s -> Error (shard_down_msg t s)

let slice_digests t conns ~db ~slice =
  List.init t.config.replicas (fun rank ->
      (rank, rank_digest t conns ~db ~slice ~rank))

(* Divergent = two readable ranks disagree.  Unreachable ranks are not
   comparable (and not divergent by themselves — they may come back
   bit-identical). *)
let slice_divergent digests =
  let oks =
    List.filter_map (function _, Ok d -> Some d | _, Error _ -> None) digests
  in
  match oks with
  | [] | [ _ ] -> false
  | first :: rest -> List.exists (fun d -> d <> first) rest

let digest_report digests =
  List.concat_map
    (fun (rank, d) ->
      match d with
      | Ok [] -> [ Printf.sprintf "  rank %d (empty)" rank ]
      | Ok lines -> List.map (Printf.sprintf "  rank %d %s" rank) lines
      | Error e -> [ Printf.sprintf "  rank %d unreachable: %s" rank e ])
    digests

(* [relation <name> <arity> <rows> <crc>] — the session's DIGEST line. *)
let parse_digest_line l =
  match String.split_on_char ' ' (String.trim l) with
  | [ "relation"; name; arity; _rows; _crc ] ->
      Option.map (fun a -> (name, a)) (int_of_string_opt arity)
  | _ -> None

let full_scan_query name arity =
  let vars = List.init arity (Printf.sprintf "V%d") in
  Printf.sprintf "%s(%s) :- %s(%s)." name
    (String.concat ", " vars)
    name (String.concat ", " vars)

(* Repair one divergent slice: take the set union of every readable
   rank's content and re-ship it to every rank as a fresh BULK.

   Union, not owner-wins: writes here are monotone (LOAD appends, FACT
   adds), so the true content is a superset of every rank's copy and
   the union reconstructs it even when the owner itself restarted
   empty and only a replica still holds older facts.  The trade-off is
   that a rank holding rows the others never saw (which monotone
   writes cannot produce, short of a torn BULK) has those rows spread
   rather than deleted. *)
let repair_slice t conns ~db ~slice digests =
  let specs = Hashtbl.create 8 in
  List.iter
    (function
      | _, Ok lines ->
          List.iter
            (fun l ->
              match parse_digest_line l with
              | Some (name, arity) -> Hashtbl.replace specs name arity
              | None -> ())
            lines
      | _, Error _ -> ())
    digests;
  (* Scan every readable rank with SHIP and decode everything before
     re-shipping anything: a rank that truncated its scan or answered an
     undecodable payload fails the slice's repair and touches no rank. *)
  let exception Truncated_scan in
  let scan () =
    let scans = Hashtbl.create 8 in
    List.iter
      (fun (rank, d) ->
        match d with
        | Error _ -> ()
        | Ok _ ->
            let target = Ring.replica_shard t.ring ~shard:slice ~rank in
            Hashtbl.iter
              (fun name arity ->
                if arity >= 1 then
                  match
                    send_frame t conns None target
                      (line_frame
                         (Printf.sprintf "SHIP %s %s" (replica_name db ~rank)
                            (full_scan_query name arity)))
                  with
                  | Protocol.Ok_ { summary; _ } when truncated_answer summary
                    ->
                      raise Truncated_scan
                  | Protocol.Ok_ { payload; _ } ->
                      let seg =
                        decode_shipped
                          ~source:(Printf.sprintf "rank %d of %s" rank name)
                          ~arity payload
                      in
                      Hashtbl.replace scans name
                        (seg
                        :: Option.value ~default:[] (Hashtbl.find_opt scans name))
                  | Protocol.Err _ -> ()
                  | exception Shard_down _ -> ())
              specs)
      digests;
    Database.of_relations
      (Hashtbl.fold
         (fun name segs acc ->
           union_segments ~name ~arity:(Hashtbl.find specs name) segs :: acc)
         scans [])
  in
  match scan () with
  | exception Truncated_scan ->
      Error "a rank truncated its scan; raise max-rows on the shards"
  | exception Segment.Corrupt msg -> Error ("rank payload invalid: " ^ msg)
  | udb ->
      let rows = Database.size udb in
      let shipped =
        write_ranks t conns ~primary_fails:false ~db ~slice
          (bulk_frame (slice_lines udb))
      in
      Metrics.incr ~by:shipped m_repair_reshipped;
      Metrics.incr ~by:rows m_repair_rows;
      Ok (shipped, rows)

(* DIGEST at the coordinator: the dry run — compare every slice's
   replica digests and report divergence without touching anything. *)
let do_digest t conns ~db =
  match find_db t db with
  | None -> Protocol.Err (Printf.sprintf "no database %s (use LOAD or FACT)" db)
  | Some _ ->
      round (fun () ->
          let divergent = ref 0 in
          let payload =
            List.concat_map
              (fun slice ->
                let digests = slice_digests t conns ~db ~slice in
                if slice_divergent digests then begin
                  incr divergent;
                  Metrics.incr m_divergent;
                  Printf.sprintf "slice %d divergent" slice
                  :: digest_report digests
                end
                else [])
              (List.init (shards t) Fun.id)
          in
          Protocol.Ok_
            {
              summary =
                Printf.sprintf "digest %s slices=%d replicas=%d divergent=%d"
                  db (shards t) t.config.replicas !divergent;
              payload;
            })

(* REPAIR: replay any pending hints first (handoff may already close
   the gap), then re-ship every slice whose replicas still disagree. *)
let do_repair t conns ~db =
  match find_db t db with
  | None -> Protocol.Err (Printf.sprintf "no database %s (use LOAD or FACT)" db)
  | Some _ ->
      Metrics.incr m_repair_runs;
      replay_hints t conns;
      round (fun () ->
          let divergent = ref 0 and reshipped = ref 0 and rows = ref 0 in
          let payload =
            List.concat_map
              (fun slice ->
                let digests = slice_digests t conns ~db ~slice in
                if slice_divergent digests then begin
                  incr divergent;
                  Metrics.incr m_divergent;
                  match repair_slice t conns ~db ~slice digests with
                  | Ok (shipped, r) ->
                      reshipped := !reshipped + shipped;
                      rows := !rows + r;
                      [
                        Printf.sprintf "slice %d repaired ranks=%d rows=%d"
                          slice shipped r;
                      ]
                  | Error e ->
                      [ Printf.sprintf "slice %d repair failed: %s" slice e ]
                end
                else [])
              (List.init (shards t) Fun.id)
          in
          Protocol.Ok_
            {
              summary =
                Printf.sprintf
                  "repaired %s slices=%d divergent=%d reshipped=%d rows=%d" db
                  (shards t) !divergent !reshipped !rows;
              payload;
            })

let do_stats t =
  let dbs =
    Mutex.lock t.mu;
    let l =
      Hashtbl.fold (fun name info acc -> (name, info) :: acc) t.dbs []
    in
    Mutex.unlock t.mu;
    List.sort compare l
  in
  Protocol.Ok_
    {
      summary = "stats";
      payload =
        [
          Printf.sprintf "cluster.shards %d" (shards t);
          Printf.sprintf "cluster.replicas %d" t.config.replicas;
          Printf.sprintf "cluster.vnodes %d" Ring.default_vnodes;
        ]
        @ (match t.hints with
          | None -> []
          | Some h ->
              [
                Printf.sprintf "cluster.hints.pending %d"
                  (List.fold_left
                     (fun acc s ->
                       acc + if Hints.pending h ~shard:s then
                               Hints.pending_frames h ~shard:s
                             else 0)
                     0
                     (List.init (shards t) Fun.id));
              ])
        @ List.concat_map
            (fun (name, info) ->
              [
                Printf.sprintf "db.%s %d" name info.tuples;
                Printf.sprintf "db.%s.relations %d" name
                  (StringSet.cardinal info.rels);
              ])
            dbs
        @ Export.to_table ~prefix:"telemetry." (Metrics.snapshot ());
    }

(* --- the per-connection front end ------------------------------- *)

(* One connection: its own pool of shard sockets behind the shared
   {!Paradb_server.Frontend}.  A write whose primary fails, or a read
   with no replica left, escapes a verb as [Reply]/[Shard_down] and is
   answered here. *)
let handler t () =
  let conns = Array.make (shards t) None in
  let answered f =
    try f () with
    | Reply r -> r
    | Shard_down s -> Protocol.Err (shard_down_msg t s)
  in
  let verb req =
    answered @@ fun () ->
    match req with
    | Protocol.Load { db; path } -> do_load t conns ~db ~path
    | Protocol.Fact { db; fact } -> do_fact t conns ~db ~fact
    | Protocol.Eval { db; engine; query } -> do_eval t conns ~db ~engine ~query
    | Protocol.Count { db; engine; query } ->
        do_count t conns ~db ~engine ~query
    | Protocol.Gather { db; query } -> do_gather t conns ~db ~query
    | Protocol.Ship { db; query; _ } -> do_ship t conns ~db ~query
    | Protocol.Check query -> Session.check query
    | Protocol.Explain query -> Session.explain query
    | Protocol.Digest db -> do_digest t conns ~db
    | Protocol.Repair db -> do_repair t conns ~db
    | Protocol.Stats -> do_stats t
    | Protocol.Metrics -> Session.metrics ()
    | Protocol.Bulk _ | Protocol.Quit ->
        invalid_arg "Coordinator.handler: BULK and QUIT are framed by Frontend"
  in
  let on_close () =
    Array.iteri
      (fun i c ->
        match c with
        | Some c ->
            (try Client.close c with _ -> ());
            conns.(i) <- None
        | None -> ())
      conns
  in
  Frontend.handler ~on_close ~verb
    ~bulk:(fun ~db text -> answered (fun () -> do_bulk_text t conns ~db text))
    ()

(* Convenience: a coordinator listening on its own port. *)
let serve ?host t ~port ~workers =
  Server.start_handler ?host ~limits:t.config.limits ~port ~workers
    ~handler:(handler t) ()
