(* Workloads: the shared edge database, each workload's query pool, and
   the per-connection request streams.  Everything is a function of the
   seed: the same seed gives the same data, pools and sequences. *)

module Generators = Paradb_workload.Generators
module Database = Paradb_relational.Database
module Relation = Paradb_relational.Relation
module Tuple = Paradb_relational.Tuple
module Value = Paradb_relational.Value

type workload = Warm_serve | Cold_adhoc | Durable_write_read | Cluster_exchange

let all = [ Warm_serve; Cold_adhoc; Durable_write_read; Cluster_exchange ]

let name = function
  | Warm_serve -> "warm-serve"
  | Cold_adhoc -> "cold-adhoc"
  | Durable_write_read -> "durable-write-read"
  | Cluster_exchange -> "cluster-exchange"

let of_name s = List.find_opt (fun w -> name w = s) all

let tag = function
  | Warm_serve -> 1
  | Cold_adhoc -> 2
  | Durable_write_read -> 3
  | Cluster_exchange -> 4

let nodes = 2000
let edges = 8000
let rng seed parts = Random.State.make (Array.of_list (seed :: parts))

(* n ≈ 8k edge tuples over 2,000 nodes: mean out-degree 4. *)
let base_database seed = Generators.edge_database (rng seed [ 0 ]) ~nodes ~edges

type verb = Eval | Count | Fact

let verb_name = function Eval -> "eval" | Count -> "count" | Fact -> "fact"

(* [q] indexes the workload's query pool; [fact] is the FACT payload. *)
type request = { verb : verb; q : int; fact : string }

(* A pooled query with its draw weights among EVALs and among COUNTs.
   The weights put the p50 and p95 of each verb well inside one query's
   latency band (not on the edge between two), so the percentiles do not
   jump between queries from one seed to the next. *)
type entry = { text : string; w_eval : int; w_count : int }

(* The warm pool: one query per structural class the planner
   distinguishes.  Outputs run from ~30 to ~6k rows; every query is
   cheap to plan and compile relative to running and encoding its
   answer, and the pool (16 plans with COUNT) fits the 128-entry plan
   cache. *)
let warm_pool =
  [|
    (* acyclic 3-chain, projected *)
    { text = "ans(X) :- e(X, Y), e(Y, Z), e(Z, W)."; w_eval = 1; w_count = 1 };
    (* acyclic with a != (EVAL p50) *)
    { text = "ans(X, Z) :- e(X, Y), e(Y, Z), X != Z, X < 300."; w_eval = 4; w_count = 1 };
    (* < comparison across a join *)
    { text = "ans(X, Y) :- e(X, Y), e(Y, Z), X < Z."; w_eval = 1; w_count = 1 };
    (* cyclic triangle *)
    { text = "ans(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X)."; w_eval = 1; w_count = 1 };
    (* low-width 4-cycle (COUNT p50) *)
    { text = "ans(X, Y, Z, W) :- e(X, Y), e(Y, Z), e(Z, W), e(W, X), X < 1000."; w_eval = 1; w_count = 7 };
    (* co-partitioned star *)
    { text = "ans(X, Y, Z) :- e(X, Y), e(X, Z), Y < Z, X < 700."; w_eval = 1; w_count = 1 };
    (* three-leaf star with all-pairs != (p95 of both verbs) *)
    { text = "ans(X) :- e(X, Y), e(X, Z), e(X, W), Y != Z, Y != W, Z != W."; w_eval = 2; w_count = 2 };
    (* anchored 2-chain: a point lookup *)
    { text = "ans(Y, Z) :- e(1, Y), e(Y, Z)."; w_eval = 1; w_count = 1 };
  |]

(* The cluster pool: 40% scatter (every atom keyed on the same first
   variable, one round), 60% exchange (two rounds: per-atom reducers
   gathered from every shard, re-joined at the coordinator).  An even
   split would put the median exactly on the scatter/exchange edge. *)
let cluster_pool =
  [|
    { text = "ans(X, Y, Z) :- e(X, Y), e(X, Z), Y < Z, X < 700."; w_eval = 1; w_count = 1 };
    { text = "ans(X) :- e(X, Y), e(X, Z), e(X, W), Y != Z, Y != W, Z != W."; w_eval = 1; w_count = 1 };
    { text = "ans(X, Z) :- e(X, Y), e(Y, Z), X != Z, X < 300."; w_eval = 2; w_count = 2 };
    { text = "ans(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X)."; w_eval = 1; w_count = 1 };
  |]

(* The cold pool: [cold_size] structurally distinct ad-hoc queries
   (chains, stars and trees of 2-6 atoms, each rooted at a random
   constant so answers stay small).  1,024 distinct plans against a
   128-entry cache: almost every request plans and compiles.  Like the
   warm pool it is part of the workload's definition and the same for
   every seed; the seed draws the data and the request sequence.  (A
   per-seed pool moves the p50 by several percent from seed to seed,
   because the latency density around the median is low.) *)
let cold_size = 1024

let cold_query rng =
  let atoms = 2 + Random.State.int rng 5 in
  let anchor = Random.State.int rng nodes in
  let var i = Printf.sprintf "X%d" i in
  (* node 0 is the anchor; atom i introduces node i + 1 under a parent
     picked by the shape *)
  let shape = Random.State.int rng 3 in
  let parent i =
    match shape with
    | 0 -> i (* chain *)
    | 1 -> if i < 3 then 0 else 1 + Random.State.int rng i (* star *)
    | _ -> Random.State.int rng (i + 1) (* random tree *)
  in
  let term n = if n = 0 then string_of_int anchor else var n in
  let body =
    List.init atoms (fun i ->
        let p = parent i and c = i + 1 in
        if p > 0 && Random.State.bool rng then
          Printf.sprintf "e(%s, %s)" (term c) (term p)
        else Printf.sprintf "e(%s, %s)" (term p) (term c))
  in
  let head =
    if atoms >= 2 && shape <> 0 && Random.State.bool rng then [ var 1; var 2 ]
    else [ var 1 ]
  in
  Printf.sprintf "ans(%s) :- %s." (String.concat ", " head)
    (String.concat ", " body)

let cold_pool () =
  let rng = rng 0 [ 2 ] in
  let seen = Hashtbl.create cold_size in
  let rec fill acc n =
    if n = cold_size then Array.of_list (List.rev acc)
    else
      let text = cold_query rng in
      let key =
        match Paradb_query.Source.parse_query text with
        | Ok q -> Paradb_query.Cq.cache_key q
        | Error e -> failwith e
      in
      if Hashtbl.mem seen key then fill acc n
      else begin
        Hashtbl.add seen key ();
        fill ({ text; w_eval = 1; w_count = 1 } :: acc) (n + 1)
      end
  in
  fill [] 0

let pool w =
  match w with
  | Warm_serve | Durable_write_read -> warm_pool
  | Cold_adhoc -> cold_pool ()
  | Cluster_exchange -> cluster_pool

(* Share of EVAL among reads; the rest are COUNT. *)
let eval_share = function Cluster_exchange -> 0.5 | _ -> 0.75

(* Share of FACT among all requests. *)
let fact_share = function Durable_write_read -> 0.2 | _ -> 0.0

(* The verbs a workload issues. *)
let verbs w = [ Eval; Count ] @ if fact_share w > 0.0 then [ Fact ] else []

let edge_fact a b = Printf.sprintf "e(%d, %d)." a b

let base_edges db =
  let seen = Hashtbl.create edges in
  List.iter
    (fun t ->
      match Tuple.to_list t with
      | [ Value.Int a; Value.Int b ] -> Hashtbl.replace seen (a, b) ()
      | _ -> ())
    (Relation.tuples (Database.find db "e"));
  seen

(* [stream w ~seed ~conn ~base pool] — connection [conn]'s request
   sequence, one request per call.  FACTs come from a pool of fresh
   edges (absent from [base]); connection [c] only writes edges whose
   source is [c] mod 2, so the two connections never write the same
   fact. *)
let stream w ~seed ~conn ~base pool =
  let rng = rng seed [ tag w; conn ] in
  let draw weight =
    let total = Array.fold_left (fun acc e -> acc + weight e) 0 pool in
    let r = Random.State.int rng total in
    let rec pick i acc =
      let acc = acc + weight pool.(i) in
      if r < acc then i else pick (i + 1) acc
    in
    pick 0 0
  in
  let written = Hashtbl.create 1024 in
  let rec fresh_edge () =
    let a = (2 * Random.State.int rng (nodes / 2)) + conn in
    let b = Random.State.int rng nodes in
    if Hashtbl.mem base (a, b) || Hashtbl.mem written (a, b) then fresh_edge ()
    else begin
      Hashtbl.add written (a, b) ();
      edge_fact a b
    end
  in
  fun () ->
    if Random.State.float rng 1.0 < fact_share w then
      { verb = Fact; q = -1; fact = fresh_edge () }
    else if Random.State.float rng 1.0 < eval_share w then
      { verb = Eval; q = draw (fun e -> e.w_eval); fact = "" }
    else { verb = Count; q = draw (fun e -> e.w_count); fact = "" }

(* Every pooled query once per read verb: run before timing so the plan
   cache holds the steady state.  The cold workload is cold by design
   and gets none. *)
let warm_set w pool =
  if w = Cold_adhoc then []
  else
    List.concat
      (List.init (Array.length pool) (fun q ->
           [ { verb = Eval; q; fact = "" }; { verb = Count; q; fact = "" } ]))

let request_line ~db pool r =
  match r.verb with
  | Eval -> Printf.sprintf "EVAL %s auto %s" db pool.(r.q).text
  | Count -> Printf.sprintf "COUNT %s auto %s" db pool.(r.q).text
  | Fact -> Printf.sprintf "FACT %s %s" db r.fact
