module Database = Paradb_relational.Database
module Relation = Paradb_relational.Relation
module Tuple = Paradb_relational.Tuple
module Value = Paradb_relational.Value
module Dictionary = Paradb_relational.Dictionary
module Join_tree = Paradb_hypergraph.Join_tree
module SS = Paradb_hypergraph.Hypergraph.String_set
module Yannakakis = Paradb_yannakakis.Yannakakis
module Metrics = Paradb_telemetry.Metrics
module Trace = Paradb_telemetry.Trace
module Tel_clock = Paradb_telemetry.Clock
open Paradb_query

let log_src = Logs.Src.create "paradb.engine" ~doc:"Theorem-2 engine"

module Log = (val Logs.src_log log_src)

(* Global telemetry, merged across domains on snapshot (the [stats]
   record remains the per-call API). *)
let m_tasks = Metrics.counter "engine.tasks"
let m_trials = Metrics.counter "engine.trials"
let m_successes = Metrics.counter "engine.trial_successes"
let m_trial_ns = Metrics.histogram "engine.trial_ns"
let m_peak_rows = Metrics.gauge "engine.peak_rows"

exception Cyclic_query

type stats = {
  mutable trials : int;
  mutable successes : int;
  mutable peak_rows : int;
}

let new_stats () = { trials = 0; successes = 0; peak_rows = 0 }

let merge_stats into s =
  into.trials <- into.trials + s.trials;
  into.successes <- into.successes + s.successes;
  if s.peak_rows > into.peak_rows then into.peak_rows <- s.peak_rows

let observe stats rel =
  let n = Relation.cardinality rel in
  if n > stats.peak_rows then stats.peak_rows <- n;
  Metrics.set_max m_peak_rows n

(* Shadow ("primed") attribute for a variable.  '$' cannot appear in
   parsed variable names, so no collision with real attributes. *)
let primed x = "$" ^ x

(* Everything about a query that does not depend on the coloring. *)
type task = {
  tree : Join_tree.t;
  base_rels : Relation.t array;   (* S_j with I2 selections applied *)
  prime_vars : SS.t;              (* variables with shadow attributes *)
  y_sets : SS.t array;            (* Y_j, over attribute names *)
  u_sets : SS.t array;            (* U_j, variable names *)
  pairs : (string * string) list; (* I1 pairs *)
  formula : Ineq_formula.t option;
  formula_consts : Value.t list;
  head : Term.t list;
  head_vars : string list;
  separation : int;               (* hash range parameter k *)
}

let dedup = Paradb_relational.Listx.dedup

(* W_j of Lemma 1, extended for the formula variables (which must survive
   to the root).  For x in V1 \ U_j occurring in T[j], x belongs to W_j
   iff some inequality partner of x does not occur in the child subtree
   through which x reaches j. *)
let w_set tree ~prime_vars ~formula_vars ~pairs j u_j =
  SS.filter
    (fun x ->
      (not (SS.mem x u_j))
      && SS.mem x tree.Join_tree.subtree_vars.(j)
      &&
      if List.mem x formula_vars then true
      else
        let child_with_x =
          List.find_opt
            (fun c -> SS.mem x tree.Join_tree.subtree_vars.(c))
            tree.Join_tree.children.(j)
        in
        match child_with_x with
        | None -> false (* unreachable: x not in U_j but in subtree *)
        | Some c ->
            List.exists
              (fun (a, b) ->
                (a = x && not (SS.mem b tree.Join_tree.subtree_vars.(c)))
                || (b = x && not (SS.mem a tree.Join_tree.subtree_vars.(c))))
              pairs)
    prime_vars

(* An h-independent semijoin pass over the base relations: dangling
   tuples can never contribute to any Q_h, so removing them up front
   shrinks every subsequent coloring's work. *)
let prereduce_base ?budget tree base_rels =
  if Array.exists Relation.is_empty base_rels then base_rels
  else
    Trace.with_span "engine.prereduce" (fun () ->
        Yannakakis.full_reducer ?budget tree base_rels)

let build_task ?budget ?(prereduce = true) db q formula =
  Metrics.incr m_tasks;
  Budget.poll budget;
  Trace.with_span "engine.build_task" @@ fun () ->
  (match formula with
  | Some f when not (Ineq_formula.neq_only f) ->
      invalid_arg "Engine: formula must use only != atoms"
  | _ -> ());
  let part = Ineq.partition q in
  match Trace.with_span "join_tree.build" (fun () -> Join_tree.of_cq q) with
  | None -> raise Cyclic_query
  | Some tree ->
      let pairs = Ineq.i1_pairs part in
      let formula_vars =
        match formula with Some f -> Ineq_formula.vars f | None -> []
      in
      let formula_consts =
        match formula with Some f -> Ineq_formula.constants f | None -> []
      in
      let prime_vars = SS.of_list (part.Ineq.v1 @ formula_vars) in
      let n = Join_tree.n_nodes tree in
      let u_sets = tree.Join_tree.node_vars in
      let y_sets =
        Array.init n (fun j ->
            let w = w_set tree ~prime_vars ~formula_vars ~pairs j u_sets.(j) in
            let prime_of s =
              SS.fold
                (fun x acc ->
                  if SS.mem x prime_vars then SS.add (primed x) acc else acc)
                s SS.empty
            in
            SS.union u_sets.(j)
              (SS.union (prime_of u_sets.(j))
                 (SS.fold (fun x acc -> SS.add (primed x) acc) w SS.empty)))
      in
      let filter binding =
        Ineq.i2_filter part (List.map fst (Binding.bindings binding)) binding
      in
      let base_rels =
        Array.of_list
          (List.map (Yannakakis.atom_relation ?budget ~filter db) q.Cq.body)
      in
      let base_rels =
        if prereduce then prereduce_base ?budget tree base_rels else base_rels
      in
      {
        tree;
        base_rels;
        prime_vars;
        y_sets;
        u_sets;
        pairs;
        formula;
        formula_consts;
        head = q.Cq.head;
        head_vars = Cq.head_vars q;
        separation =
          (let k = SS.cardinal prime_vars + List.length formula_consts in
           (* Mutation hook: under-count the hash range by one; at k = 2
              that degrades to a single constant coloring, so every I1
              pair collides and answers vanish. *)
           if k > 1 && Paradb_telemetry.Mutate.enabled "color_count" then k - 1
           else k);
      }

(* ------------------------------------------------------------------ *)
(* Per-coloring machinery.

   A prepared [trial] carries everything interning-related so the trial
   body itself is dictionary-write-free and can run on any domain:
   [color_code.(c)] is the dictionary code of [Value.Int c] (interned
   sequentially during preparation), and [color_of_code] maps every
   dictionary code to its color under [h] (read-only to build).  The hot
   loop is then pure int-array work. *)

type trial = {
  h : Hashing.fn;
  color_code : int array; (* color -> code of [Value.Int color] *)
}

let prep_trial h =
  {
    h;
    color_code =
      Array.init h.Hashing.range (fun c ->
          Dictionary.intern Dictionary.global (Value.Int c));
  }

(* Color of every dictionary code under [h]; -1 marks values outside [h]'s
   domain (codes that never occur in the base relations). *)
let color_table h =
  let dict = Dictionary.global in
  Array.init (Dictionary.size dict) (fun c ->
      match h.Hashing.apply (Dictionary.value dict c) with
      | color -> color
      | exception Invalid_argument _ -> -1)

(* Extend S_j with the shadow attributes x' = h(x), working entirely on
   code rows: shadow cell = code of [Value.Int (h x)]. *)
let prime_relation task trial colors j =
  let rel = task.base_rels.(j) in
  let vars =
    List.filter (fun x -> SS.mem x task.prime_vars) (Relation.schema_list rel)
  in
  match vars with
  | [] -> rel
  | _ ->
      let positions = Relation.positions rel vars in
      let color_code = trial.color_code in
      Relation.extend_codes
        (List.map primed vars)
        (fun row -> Array.map (fun i -> color_code.(colors.(row.(i)))) positions)
        rel

(* The selection F of Algorithm 1 at the moment child j is merged into
   parent u: for every I1 pair {x, y} with x' in Y_j \ U'_u and y' among
   the parent's current attributes but outside Y_j, require x' <> y'. *)
let f_checks task ~proj_attrs ~parent_attrs j u =
  let parent_has a = List.mem a parent_attrs in
  let proj_has a = List.mem a proj_attrs in
  let oriented (x, y) =
    let px = primed x and py = primed y in
    if
      proj_has px
      && (not (SS.mem x task.u_sets.(u)))
      && parent_has py
      && not (SS.mem py task.y_sets.(j))
    then Some (px, py)
    else None
  in
  let checks =
    dedup
      (List.filter_map
         (fun (x, y) ->
           match oriented (x, y) with
           | Some c -> Some c
           | None -> oriented (y, x))
         task.pairs)
  in
  (* Mutation hook: lose the first F selection, admitting rows whose
     colors collide on an I1 pair. *)
  if Paradb_telemetry.Mutate.enabled "drop_neq" then
    match checks with [] -> [] | _ :: rest -> rest
  else checks

(* Evaluate the root formula on a row of colors.  Variables read their
   shadow attribute (decoding the color code); constants are hashed with
   the same h. *)
let root_filter task trial rel =
  match task.formula with
  | None -> rel
  | Some f ->
      let pos = Relation.position rel in
      let var_pos =
        List.map (fun x -> (x, pos (primed x))) (Ineq_formula.vars f)
      in
      let resolve row = function
        | Term.Var x ->
            Value.to_int (Relation.decode_value row.(List.assoc x var_pos))
        | Term.Const c -> trial.h.Hashing.apply c
      in
      let rec holds row = function
        | Ineq_formula.True -> true
        | Ineq_formula.False -> false
        | Ineq_formula.Atom c ->
            let l = resolve row c.Constr.lhs and r = resolve row c.Constr.rhs in
            (match c.Constr.op with
            | Constr.Neq -> l <> r
            | Constr.Lt | Constr.Le -> assert false)
        | Ineq_formula.And fs -> List.for_all (holds row) fs
        | Ineq_formula.Or fs -> List.exists (holds row) fs
      in
      Relation.select_codes (fun row -> holds row f) rel

exception Dead_end

(* Algorithm 1: bottom-up pass, each child projected onto its parent's Y
   set and joined in under the selection F; it stops at the first node
   the join empties.  Returns the final P array if Q_h(d) is nonempty,
   None otherwise. *)
let algorithm1_trial ?stats task trial =
  let observe rel =
    match stats with Some s -> observe s rel | None -> ()
  in
  let colors = color_table trial.h in
  let tree = task.tree in
  let n = Join_tree.n_nodes tree in
  let p = Array.init n (prime_relation task trial colors) in
  Array.iter observe p;
  let join j u parent proj =
    let proj_attrs = Relation.schema_list proj in
    let parent_attrs = Relation.schema_list parent in
    let checks = f_checks task ~proj_attrs ~parent_attrs j u in
    let filtered =
      match checks with
      | [] -> Relation.natural_join parent proj
      | _ ->
          (* The join's output schema is the parent's attributes
             followed by the projection's non-common ones, so check
             positions are known before the join runs; the filter
             fuses into the probe loop.  Shadow cells are codes of
             the same dictionary, so color inequality is plain code
             inequality. *)
          let out_attrs =
            parent_attrs
            @ List.filter (fun a -> not (List.mem a parent_attrs)) proj_attrs
          in
          let pos a =
            let rec go i = function
              | [] -> raise Not_found
              | b :: rest -> if String.equal a b then i else go (i + 1) rest
            in
            go 0 out_attrs
          in
          let positions = List.map (fun (a, b) -> (pos a, pos b)) checks in
          Relation.natural_join
            ~keep:(fun row ->
              List.for_all (fun (i, l) -> row.(i) <> row.(l)) positions)
            parent proj
    in
    observe filtered;
    if Relation.is_empty filtered then raise_notrace Dead_end;
    filtered
  in
  match
    Yannakakis.fold_up tree
      ~keep:(fun _ u -> task.y_sets.(u))
      ~project:Yannakakis.project_onto ~join p
  with
  | exception Dead_end -> None
  | p ->
      let root = tree.Join_tree.root in
      p.(root) <- root_filter task trial p.(root);
      if Relation.is_empty p.(root) then None else Some p

let algorithm1 ?stats task h = algorithm1_trial ?stats task (prep_trial h)

(* Algorithm 2: top-down semijoin pass, then bottom-up join-and-project
   (a child keeps the parent's Y set and the head variables); returns
   Q_h(d)'s projection onto the head variables.  No budget: trials run
   on worker domains, which drain without raising. *)
let algorithm2 task p =
  let tree = task.tree in
  let p =
    Trace.with_span "engine.semijoin_top_down" (fun () ->
        Yannakakis.semijoin_top_down tree p)
  in
  let head_set = SS.of_list task.head_vars in
  let p =
    Trace.with_span "engine.join_bottom_up" (fun () ->
        Yannakakis.fold_up tree
          ~keep:(fun _ u -> SS.union task.y_sets.(u) head_set)
          ~project:Yannakakis.project_onto
          ~join:(fun _ _ parent child -> Relation.natural_join parent child)
          p)
  in
  Relation.project task.head_vars p.(tree.Join_tree.root)

let hash_domain db task =
  Value.Set.elements
    (Value.Set.union (Database.domain db)
       (Value.Set.of_list task.formula_consts))

let default_family = Hashing.Multiplicative_sweep

(* ------------------------------------------------------------------ *)
(* The trial driver.

   Independent colorings fan out across domains: trials are prepared
   (= dictionary-interning) sequentially in chunks, then each chunk is
   drained by [domain_count] workers pulling trial indexes off an atomic
   counter.  Merging is a set union (evaluation) or a disjunction
   (satisfiability), both order-insensitive, so parallel runs return
   bit-identical answers to sequential ones.  [PARADB_DOMAINS=1] opts
   out. *)

let domain_count () = Paradb_telemetry.Env.domains ()

let rec seq_take n acc seq =
  if n = 0 then (List.rev acc, seq)
  else
    match Seq.uncons seq with
    | None -> (List.rev acc, Seq.empty)
    | Some (x, rest) -> seq_take (n - 1) (x :: acc) rest

(* Run [run] over every coloring of [functions].  [run st trial] returns
   [Some r] on a successful trial; results are folded with [merge] into
   [init].  With [stop_on_hit] the remaining trials are abandoned after
   the first success (one witness settles satisfiability). *)
let run_trials ?budget ~stats ~stop_on_hit functions ~init ~merge ~run =
  (* Instrument every coloring uniformly, sequential or fanned out:
     a span (free when tracing is off) plus global trial counters and a
     per-trial latency histogram. *)
  let run st trial =
    let sp = Trace.start "engine.trial" in
    let t0 = Tel_clock.now_ns () in
    let r = run st trial in
    Metrics.observe m_trial_ns (Tel_clock.now_ns () - t0);
    Metrics.incr m_trials;
    let hit = Option.is_some r in
    if hit then Metrics.incr m_successes;
    Trace.finish ~attrs:[ ("nonempty", string_of_bool hit) ] sp;
    r
  in
  let nd = domain_count () in
  let acc = ref init in
  (* Non-raising per-trial test for the parallel drain loops: helper
     domains must exit cleanly (an exception crossing [Domain.join]
     would leak its siblings), so they only observe expiry here and the
     coordinator raises after joining. *)
  let budget_expired () =
    match budget with Some b -> Budget.expired b | None -> false
  in
  if nd <= 1 then begin
    (try
       Seq.iter
         (fun h ->
           Budget.poll budget;
           let trial = prep_trial h in
           stats.trials <- stats.trials + 1;
           match run stats trial with
           | Some r ->
               stats.successes <- stats.successes + 1;
               acc := merge !acc r;
               if stop_on_hit then raise Exit
           | None -> ())
         functions
     with Exit -> ());
    !acc
  end
  else begin
    let chunk_size = nd * 4 in
    let rec loop fns =
      match seq_take chunk_size [] fns with
      | [], _ -> ()
      | batch, rest ->
          let work = Array.of_list (List.map prep_trial batch) in
          let next = Atomic.make 0 in
          let found = Atomic.make false in
          let worker () =
            let st = new_stats () in
            let out = ref [] in
            let rec drain () =
              if not (stop_on_hit && Atomic.get found) && not (budget_expired ())
              then begin
                let i = Atomic.fetch_and_add next 1 in
                if i < Array.length work then begin
                  st.trials <- st.trials + 1;
                  (match run st work.(i) with
                  | Some r ->
                      st.successes <- st.successes + 1;
                      out := r :: !out;
                      if stop_on_hit then Atomic.set found true
                  | None -> ());
                  drain ()
                end
              end
            in
            drain ();
            (st, !out)
          in
          let helpers =
            Array.init
              (min (nd - 1) (max 0 (Array.length work - 1)))
              (fun _ -> Domain.spawn worker)
          in
          let mine = worker () in
          let results = mine :: Array.to_list (Array.map Domain.join helpers) in
          List.iter
            (fun (st, out) ->
              merge_stats stats st;
              List.iter (fun r -> acc := merge !acc r) out)
            results;
          if not (stop_on_hit && Atomic.get found) then begin
            (* With a witness in hand the answer is already valid; an
               incomplete sweep is only wrong when we must union every
               trial (evaluation) or report a definitive "no". *)
            Budget.poll budget;
            loop rest
          end
    in
    loop functions;
    if not (stop_on_hit && !acc <> init) then Budget.poll budget;
    !acc
  end

let run_satisfiable ?budget ?prereduce ~family ~stats db q formula =
  if q.Cq.body = [] then
    (* No atoms, hence no variables (Cq.make safety): the formula, if any,
       is ground and can be evaluated directly. *)
    (match formula with
    | None -> true
    | Some f -> Ineq_formula.holds Binding.empty f)
  else begin
    let task = build_task ?budget ?prereduce db q formula in
    if Array.exists Relation.is_empty task.base_rels then false
    else begin
      let domain = hash_domain db task in
      let functions =
        Hashing.functions family ~domain ~k:task.separation
      in
      let found =
        run_trials ?budget ~stats ~stop_on_hit:true functions ~init:false
          ~merge:(fun _ _ -> true)
          ~run:(fun st trial ->
            match algorithm1_trial ~stats:st task trial with
            | Some _ -> Some ()
            | None -> None)
      in
      if found then
        Log.debug (fun m ->
            m "satisfiable after %d coloring(s) (k = %d)" stats.trials
              task.separation)
      else
        Log.debug (fun m ->
            m "no coloring succeeded after %d trial(s) (k = %d)" stats.trials
              task.separation);
      found
    end
  end

let run_evaluate ?budget ?prereduce ~family ~stats db q formula =
  let answer = Yannakakis.answer q in
  if q.Cq.body = [] then
    let holds =
      match formula with
      | None -> true
      | Some f -> Ineq_formula.holds Binding.empty f
    in
    answer
      (if holds then
         Yannakakis.head_rows q.Cq.head (Relation.create ~schema:[] [ [||] ])
       else Tuple.Set.empty)
  else begin
    let task = build_task ?budget ?prereduce db q formula in
    if Array.exists Relation.is_empty task.base_rels then
      answer Tuple.Set.empty
    else begin
      let domain = hash_domain db task in
      let functions = Hashing.functions family ~domain ~k:task.separation in
      answer
        (run_trials ?budget ~stats ~stop_on_hit:false functions
           ~init:Tuple.Set.empty ~merge:Tuple.Set.union
           ~run:(fun st trial ->
             match algorithm1_trial ~stats:st task trial with
             | None -> None
             | Some p -> Some (Yannakakis.head_rows task.head (algorithm2 task p))))
    end
  end

let is_satisfiable ?budget ?prereduce ?(family = default_family) ?stats db q =
  let stats = match stats with Some s -> s | None -> new_stats () in
  run_satisfiable ?budget ?prereduce ~family ~stats db q None

let evaluate ?budget ?prereduce ?(family = default_family) ?stats db q =
  let stats = match stats with Some s -> s | None -> new_stats () in
  run_evaluate ?budget ?prereduce ~family ~stats db q None

let decide ?budget ?family ?stats db q tuple =
  match Cq.close_with_tuple q tuple with
  | None -> false
  | Some closed -> is_satisfiable ?budget ?family ?stats db closed

let is_satisfiable_formula ?budget ?(family = default_family) ?stats db q f =
  let stats = match stats with Some s -> s | None -> new_stats () in
  run_satisfiable ?budget ~family ~stats db q (Some f)

let evaluate_formula ?budget ?(family = default_family) ?stats db q f =
  let stats = match stats with Some s -> s | None -> new_stats () in
  run_evaluate ?budget ~family ~stats db q (Some f)

let split_constant_conjuncts f =
  let is_var_const c =
    match c.Constr.lhs, c.Constr.rhs with
    | Term.Var _, Term.Const _ | Term.Const _, Term.Var _ -> true
    | _ -> false
  in
  match f with
  | Ineq_formula.Atom c when is_var_const c -> ([ c ], Ineq_formula.True)
  | Ineq_formula.And fs ->
      let consts, rest =
        List.partition
          (function
            | Ineq_formula.Atom c -> is_var_const c
            | _ -> false)
          fs
      in
      ( List.map
          (function Ineq_formula.Atom c -> c | _ -> assert false)
          consts,
        Ineq_formula.conj rest )
  | _ -> ([], f)

let push_constant_conjuncts q f =
  let consts, rest = split_constant_conjuncts f in
  let q' =
    Cq.make ~name:q.Cq.name
      ~constraints:(q.Cq.constraints @ consts)
      ~head:q.Cq.head q.Cq.body
  in
  (q', if rest = Ineq_formula.True then None else Some rest)

let evaluate_formula_v ?budget ?(family = default_family) ?stats db q f =
  let stats = match stats with Some s -> s | None -> new_stats () in
  let q', rest = push_constant_conjuncts q f in
  run_evaluate ?budget ~family ~stats db q' rest

let is_satisfiable_formula_v ?budget ?(family = default_family) ?stats db q f =
  let stats = match stats with Some s -> s | None -> new_stats () in
  let q', rest = push_constant_conjuncts q f in
  run_satisfiable ?budget ~family ~stats db q' rest

let satisfiable_with db q h =
  if q.Cq.body = [] then true
  else
    let task = build_task db q None in
    (not (Array.exists Relation.is_empty task.base_rels))
    && algorithm1 task h <> None

let evaluate_with db q h =
  if q.Cq.body = [] then
    let stats = new_stats () in
    run_evaluate ~family:default_family ~stats db q None
  else begin
    let task = build_task db q None in
    let rows =
      if Array.exists Relation.is_empty task.base_rels then Tuple.Set.empty
      else
        match algorithm1 task h with
        | None -> Tuple.Set.empty
        | Some p -> Yannakakis.head_rows task.head (algorithm2 task p)
    in
    Yannakakis.answer q rows
  end
