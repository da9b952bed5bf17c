module Cq = Paradb_query.Cq
module Atom = Paradb_query.Atom
module Term = Paradb_query.Term
module Constr = Paradb_query.Constr
module Hypergraph = Paradb_hypergraph.Hypergraph
module Join_tree = Paradb_hypergraph.Join_tree
module Metrics = Paradb_telemetry.Metrics
module Mutate = Paradb_telemetry.Mutate
module SS = Hypergraph.String_set

type classification = Acyclic | Low_width of int | Cyclic of int

let low_width_threshold = 2

type scan = {
  rel : string;
  selections : (int * Paradb_relational.Value.t) list;
  equalities : (int * int) list;
  vars : string list;
}

type step =
  | Scan of { atom : int }
  | Probe of { atom : int; key : string list; bind : string list }
  | Exists of { atom : int; key : string list }

type t = {
  query : Cq.t;
  classification : classification;
  width : int;
  tree : Join_tree.t option;
  scans : scan array;
  steps : step list;
  filters : (int * Constr.t) list;
  ground : Constr.t list;
  barriers : string list option array;
  cut : int;
  components : component list;
}

and component = { atoms : int list; plan : t; decided : bool }

let m_acyclic = Metrics.counter "planner.class.acyclic"
let m_low_width = Metrics.counter "planner.class.low_width"
let m_cyclic = Metrics.counter "planner.class.cyclic"

let scan_of_atom atom =
  let first = Hashtbl.create 4 in
  let selections = ref [] and equalities = ref [] and vars = ref [] in
  List.iteri
    (fun i t ->
      match t with
      | Term.Const v -> selections := (i, v) :: !selections
      | Term.Var x -> (
          match Hashtbl.find_opt first x with
          | Some j -> equalities := (j, i) :: !equalities
          | None ->
              Hashtbl.add first x i;
              vars := x :: !vars))
    atom.Atom.args;
  {
    rel = atom.Atom.rel;
    selections = List.rev !selections;
    equalities = List.rev !equalities;
    vars = List.rev !vars;
  }

(* Greedy width estimate for cyclic queries: min-fill vertex elimination
   on the primal variable graph, each elimination bag covered greedily by
   atom variable sets.  The result is an upper bound on the generalized
   hypertree width; it is exact on the small motifs we care to separate
   (triangles and short cycles give 2, dense cliques grow as n/2). *)
let width_estimate q =
  let atom_var_sets = List.map (fun a -> SS.of_list (Atom.vars a)) q.Cq.body in
  let all_vars = List.fold_left SS.union SS.empty atom_var_sets in
  let adj = Hashtbl.create 16 in
  let nbrs v = Option.value ~default:SS.empty (Hashtbl.find_opt adj v) in
  let connect u v =
    if u <> v then begin
      Hashtbl.replace adj u (SS.add v (nbrs u));
      Hashtbl.replace adj v (SS.add u (nbrs v))
    end
  in
  let clique s =
    let l = SS.elements s in
    List.iter (fun u -> List.iter (connect u) l) l
  in
  List.iter clique atom_var_sets;
  let cover bag =
    let rec go uncovered count =
      if SS.is_empty uncovered then count
      else
        let best =
          List.fold_left
            (fun best s ->
              let gain = SS.cardinal (SS.inter s uncovered) in
              match best with
              | Some (g, _) when g >= gain -> best
              | _ -> if gain > 0 then Some (gain, s) else best)
            None atom_var_sets
        in
        match best with
        | None -> count + SS.cardinal uncovered (* vars outside every atom *)
        | Some (_, s) -> go (SS.diff uncovered s) (count + 1)
    in
    go bag 0
  in
  let remaining = ref all_vars in
  let width = ref 1 in
  while not (SS.is_empty !remaining) do
    let live v = SS.inter (nbrs v) !remaining in
    let fill v =
      let l = SS.elements (live v) in
      let missing = ref 0 in
      List.iter
        (fun u ->
          List.iter
            (fun w ->
              if String.compare u w < 0 && not (SS.mem w (nbrs u)) then
                incr missing)
            l)
        l;
      !missing
    in
    let v =
      match
        SS.fold
          (fun v best ->
            let cost = (fill v, SS.cardinal (live v)) in
            match best with
            | Some (bc, _) when compare bc cost <= 0 -> best
            | _ -> Some (cost, v))
          !remaining None
      with
      | Some (_, v) -> v
      | None -> assert false
    in
    let bag = SS.add v (live v) in
    width := max !width (cover bag);
    clique (live v);
    remaining := SS.remove v !remaining
  done;
  !width

(* Local work of an atom: the checks it can apply to its own rows before
   any join — constants, repeated variables, and constraints whose
   variables all lie in the atom. *)
let local_work constraints scan =
  let vars = SS.of_list scan.vars in
  List.length scan.selections + List.length scan.equalities
  + List.length
      (List.filter
         (fun c ->
           match Constr.vars c with
           | [] -> false
           | cv -> List.for_all (fun v -> SS.mem v vars) cv)
         constraints)

(* Root of the join tree: the atom with the most local work (ties keep
   the GYO root), so a selective local filter runs right after step 0
   instead of after every probe.  The plan's tree is rooted there, and
   its [top_down] preorder is the join order: any connected preorder
   keeps the probe key exactly the connector, since a variable a node
   shares with any earlier node lies, by running intersection, on the
   tree path between them, which enters the node through its parent. *)
let root_atom constraints scans t =
  let work = Array.map (local_work constraints) scans in
  let root = ref t.Join_tree.root in
  Array.iteri (fun i w -> if w > work.(!root) then root := i) work;
  !root

(* Join order.  With a join tree: its [top_down] preorder, from the root
   [root_atom] picked.  Without one: greedy — start from the statically
   most selective atom (most constants and repeated variables), then
   repeatedly take the atom sharing the most bound variables. *)
let order_atoms tree scans =
  let n = Array.length scans in
  match tree with
  | Some t -> Array.to_list t.Join_tree.top_down
  | None ->
      let var_sets = Array.map (fun s -> SS.of_list s.vars) scans in
      let selectivity i =
        List.length scans.(i).selections + List.length scans.(i).equalities
      in
      let used = Array.make n false in
      let bound = ref SS.empty in
      let pick score =
        let best = ref None in
        for i = n - 1 downto 0 do
          if not used.(i) then
            let s = score i in
            match !best with
            | Some (bs, _) when compare bs s >= 0 -> ()
            | _ -> best := Some (s, i)
        done;
        match !best with Some (_, i) -> i | None -> assert false
      in
      let order = ref [] in
      for k = 0 to n - 1 do
        let i =
          if k = 0 then
            pick (fun i -> (selectivity i, - SS.cardinal var_sets.(i), -i))
          else
            pick (fun i ->
                let shared = SS.cardinal (SS.inter var_sets.(i) !bound) in
                let unbound = SS.cardinal var_sets.(i) - shared in
                (shared, -unbound, -i))
        in
        used.(i) <- true;
        bound := SS.union !bound var_sets.(i);
        order := i :: !order
      done;
      List.rev !order

let steps_of_order scans order =
  let bound = ref SS.empty in
  let steps, bound_after =
    List.fold_left
      (fun (steps, bounds) i ->
        let vars = scans.(i).vars in
        let key = List.filter (fun v -> SS.mem v !bound) vars in
        let bind = List.filter (fun v -> not (SS.mem v !bound)) vars in
        bound := List.fold_left (fun s v -> SS.add v s) !bound vars;
        let step =
          if steps = [] then Scan { atom = i }
          else if bind = [] then Exists { atom = i; key }
          else Probe { atom = i; key; bind }
        in
        (step :: steps, !bound :: bounds))
      ([], []) order
  in
  (List.rev steps, Array.of_list (List.rev bound_after))

(* Dead-variable barriers: after step [i], a bound variable that is not
   in the head and that no later step or filter reads can no longer
   influence the output — two register states agreeing on the still-live
   variables have identical continuations.  The compiler exploits each
   barrier twice: under set semantics a distinct-prefix set prunes the
   duplicate subtrees (the push-based analogue of the Yannakakis
   intermediate projection), and under counting semantics the same live
   prefix keys a memo of downstream counts.  [Some live] marks a barrier
   after step [i] with the live variables in lexicographic order. *)
let barrier_spec q scans steps filters =
  let step_arr = Array.of_list steps in
  let nsteps = Array.length step_arr in
  let step_vars = function
    | Scan { atom } -> scans.(atom).vars
    | Probe { key; bind; _ } -> key @ bind
    | Exists { key; _ } -> key
  in
  let filter_vars_at =
    let a = Array.make (max nsteps 1) SS.empty in
    List.iter
      (fun (j, c) -> a.(j) <- SS.union a.(j) (SS.of_list (Constr.vars c)))
      filters;
    a
  in
  (* needed_after.(i): variables read by anything downstream of the
     barrier point (steps i+1.., filters placed there, the emit). *)
  let head_vars = SS.of_list (Cq.head_vars q) in
  let needed_after = Array.make (max nsteps 1) head_vars in
  for i = nsteps - 2 downto 0 do
    needed_after.(i) <-
      SS.union needed_after.(i + 1)
        (SS.union
           (SS.of_list (step_vars step_arr.(i + 1)))
           filter_vars_at.(i + 1))
  done;
  let bound = ref SS.empty in
  Array.mapi
    (fun i step ->
      bound := SS.union !bound (SS.of_list (step_vars step));
      let live = SS.inter !bound needed_after.(i) in
      if i < nsteps - 1 && SS.cardinal live < SS.cardinal !bound then
        Some (SS.elements live)
      else None)
    step_arr

(* First-witness cut: the first step after which every head variable is
   bound (0 for an empty body).  Past it a valuation can only confirm
   the head row already in the registers, so the Bool pipeline stops at
   the first witness.  A head without variables has one possible row
   before any step runs: the cut is -1 and the whole pipeline stops at
   its first witness. *)
let witness_cut q bound_after =
  let head = SS.of_list (Cq.head_vars q) in
  let last = Array.length bound_after - 1 in
  let rec find i =
    if i >= last || SS.subset head bound_after.(i) then i else find (i + 1)
  in
  if SS.is_empty head && last >= 0 then -1 else find 0

let place_constraints constraints bound_after =
  let n = Array.length bound_after in
  let ground = ref [] and placed = ref [] in
  List.iter
    (fun c ->
      match Constr.vars c with
      | [] -> ground := c :: !ground
      | vars ->
          let need = SS.of_list vars in
          let rec find i =
            if i >= n then
              (* Unsafe constraints are rejected by [Cq.make]; with a
                 nonempty body every variable gets bound. *)
              invalid_arg "Planner: constraint variable never bound"
            else if SS.subset need bound_after.(i) then i
            else find (i + 1)
          in
          placed := (find 0, c) :: !placed)
    constraints;
  (List.rev !placed, List.rev !ground)

(* One connected body (or an empty one), already alpha-normalized. *)
let connected q =
  let scans = Array.of_list (List.map scan_of_atom q.Cq.body) in
  let tree =
    if q.Cq.body = [] then None
    else
      Option.map
        (fun t -> Join_tree.reroot t (root_atom q.Cq.constraints scans t))
        (Join_tree.of_cq q)
  in
  let classification, width =
    if q.Cq.body = [] then (Acyclic, 0)
    else if tree <> None then (Acyclic, 1)
    else
      let w = width_estimate q in
      if w <= low_width_threshold then (Low_width w, w) else (Cyclic w, w)
  in
  let steps, bound_after = steps_of_order scans (order_atoms tree scans) in
  let filters, ground = place_constraints q.Cq.constraints bound_after in
  {
    query = q;
    classification;
    width;
    tree;
    scans;
    steps;
    filters;
    ground;
    barriers = barrier_spec q scans steps filters;
    cut = witness_cut q bound_after;
    components = [];
  }

(* The variable-connected components of the body, as ascending lists of
   atom positions in order of their first atom, or [[]] when the body
   is connected (or empty): planning runs this on every query, so the
   connected case allocates no lists.  Two atoms are linked by a shared
   variable, or by a constraint over variables of both; an atom without
   variables is a component of its own.  Union-find links every root to
   the smaller one, so a component's root is its first atom. *)
let components_of q =
  let n = List.length q.Cq.body in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union i j =
    let ri = find i and rj = find j in
    parent.(max ri rj) <- min ri rj
  in
  (* each variable's first atom; bodies are small, so a list will do *)
  let home = ref [] in
  List.iteri
    (fun i a ->
      List.iter
        (function
          | Term.Var x -> (
              match List.assoc_opt x !home with
              | Some j -> union i j
              | None -> home := (x, i) :: !home)
          | Term.Const _ -> ())
        a.Atom.args)
    q.Cq.body;
  List.iter
    (fun c ->
      match Constr.vars c with
      | x :: rest ->
          let i = List.assoc x !home in
          List.iter (fun y -> union i (List.assoc y !home)) rest
      | [] -> ())
    q.Cq.constraints;
  let rec connected i = i >= n || (find i = 0 && connected (i + 1)) in
  if connected 0 then []
  else
    let root = Array.init n find in
    List.filter_map
      (fun r ->
        if root.(r) = r then
          Some (List.filter (fun i -> root.(i) = r) (List.init n Fun.id))
        else None)
      (List.init n Fun.id)

(* A join forest: each component planned on its own, as a sub-query of
   [q] under the same variable names.  The components that carry head
   variables emit the answer; with none, the first one does.  A sole
   emitting component takes [q]'s head as written, so its rows are the
   answer; several take their own head variables, and the compiler
   combines their rows.  The other components are head-free Boolean
   sub-queries (cut -1), which EVAL decides up front.  The ground
   constraints ride with the first emitting component. *)
let forest q groups =
  let body = Array.of_list q.Cq.body in
  let head = Cq.head_vars q in
  let groups =
    List.map
      (fun atoms ->
        let vars =
          SS.of_list (List.concat_map (fun i -> Atom.vars body.(i)) atoms)
        in
        (atoms, vars, List.filter (fun x -> SS.mem x vars) head))
      groups
  in
  let emitting =
    match List.filter (fun (_, _, h) -> h <> []) groups with
    | [] -> [ List.hd groups ]
    | carrying -> carrying
  in
  let components =
    List.map
      (fun ((atoms, vars, h) as g) ->
        let emits = List.memq g emitting in
        let head =
          if not emits then []
          else if List.length emitting = 1 then q.Cq.head
          else List.map Term.var h
        in
        let constraints =
          List.filter
            (fun c ->
              match Constr.vars c with
              | x :: _ -> SS.mem x vars
              | [] -> g == List.hd emitting)
            q.Cq.constraints
        in
        let sub =
          Cq.make ~name:q.Cq.name ~head ~constraints
            (List.map (fun i -> body.(i)) atoms)
        in
        { atoms; plan = connected sub; decided = not emits })
      groups
  in
  (* the forest's scans are its components' *)
  let scans =
    Array.make (Array.length body) (List.hd components).plan.scans.(0)
  in
  List.iter
    (fun c -> List.iteri (fun k i -> scans.(i) <- c.plan.scans.(k)) c.atoms)
    components;
  let plans = List.map (fun c -> c.plan) components in
  let width = List.fold_left (fun w p -> max w p.width) 1 plans in
  let classification =
    if List.for_all (fun p -> p.classification = Acyclic) plans then Acyclic
    else if width <= low_width_threshold then Low_width width
    else Cyclic width
  in
  {
    query = q;
    classification;
    width;
    tree = None;
    scans;
    steps = [];
    filters = [];
    ground = [];
    barriers = [||];
    cut = 0;
    components;
  }

(* Planning proper, without the classification counter: [plan] counts
   the queries it is asked to plan, not the quotients [count_terms]
   derives from them. *)
let build q =
  let q = Cq.alpha_normalize q in
  match components_of q with [] -> connected q | groups -> forest q groups

let connected_plans p =
  match p.components with [] -> [ p ] | cs -> List.map (fun c -> c.plan) cs

let plan q =
  let p = build q in
  Metrics.incr
    (match p.classification with
    | Acyclic -> m_acyclic
    | Low_width _ -> m_low_width
    | Cyclic _ -> m_cyclic);
  p

(* Exact counting under variable–variable [!=] by inclusion–exclusion.
   Each such atom keeps both of its endpoints live to the step that
   checks it, so a query whose [!=] atoms span the body has no barrier
   and its count walks every valuation.  With E the distinct [x != y]
   pairs,

     #(Q ∧ ⋀_E x≠y) = Σ_{S ⊆ E} (−1)^|S| #(Q ∧ ⋀_S x=y)

   and [Q ∧ ⋀_S x=y] is the quotient of [Q] by the partition of
   variables S's components induce: each block merged to one variable,
   duplicate atoms and constraints dropped.  The quotients are
   [!=]-free, so they keep the barriers; a partition's coefficient is
   the signed sum over the subsets inducing it (the Möbius value of
   the partition lattice for a complete [!=] graph), and alpha-equivalent
   quotients share one term.  The rewrite is taken only when it pays:
   dropping E must add barriers, 2^|E| subsets stay small, and no
   quotient may be wider than the query (merging can close a cycle). *)
let neq_cap = 6

let n_barriers p =
  List.fold_left
    (fun n p ->
      Array.fold_left (fun n b -> if b = None then n else n + 1) n p.barriers)
    0 (connected_plans p)

let neq_edge c =
  match (c.Constr.op, c.Constr.lhs, c.Constr.rhs) with
  | Constr.Neq, Term.Var x, Term.Var y when x <> y -> Some (min x y, max x y)
  | _ -> None

(* The quotient of [q] (with E already dropped) merging each variable
   to its block's representative. *)
let quotient q rep =
  let q = Cq.rename rep q in
  let dedup = Paradb_relational.Listx.dedup in
  Cq.make ~name:q.Cq.name ~head:q.Cq.head
    ~constraints:(dedup q.Cq.constraints) (dedup q.Cq.body)

(* (coefficient, representative map) per partition of the variables E
   touches, in first-reached subset order.  Union-find links every root
   to the smaller one, so a block's root is its first variable and the
   root array names the partition. *)
let partitions edges =
  let vs =
    Array.of_list
      (SS.elements
         (List.fold_left (fun s (x, y) -> SS.add x (SS.add y s)) SS.empty edges))
  in
  let index = Hashtbl.create 8 in
  Array.iteri (fun i x -> Hashtbl.add index x i) vs;
  let edges =
    Array.of_list
      (List.map (fun (x, y) -> (Hashtbl.find index x, Hashtbl.find index y)) edges)
  in
  let coef = Hashtbl.create 16 and order = ref [] in
  for mask = 0 to (1 lsl Array.length edges) - 1 do
    let parent = Array.init (Array.length vs) Fun.id in
    let rec find i = if parent.(i) = i then i else find parent.(i) in
    let sign = ref 1 in
    Array.iteri
      (fun j (a, b) ->
        if mask land (1 lsl j) <> 0 then begin
          sign := - !sign;
          let ra = find a and rb = find b in
          parent.(max ra rb) <- min ra rb
        end)
      edges;
    let blocks = Array.init (Array.length vs) find in
    match Hashtbl.find_opt coef blocks with
    | Some c -> Hashtbl.replace coef blocks (c + !sign)
    | None ->
        Hashtbl.add coef blocks !sign;
        order := blocks :: !order
  done;
  List.rev_map
    (fun blocks ->
      let rep x =
        match Hashtbl.find_opt index x with Some i -> vs.(blocks.(i)) | None -> x
      in
      (Hashtbl.find coef blocks, rep))
    !order

let neq_edges q =
  Paradb_relational.Listx.dedup (List.filter_map neq_edge q.Cq.constraints)

let count_terms p =
  let q = p.query in
  let edges = neq_edges q in
  if edges = [] || List.length edges > neq_cap then [ (1, p) ]
  else
    let rest =
      Cq.make ~name:q.Cq.name ~head:q.Cq.head
        ~constraints:(List.filter (fun c -> neq_edge c = None) q.Cq.constraints)
        q.Cq.body
    in
    if n_barriers (build rest) <= n_barriers p then [ (1, p) ]
    else
      (* group alpha-equivalent quotients, first-reached order; drop
         the zero terms *)
      let groups = Hashtbl.create 8 and order = ref [] in
      List.iter
        (fun (c, rep) ->
          let qq = quotient rest rep in
          let key = Cq.cache_key qq in
          match Hashtbl.find_opt groups key with
          | Some (c', _) -> Hashtbl.replace groups key (c' + c, qq)
          | None ->
              Hashtbl.add groups key (c, qq);
              order := key :: !order)
        (partitions edges);
      let terms =
        List.filter_map
          (fun key ->
            let c, qq = Hashtbl.find groups key in
            if c = 0 then None else Some (c, build qq))
          (List.rev !order)
      in
      if
        List.for_all
          (fun (_, t) -> t.classification = Acyclic || t.width <= p.width)
          terms
      then
        (* Mutation hook: flip the sign of the last term's coefficient. *)
        match List.rev terms with
        | (c, t) :: rest when Mutate.enabled "neq_quotient_sign" ->
            List.rev ((-c, t) :: rest)
        | _ -> terms
      else [ (1, p) ]

let classification_name = function
  | Acyclic -> "acyclic"
  | Low_width _ -> "low-width"
  | Cyclic _ -> "cyclic"

type shard_choice = Copartitioned of string | Exchange

let first_var atom =
  match atom.Paradb_query.Atom.args with
  | Paradb_query.Term.Var v :: _ -> Some v
  | _ -> None

(* Shard-key selection off the plan IR.  Relations are hash-partitioned
   on their first column, so a query whose every atom carries one and
   the same variable in argument position 0 is co-partitioned: any
   satisfying assignment binds that variable to a single value, whose
   rows all live on one shard — a cluster can evaluate such a plan
   shard-locally and union the answers.  Everything else goes through
   the reducer exchange. *)
let shard_choice p =
  match p.query.Cq.body with
  | a0 :: rest -> (
      match first_var a0 with
      | Some v when List.for_all (fun a -> first_var a = Some v) rest ->
          Copartitioned v
      | _ -> Exchange)
  | [] -> Exchange

(* The lines of one connected plan, atoms named by [atom] (their body
   position in the query EXPLAIN prints). *)
let explain_connected emit atom p =
  let line fmt = Format.kasprintf emit fmt in
  (* The tree is rooted at step 0's atom; its reducer is one outward and
     one inward semijoin per edge. *)
  (match p.tree with
  | Some t ->
      let n = Join_tree.n_nodes t in
      line "join_tree: %d nodes, root atom %d" n (atom t.Join_tree.root);
      if n > 1 then line "semijoin program: %d steps" (2 * (n - 1))
  | None -> line "join_tree: none");
  let vars = String.concat " " in
  List.iteri
    (fun i step ->
      match step with
      | Scan { atom } ->
          line "step %d: scan %s -> [%s]" i p.scans.(atom).rel
            (vars p.scans.(atom).vars)
      | Probe { atom; key; bind } ->
          line "step %d: probe %s key=[%s] bind=[%s]" i p.scans.(atom).rel
            (vars key) (vars bind)
      | Exists { atom; key } ->
          line "step %d: exists %s key=[%s]" i p.scans.(atom).rel (vars key))
    p.steps;
  Array.iteri
    (fun i s ->
      if s.selections <> [] || s.equalities <> [] then
        line "atom %d (%s): %s" (atom i) s.rel
          (String.concat ", "
             (List.map
                (fun (pos, v) ->
                  Format.asprintf "arg%d = %a" pos Paradb_relational.Value.pp v)
                s.selections
             @ List.map
                 (fun (a, b) -> Printf.sprintf "arg%d = arg%d" a b)
                 s.equalities)))
    p.scans;
  List.iter
    (fun (i, c) -> line "filter after step %d: %s" i (Constr.to_string c))
    p.filters;
  Array.iteri
    (fun i b ->
      match b with
      | Some live -> line "barrier after step %d: live=[%s]" i (vars live)
      | None -> ())
    p.barriers;
  let last = List.length p.steps - 1 in
  if p.cut < 0 then
    line "cut before step 0: the pipeline stops at the first witness"
  else if p.cut < last then
    line "cut after step %d: steps %d..%d stop at the first witness" p.cut
      (p.cut + 1) last;
  List.iter
    (fun c -> line "ground constraint: %s" (Constr.to_string c))
    p.ground

let explain p =
  let buf = ref [] in
  let emit s = buf := s :: !buf in
  let line fmt = Format.kasprintf emit fmt in
  line "query: %s" (Cq.to_string p.query);
  line "class: %s" (classification_name p.classification);
  line "width: %d" p.width;
  (match p.components with
  | [] -> explain_connected emit Fun.id p
  | cs ->
      line "join forest: %d components" (List.length cs);
      List.iteri
        (fun k c ->
          line "component %d: atoms [%s], %s" k
            (String.concat " " (List.map string_of_int c.atoms))
            (if c.decided then "head-free, decided up front"
             else
               match Cq.head_vars c.plan.query with
               | [] -> "head-free, emits the head"
               | hv -> Printf.sprintf "head [%s]" (String.concat " " hv));
          let atoms = Array.of_list c.atoms in
          explain_connected (fun s -> emit ("  " ^ s)) (Array.get atoms) c.plan)
        cs);
  (match shard_choice p with
  | Copartitioned v -> line "shard key: %s (copartitioned scatter)" v
  | Exchange -> line "distribution: reducer exchange");
  (match count_terms p with
  | [ (1, t) ] when t == p -> ()
  | terms ->
      line "count expansion: %d terms by inclusion-exclusion over %d != atoms"
        (List.length terms)
        (List.length (neq_edges p.query));
      List.iter
        (fun (c, t) -> line "count term %+d: %s" c (Cq.to_string t.query))
        terms);
  List.rev !buf
