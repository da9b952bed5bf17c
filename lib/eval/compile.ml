module Database = Paradb_relational.Database
module Relation = Paradb_relational.Relation
module Dictionary = Paradb_relational.Dictionary
module Row_set = Paradb_relational.Row_set
module Semiring = Paradb_relational.Semiring
module Code_row = Paradb_relational.Code_row
module Planner = Paradb_planner.Planner
module Yannakakis = Paradb_yannakakis.Yannakakis
module Budget = Paradb_telemetry.Budget
module Metrics = Paradb_telemetry.Metrics
module Mutate = Paradb_telemetry.Mutate
open Paradb_query

let m_pipelines = Metrics.counter "compile.pipelines"
let m_count_pipelines = Metrics.counter "compile.count_pipelines"
let m_count_terms = Metrics.counter "compile.count_terms"

(* Per-run state: a flat register file (one slot per query variable,
   then one per head constant, holding dictionary codes), the strided
   budget checkpoint, and the sink's stores.  The Bool sink collects head
   rows in [out] and dedups at each barrier in [keys]; the Nat sink sums
   valuations in [acc] and memoizes the downstream count of each barrier
   key in [keys] beside [counts] (by key id).  Allocated fresh by
   [start], so one compiled pipeline can run concurrently from several
   domains. *)
type state = {
  regs : int array;
  mutable ticks : int;
  budget : Budget.t option;
  out : Row_set.t;
  keys : Row_set.t array;  (** one key set per dead-variable barrier *)
  counts : int array array;  (** Nat: memoized count per key id *)
  mutable acc : int;
}

type sink = Bool | Nat

type t = {
  name : string;
  head_schema : string list;
  nvars : int;
  consts : int array;  (** head constants, loaded after the variables *)
  nkeys : int;
  pipeline : state -> unit;
}

(* A join forest's pipelines ({!Planner.t.components}): the head-free
   components [decided] up front, and the emitting [parts].  One part's
   rows are the answer; several are combined by [layout], which names
   for each head position its (part, column), or (-1, code) for a head
   constant.  A connected plan is one part. *)
type exec = {
  name : string;
  head_schema : string list;
  decided : t list;
  parts : t array;
  layout : (int * int) array;
}

(* Per {!Planner.count_terms} term: its coefficient and one counting
   pipeline per connected component, whose counts multiply. *)
type count_exec = (int * t list) list

(* Same order of magnitude as the interpreters' probe stride: cheap
   enough to leave on, frequent enough that expiry surfaces fast. *)
let budget_stride = 512

let tick st =
  st.ticks <- st.ticks + 1;
  if st.ticks land (budget_stride - 1) = 0 then Budget.poll st.budget

(* Materialize one atom as a relation over its distinct variables
   (schema = variable names, global dictionary), without copying what
   need not be copied:

   - a plain atom (no constants, no repeated variable) is a view: the
     base relation renamed, sharing its row store and memoized key
     indexes, so every plan compiled on one snapshot builds each base
     index once;
   - an atom with constants probes the base's memoized index on the
     selection positions, so its cost is the matching rows, not n;
   - an atom with only repeated variables scans.

   Matching rows agree on every constant and repeated position, so the
   projection to first occurrences is injective on them and the result
   is built sealed, without dedup hashing.  The base is only read
   densely and through the locked index memo — never [Row_set.add] or
   [mem], which would build a shared sealed set's probe table
   unsynchronized. *)
let materialize ?budget db scan atom =
  let rel = Database.find db scan.Planner.rel in
  let vars = scan.Planner.vars in
  let empty () = Relation.of_unique_codes ~name:scan.Planner.rel ~schema:vars [||] in
  if Relation.arity rel <> Atom.arity atom then
    (* Interpreters treat arity-mismatched tuples as non-matching. *)
    empty ()
  else if scan.Planner.selections = [] && scan.Planner.equalities = [] then
    Relation.rename_positional vars rel
  else begin
    let sel_pos = Array.of_list (List.map fst scan.Planner.selections) in
    let sel_key =
      Array.of_list
        (List.map
           (fun (_, v) -> Dictionary.code_opt Dictionary.global v)
           scan.Planner.selections)
    in
    (* Constants absent from the dictionary match nothing. *)
    if Array.mem None sel_key then empty ()
    else begin
      let sel_key = Array.map Option.get sel_key in
      (* Mutation hook: ignore the repeated-variable equalities on the
         index-probe path, a single-point bug the oracle must catch. *)
      let eqs =
        if sel_pos <> [||] && Mutate.enabled "materialize_drop_eq" then [||]
        else Array.of_list scan.Planner.equalities
      in
      (* First-occurrence position of each distinct variable, in [vars]
         order: the projection that turns a stored row into a plan row. *)
      let fpos =
        let first = Hashtbl.create 4 in
        List.iteri
          (fun i t ->
            match t with
            | Term.Var x when not (Hashtbl.mem first x) -> Hashtbl.add first x i
            | _ -> ())
          atom.Atom.args;
        Array.of_list (List.map (Hashtbl.find first) vars)
      in
      let n = ref 0 and rows = ref [] in
      let visit row =
        incr n;
        if !n land (budget_stride - 1) = 0 then Budget.poll budget;
        if Array.for_all (fun (a, b) -> row.(a) = row.(b)) eqs then
          rows := Code_row.sub row fpos :: !rows
      in
      (if sel_pos = [||] then Relation.iter_codes visit rel
       else
         let idx = Relation.hash_index rel sel_pos in
         Relation.probe_iter rel idx sel_key
           (Array.init (Array.length sel_key) Fun.id)
           visit);
      Relation.of_unique_codes ~name:scan.Planner.rel ~schema:vars
        (Array.of_list (List.rev !rows))
    end
  end

(* One fused register-level check per constraint.  [<] and [<=] compare
   value-order ranks from the dictionary's order index, taken once per
   compile ([order] forces it) and covering every code interned before
   the compile — the snapshot's codes among them.  A constant is placed
   in that order by binary search, never interned: [x < v] iff
   [rank x < lo], [x <= v] iff [rank x < hi], where [lo] / [hi] covered
   values are below / at or below [v]. *)
let compile_constraint reg_of order c =
  let operand = function
    | Term.Var x -> `Reg (reg_of x)
    | Term.Const v -> `Const v
  in
  let l = operand c.Constr.lhs and r = operand c.Constr.rhs in
  match (c.Constr.op, l, r) with
  | op, `Const u, `Const v ->
      let b = Constr.eval_op op u v in
      fun _ -> b
  | Constr.Neq, `Reg a, `Reg b -> fun regs -> regs.(a) <> regs.(b)
  | Constr.Neq, `Reg a, `Const v | Constr.Neq, `Const v, `Reg a -> (
      (* an absent constant differs from every register *)
      match Dictionary.code_opt Dictionary.global v with
      | Some c -> fun regs -> regs.(a) <> c
      | None -> fun _ -> true)
  | ((Constr.Lt | Constr.Le) as op), l, r -> (
      let o : Dictionary.order = Lazy.force order in
      (* Mutation hook: compare the raw codes (first-seen order) instead
         of their value-order ranks. *)
      let rank =
        if Mutate.enabled "order_raw_codes" then Array.init o.covered Fun.id
        else o.rank
      in
      let bounds v = Dictionary.bounds Dictionary.global o v in
      match (l, r) with
      | `Reg a, `Reg b ->
          if op = Constr.Lt then fun regs -> rank.(regs.(a)) < rank.(regs.(b))
          else fun regs -> rank.(regs.(a)) <= rank.(regs.(b))
      | `Reg a, `Const v ->
          let lo, hi = bounds v in
          let below = if op = Constr.Lt then lo else hi in
          fun regs -> rank.(regs.(a)) < below
      | `Const v, `Reg b ->
          let lo, hi = bounds v in
          let from = if op = Constr.Lt then hi else lo in
          fun regs -> rank.(regs.(b)) >= from
      | `Const _, `Const _ -> assert false)

(* Materialize every atom and semijoin-reduce them over the plan's join
   tree (acyclic plans), with {!Yannakakis}' two passes: outward from the
   root (child ⋉ parent), so a selective root shrinks every relation
   first, then inward to it (parent ⋉ child).  That leaves each node
   reduced by its subtree in the pipeline's own rooting, which is all
   enumeration from the root needs to meet no dead end.  Count-preserving:
   materialization's projection to first-occurrence variable positions is
   injective on the rows matching the selection pattern, and semijoins
   only drop rows that join with nothing. *)
let reduced_mats ?budget plan db atoms =
  let mats =
    Array.mapi
      (fun i scan -> materialize ?budget db scan atoms.(i))
      plan.Planner.scans
  in
  match plan.Planner.tree with
  | None -> mats
  | Some tree ->
      Yannakakis.semijoin_bottom_up ?budget tree
        (Yannakakis.semijoin_top_down ?budget tree mats)

(* Every filter of a step, checked without allocating: a closed
   recursive walk, not [Array.for_all] over a fresh closure. *)
let rec all_hold checks regs i =
  i >= Array.length checks || (checks.(i) regs && all_hold checks regs (i + 1))

(* Nat barrier: record the subtree count of key [id].  The count array
   is kept as long as the key set's dense row store, so it grows by the
   key set's own rule. *)
let memo_store st k id c =
  let a = st.counts.(k) in
  if id >= Array.length a then begin
    let b = Array.make (Array.length (Row_set.rows st.keys.(k))) 0 in
    Array.blit a 0 b 0 (Array.length a);
    st.counts.(k) <- b
  end;
  st.counts.(k).(id) <- c

(* The Nat sink's adds, overflow-checked like [Semiring.nat]: a branch
   and no allocation.  [checked] is false only under the [unchecked_add]
   mutant, read once per compile. *)
let add ~checked a b =
  let s = a + b in
  if checked && (a lxor s) land (b lxor s) < 0 then
    raise Semiring.Count_overflow
  else s

(* Dead-variable barriers (planned by {!Planner.barrier_spec}) under the
   two sinks.  Past a barrier the downstream work is a function of the
   live registers alone (later steps read only already-bound key
   registers or registers they bind themselves, and the emit reads the
   head, which is live).  Bool: a distinct-prefix set prunes duplicate
   continuation subtrees, which turns e.g. long-chain walk enumeration
   from exponential in the chain length into output-bounded work.  Nat:
   dedup would be the Bool semiring's ⊕ — collapsing multiplicities is
   exactly the bug the counting oracle exists to catch — so each
   distinct live prefix runs the subtree once and replays its count
   thereafter, keeping counting within the same complexity envelope.
   Both hash and compare the registers in place, in one probe of the
   key set per visit; only a new key is copied.  The key goes in before
   its subtree runs: barrier [k] does not recur below itself. *)
let barrier ~checked sink k pos next =
  match sink with
  | Bool ->
      fun st ->
        let keys = st.keys.(k) in
        let n = Row_set.cardinal keys in
        if Row_set.add_sub keys st.regs pos = n then next st
  | Nat ->
      fun st ->
        let keys = st.keys.(k) in
        let n = Row_set.cardinal keys in
        let id = Row_set.add_sub keys st.regs pos in
        if id < n then st.acc <- add ~checked st.acc st.counts.(k).(id)
        else begin
          let saved = st.acc in
          st.acc <- 0;
          next st;
          memo_store st k id st.acc;
          st.acc <- add ~checked saved st.acc
        end

(* Lower the plan to one pipeline of fused closures over the register
   file.  Scan and probe steps walk row ids with plain loops (the probe
   cursor), so a running pipeline allocates only what the sink keeps: a
   new output row, or a new barrier/memo key. *)
let build ?budget sink plan db =
  Budget.poll budget;
  let q = plan.Planner.query in
  let vars = Cq.vars q in
  let nvars = List.length vars in
  let reg_of =
    let tbl = Hashtbl.create 8 in
    List.iteri (fun i x -> Hashtbl.add tbl x i) vars;
    Hashtbl.find tbl
  in
  let head_schema = List.mapi (fun i _ -> Printf.sprintf "a%d" i) q.Cq.head in
  (* Head constants get their own registers, loaded once per run, so the
     emit is one in-place [add_sub] of the head positions. *)
  let consts =
    Array.of_list
      (List.filter_map
         (function
           | Term.Const v -> Some (Dictionary.intern Dictionary.global v)
           | Term.Var _ -> None)
         q.Cq.head)
  in
  let head_pos =
    let c = ref nvars in
    Array.of_list
      (List.map
         (function
           | Term.Var x -> reg_of x
           | Term.Const _ ->
               incr c;
               !c - 1)
         q.Cq.head)
  in
  (* Mutation hook: the Nat sink's sums wrap silently on overflow. *)
  let checked = not (Mutate.enabled "unchecked_add") in
  let emit =
    match sink with
    | Bool ->
        fun st ->
          tick st;
          ignore (Row_set.add_sub st.out st.regs head_pos)
    | Nat ->
        fun st ->
          tick st;
          st.acc <- add ~checked st.acc 1
  in
  let nkeys, pipeline =
    if not (List.for_all Constr.ground_holds plan.Planner.ground) then
      (0, fun _ -> ())
    else if q.Cq.body = [] then (0, emit)
    else begin
      let atoms = Array.of_list q.Cq.body in
      (* Acyclic plans: semijoin reduction at compile time, so the
         pipeline below enumerates without dead ends (Yannakakis). *)
      let mats = reduced_mats ?budget plan db atoms in
      let order =
        lazy
          (Dictionary.order Dictionary.global
             ~covering:(Dictionary.size Dictionary.global))
      in
      let with_filters i next =
        match
          List.filter_map
            (fun (j, c) ->
              if j = i then Some (compile_constraint reg_of order c) else None)
            plan.Planner.filters
        with
        | [] -> next
        | checks ->
            let checks = Array.of_list checks in
            fun st -> if all_hold checks st.regs 0 then next st
      in
      let nkeys = ref 0 in
      let with_barrier i next =
        match plan.Planner.barriers.(i) with
        | None -> next
        | Some live ->
            let k = !nkeys in
            incr nkeys;
            let pos = Array.of_list (List.map reg_of live) in
            (* Mutation hook: key the barrier on its first live register
               only, merging distinct multi-variable prefixes. *)
            let pos =
              if Mutate.enabled "barrier_key_prefix" && Array.length pos > 1
              then [| pos.(0) |]
              else pos
            in
            barrier ~checked sink k pos next
      in
      (* First-witness cut (the plan's [cut]), Bool only: once every head
         variable is bound, the remaining steps only decide whether this
         head row has a witness.  The suffix's emit raises, the cut
         catches it and emits the row once, so a projected head costs
         one witness per answer row instead of one pass per valuation.
         A barrier prefix recorded inside an aborted suffix carries the
         head variables (they are live at every barrier), so it only
         ever prunes a subtree whose head row is already out.  Counting
         needs every valuation and ignores the cut. *)
      let cut =
        if Mutate.enabled "exists_cut_early" then plan.Planner.cut - 1
        else plan.Planner.cut
      in
      let witness_only =
        sink = Bool && cut < List.length plan.Planner.steps - 1
      in
      let exception Witness in
      let at_cut suffix st =
        match suffix st with () -> () | exception Witness -> emit st
      in
      let terminal =
        if witness_only then fun _ -> raise_notrace Witness else emit
      in
      let rec build_steps steps i =
        match steps with
        | [] -> terminal
        | step :: rest -> (
            let suffix = build_steps rest (i + 1) in
            let suffix = if witness_only && i = cut then at_cut suffix else suffix in
            let next = with_filters i (with_barrier i suffix) in
            match step with
            | Planner.Scan { atom } ->
                let rel = mats.(atom) in
                let dst =
                  Array.of_list (List.map reg_of plan.Planner.scans.(atom).vars)
                in
                let n = Array.length dst in
                let rows = Relation.rows rel and nrows = Relation.cardinality rel in
                fun st ->
                  for r = 0 to nrows - 1 do
                    let row = rows.(r) in
                    tick st;
                    for k = 0 to n - 1 do
                      st.regs.(dst.(k)) <- row.(k)
                    done;
                    next st
                  done
            | Planner.Probe { atom; key; bind } ->
                let rel = mats.(atom) in
                let key_pos = Relation.positions rel key in
                let key_regs = Array.of_list (List.map reg_of key) in
                let idx = Relation.hash_index rel key_pos in
                let bind_src = Relation.positions rel bind in
                let bind_dst = Array.of_list (List.map reg_of bind) in
                (* Mutation hook: bind the first output column from the
                   probe key's first column instead of its own — a
                   single-point bug the differential oracle must catch. *)
                if
                  Mutate.enabled "probe_key_swap"
                  && Array.length bind_src > 0
                  && Array.length key_pos > 0
                then bind_src.(0) <- key_pos.(0);
                let n = Array.length bind_dst in
                let rows = Relation.rows rel in
                (* The key registers are bound before this step and never
                   written downstream, so the cursor can re-read them. *)
                fun st ->
                  let r = ref (Relation.probe_first rel idx st.regs key_regs) in
                  while !r >= 0 do
                    let row = rows.(!r) in
                    tick st;
                    for k = 0 to n - 1 do
                      st.regs.(bind_dst.(k)) <- row.(bind_src.(k))
                    done;
                    next st;
                    r := Relation.probe_next rel idx st.regs key_regs !r
                  done
            | Planner.Exists { atom; key } ->
                let rel = mats.(atom) in
                let key_pos = Relation.positions rel key in
                let key_regs = Array.of_list (List.map reg_of key) in
                let idx = Relation.hash_index rel key_pos in
                fun st ->
                  tick st;
                  if Relation.probe_first rel idx st.regs key_regs >= 0 then next st)
      in
      let pipeline = build_steps plan.Planner.steps 0 in
      (!nkeys, if witness_only && cut < 0 then at_cut pipeline else pipeline)
    end
  in
  { name = q.Cq.name; head_schema; nvars; consts; nkeys; pipeline }

let compile ?budget plan db =
  let pipe p = build ?budget Bool p db in
  let q = plan.Planner.query in
  let decided, emitting =
    match plan.Planner.components with
    | [] -> ([], [ plan ])
    | cs ->
        let decided, emitting =
          List.partition (fun c -> c.Planner.decided) cs
        in
        let plans = List.map (fun c -> c.Planner.plan) in
        (plans decided, plans emitting)
  in
  let parts = Array.of_list (List.map pipe emitting) in
  let layout =
    if Array.length parts = 1 then [||]
    else begin
      (* several parts' heads are their own distinct variables *)
      let column = Hashtbl.create 8 in
      List.iteri
        (fun k p ->
          List.iteri
            (fun j x -> Hashtbl.replace column x (k, j))
            (Cq.head_vars p.Planner.query))
        emitting;
      Array.of_list
        (List.map
           (function
             | Term.Var x -> Hashtbl.find column x
             | Term.Const v -> (-1, Dictionary.intern Dictionary.global v))
           q.Cq.head)
    end
  in
  Metrics.incr m_pipelines;
  {
    name = q.Cq.name;
    head_schema = List.mapi (fun i _ -> Printf.sprintf "a%d" i) q.Cq.head;
    decided = List.map pipe decided;
    parts;
    layout;
  }

let compile_count ?budget plan db =
  let terms = Planner.count_terms plan in
  if List.length terms > 1 then Metrics.incr ~by:(List.length terms) m_count_terms;
  let pipe p =
    Metrics.incr m_count_pipelines;
    build ?budget Nat p db
  in
  (* Mutation hook: a nonempty head-free component of a forest counts
     once, as if COUNT took its Boolean answer. *)
  let headfree_bool = Mutate.enabled "forest_count_headfree_bool" in
  let component c =
    let exec = pipe c.Planner.plan in
    if headfree_bool && Cq.head_vars c.Planner.plan.Planner.query = [] then
      {
        exec with
        pipeline =
          (fun st ->
            exec.pipeline st;
            st.acc <- min st.acc 1);
      }
    else exec
  in
  List.map
    (fun (c, p) ->
      match p.Planner.components with
      | [] -> (c, [ pipe p ])
      | cs -> (c, List.map component cs))
    terms

let start ?budget exec ~out =
  Budget.poll budget;
  let nconsts = Array.length exec.consts in
  let st =
    {
      regs = Array.make (max (exec.nvars + nconsts) 1) (-1);
      ticks = 0;
      budget;
      out;
      keys = Array.init exec.nkeys (fun _ -> Row_set.create 64);
      counts = Array.make exec.nkeys [||];
      acc = 0;
    }
  in
  Array.blit exec.consts 0 st.regs exec.nvars nconsts;
  exec.pipeline st;
  st

(* One pipeline's answer rows, distinct and owned by this run. *)
let rows_of ?budget t =
  Row_set.to_array (start ?budget t ~out:(Row_set.create 64)).out

(* A head-free pipeline stops at its first witness (cut -1): one row or
   none. *)
let has_witness ?budget t =
  Row_set.cardinal (start ?budget t ~out:(Row_set.create 1)).out > 0

(* The answer of several emitting components: every combination of one
   row per part, laid out in head order.  The parts' heads are distinct
   variables of disjoint components, each placed at least once, so
   distinct combinations give distinct rows. *)
let combine ?budget layout rows =
  let m = Array.length rows in
  let pick = Array.make m 0 in
  let out = ref [] and n = ref 0 in
  let cell (k, c) = if k < 0 then c else rows.(k).(pick.(k)).(c) in
  let rec go k =
    if k = m then begin
      incr n;
      if !n land (budget_stride - 1) = 0 then Budget.poll budget;
      out := Array.map cell layout :: !out
    end
    else
      for i = 0 to Array.length rows.(k) - 1 do
        pick.(k) <- i;
        go (k + 1)
      done
  in
  go 0;
  Array.of_list (List.rev !out)

let run ?budget exec =
  let rows =
    if not (List.for_all (has_witness ?budget) exec.decided) then [||]
    else
      match exec.parts with
      | [| t |] -> rows_of ?budget t
      | parts -> combine ?budget exec.layout (Array.map (rows_of ?budget) parts)
  in
  (* The rows are distinct and owned by this run: seal them as the
     result instead of copying and rehashing each one. *)
  Relation.of_unique_codes ~name:exec.name ~schema:exec.head_schema rows

let evaluate ?budget db q = run ?budget (compile ?budget (Planner.plan q) db)

(* The Nat sink never touches [out]: an empty sealed set stands in. *)
let no_out = Row_set.of_unique_array [||] 0

(* The signed sum of the terms' counts, each the product of its
   components' counts, overflow-checked: a count, product or scaled
   count that leaves the int range fails the whole count, even where
   the final sum would fit.  A component counting 0 settles its term,
   and the components after it do not run. *)
let run_count ?budget cexec =
  List.fold_left
    (fun acc (c, execs) ->
      let n =
        List.fold_left
          (fun n exec ->
            if n = 0 then 0
            else Semiring.checked_mul n (start ?budget exec ~out:no_out).acc)
          1 execs
      in
      Semiring.checked_add acc (Semiring.checked_mul c n))
    0 cexec

let count ?budget db q =
  run_count ?budget (compile_count ?budget (Planner.plan q) db)
