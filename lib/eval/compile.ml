module Database = Paradb_relational.Database
module Relation = Paradb_relational.Relation
module Dictionary = Paradb_relational.Dictionary
module Row_set = Paradb_relational.Row_set
module Code_row = Paradb_relational.Code_row
module Planner = Paradb_planner.Planner
module Budget = Paradb_telemetry.Budget
module Metrics = Paradb_telemetry.Metrics
module Mutate = Paradb_telemetry.Mutate
open Paradb_query

let m_pipelines = Metrics.counter "compile.pipelines"

(* Per-run state: a flat register file (one slot per query variable,
   holding dictionary codes), the output store, and the strided budget
   checkpoint.  Allocated fresh by [run], so one compiled [exec] can be
   executed concurrently from several domains. *)
type state = {
  regs : int array;
  mutable ticks : int;
  budget : Budget.t option;
  out : Row_set.t;
  dedup : Row_set.t array;
      (** one distinct-prefix set per dead-variable barrier *)
}

type exec = {
  name : string;
  head_schema : string list;
  nregs : int;
  ndedup : int;
  pipeline : state -> unit;
}

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
  (* Code-level work assumes the shared dictionary; re-encode the odd
     relation built against a private one. *)
  let rel =
    if Relation.dict rel == Dictionary.global then rel
    else
      Relation.create ~name:(Relation.name rel)
        ~schema:(Relation.schema_list rel) (Relation.tuples rel)
  in
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

let ground_holds c =
  match (c.Constr.lhs, c.Constr.rhs) with
  | Term.Const a, Term.Const b -> Constr.eval_op c.Constr.op a b
  | _ -> invalid_arg "Compile: ground constraint with a variable"

(* One fused register-level check per constraint.  Shared by the Bool
   and counting pipelines. *)
let compile_constraint reg_of c =
  let operand = function
    | Term.Var x -> `Reg (reg_of x)
    | Term.Const v -> `Const (Dictionary.intern Dictionary.global v, v)
  in
  let l = operand c.Constr.lhs and r = operand c.Constr.rhs in
  match c.Constr.op with
  | Constr.Neq -> (
      match (l, r) with
      | `Reg a, `Reg b -> fun regs -> regs.(a) <> regs.(b)
      | `Reg a, `Const (c, _) -> fun regs -> regs.(a) <> c
      | `Const (c, _), `Reg b -> fun regs -> c <> regs.(b)
      | `Const (c1, _), `Const (c2, _) ->
          let v = c1 <> c2 in
          fun _ -> v)
  | (Constr.Lt | Constr.Le) as op ->
      let value = function
        | `Reg a -> fun regs -> Dictionary.value Dictionary.global regs.(a)
        | `Const (_, v) -> fun _ -> v
      in
      let lv = value l and rv = value r in
      fun regs -> Constr.eval_op op (lv regs) (rv regs)

(* Materialize every atom and apply the plan's semijoin program (full
   reduction for acyclic plans).  Count-preserving: materialization's
   projection to first-occurrence variable positions is injective on the
   rows matching the selection pattern, and semijoins only drop rows that
   join with nothing.  Shared by the Bool and counting pipelines. *)
let reduced_mats ?budget plan db atoms =
  let mats =
    Array.mapi
      (fun i scan -> materialize ?budget db scan atoms.(i))
      plan.Planner.scans
  in
  List.iter
    (fun (target, filter) ->
      Budget.poll budget;
      mats.(target) <- Relation.semijoin mats.(target) mats.(filter))
    plan.Planner.reduce;
  mats

let compile ?budget plan db =
  Budget.poll budget;
  let q = plan.Planner.query in
  let vars = Cq.vars q in
  let nregs = List.length vars in
  let reg_of =
    let tbl = Hashtbl.create 8 in
    List.iteri (fun i x -> Hashtbl.add tbl x i) vars;
    Hashtbl.find tbl
  in
  let head_schema = List.mapi (fun i _ -> Printf.sprintf "a%d" i) q.Cq.head in
  let hspec =
    Array.of_list
      (List.map
         (function
           | Term.Var x -> `Reg (reg_of x)
           | Term.Const v -> `Const (Dictionary.intern Dictionary.global v))
         q.Cq.head)
  in
  let emit st =
    tick st;
    let row =
      Array.map (function `Reg r -> st.regs.(r) | `Const c -> c) hspec
    in
    Row_set.add st.out row
  in
  let ground_ok = List.for_all ground_holds plan.Planner.ground in
  let ndedup, pipeline =
    if not ground_ok then (0, fun _ -> ())
    else if q.Cq.body = [] then (0, emit)
    else begin
      let atoms = Array.of_list q.Cq.body in
      (* Acyclic plans: full semijoin reduction at compile time, so the
         pipeline below enumerates without dead ends (Yannakakis). *)
      let mats = reduced_mats ?budget plan db atoms in
      let filters_at i =
        match
          List.filter_map
            (fun (j, c) -> if j = i then Some (compile_constraint reg_of c) else None)
            plan.Planner.filters
        with
        | [] -> None
        | checks ->
            let checks = Array.of_list checks in
            Some (fun regs -> Array.for_all (fun f -> f regs) checks)
      in
      let with_filters i next =
        match filters_at i with
        | None -> next
        | Some check -> fun st -> if check st.regs then next st
      in
      (* Dead-variable barriers (planned by {!Planner.barrier_spec}): a
         distinct-prefix set on the live registers prunes duplicate
         continuation subtrees, which turns e.g. long-chain walk
         enumeration from exponential in the chain length into
         output-bounded work. *)
      let ndedup = ref 0 in
      let dedup_spec =
        Array.map
          (function
            | None -> None
            | Some live ->
                let k = !ndedup in
                incr ndedup;
                Some (k, Array.of_list (List.map reg_of live)))
          plan.Planner.barriers
      in
      let with_dedup i next =
        match dedup_spec.(i) with
        | None -> next
        | Some (k, proj) ->
            fun st ->
              let seen = st.dedup.(k) in
              let before = Row_set.cardinal seen in
              Row_set.add seen (Code_row.sub st.regs proj);
              if Row_set.cardinal seen > before then next st
      in
      (* First-witness cut (the plan's [cut]): once every head variable
         is bound, the remaining steps only decide whether this head row
         has a witness.  The suffix's emit raises, the cut catches it and
         emits the row once, so a projected head costs one witness per
         answer row instead of one pass per valuation.  A barrier prefix
         recorded inside an aborted suffix carries the head variables
         (they are live at every barrier), so it only ever prunes a
         subtree whose head row is already out. *)
      let cut =
        if Mutate.enabled "exists_cut_early" then plan.Planner.cut - 1
        else plan.Planner.cut
      in
      let witness_only = cut < List.length plan.Planner.steps - 1 in
      let exception Witness in
      let at_cut suffix st =
        match suffix st with () -> () | exception Witness -> emit st
      in
      let terminal =
        if witness_only then fun _ -> raise_notrace Witness else emit
      in
      let rec build steps i =
        match steps with
        | [] -> terminal
        | step :: rest -> (
            let suffix = build rest (i + 1) in
            let suffix = if witness_only && i = cut then at_cut suffix else suffix in
            let next = with_filters i (with_dedup i suffix) in
            match step with
            | Planner.Scan { atom } ->
                let rel = mats.(atom) in
                let dst =
                  Array.of_list (List.map reg_of plan.Planner.scans.(atom).vars)
                in
                let n = Array.length dst in
                fun st ->
                  Relation.iter_codes
                    (fun row ->
                      tick st;
                      for k = 0 to n - 1 do
                        st.regs.(dst.(k)) <- row.(k)
                      done;
                      next st)
                    rel
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
                fun st ->
                  Relation.probe_iter rel idx st.regs key_regs (fun row ->
                      tick st;
                      for k = 0 to n - 1 do
                        st.regs.(bind_dst.(k)) <- row.(bind_src.(k))
                      done;
                      next st)
            | Planner.Exists { atom; key } ->
                let rel = mats.(atom) in
                let key_pos = Relation.positions rel key in
                let key_regs = Array.of_list (List.map reg_of key) in
                let idx = Relation.hash_index rel key_pos in
                fun st ->
                  tick st;
                  if Relation.probe_mem rel idx st.regs key_regs then next st)
      in
      let pipeline = build plan.Planner.steps 0 in
      (!ndedup, if witness_only && cut < 0 then at_cut pipeline else pipeline)
    end
  in
  Metrics.incr m_pipelines;
  { name = q.Cq.name; head_schema; nregs; ndedup; pipeline }

let run ?budget exec =
  Budget.poll budget;
  let st =
    {
      regs = Array.make (max exec.nregs 1) (-1);
      ticks = 0;
      budget;
      out = Row_set.create 64;
      dedup = Array.init exec.ndedup (fun _ -> Row_set.create 64);
    }
  in
  exec.pipeline st;
  (* The output set's rows are distinct and owned by this run: seal
     them as the result instead of copying and rehashing each one. *)
  Relation.of_unique_codes ~name:exec.name ~schema:exec.head_schema
    (Row_set.to_array st.out)

let evaluate ?budget db q = run ?budget (compile ?budget (Planner.plan q) db)

(* {2 Counting pipeline}

   Same plan, same materialization, same probe order — but the sink
   counts satisfying valuations of the body variables (Nat-semiring
   semantics) instead of collecting deduplicated head rows.  The two
   sinks are kept as separate pipelines on purpose: the Bool path above
   is the trusted fast path and must stay bit-identical, and a counting
   run must NOT dedup — dedup is the Bool semiring's ⊕, and collapsing
   multiplicities is precisely the bug the counting oracle exists to
   catch.

   Where the Bool pipeline dedups at a dead-variable barrier, the
   counting pipeline memoizes: past a barrier the downstream count is a
   function of the live registers alone (later steps read only
   already-bound key registers or registers they bind themselves, and
   the emit reads none), so each distinct live prefix runs the subtree
   once and replays its count from the memo thereafter.  That keeps
   counting within the same complexity envelope as the deduplicated
   enumeration instead of paying the full (possibly exponential)
   valuation tree. *)

type count_state = {
  cregs : int array;
  mutable cticks : int;
  cbudget : Budget.t option;
  mutable acc : int;
  memo : int Code_row.Table.t array;
      (** one live-prefix memo per dead-variable barrier *)
}

type count_exec = {
  cname : string;
  cnregs : int;
  nmemo : int;
  cpipeline : count_state -> unit;
}

let m_count_pipelines = Metrics.counter "compile.count_pipelines"

let ctick st =
  st.cticks <- st.cticks + 1;
  if st.cticks land (budget_stride - 1) = 0 then Budget.poll st.cbudget

let compile_count ?budget plan db =
  Budget.poll budget;
  let q = plan.Planner.query in
  let vars = Cq.vars q in
  let cnregs = List.length vars in
  let reg_of =
    let tbl = Hashtbl.create 8 in
    List.iteri (fun i x -> Hashtbl.add tbl x i) vars;
    Hashtbl.find tbl
  in
  let emit st =
    ctick st;
    st.acc <- st.acc + 1
  in
  let ground_ok = List.for_all ground_holds plan.Planner.ground in
  let nmemo, cpipeline =
    if not ground_ok then (0, fun _ -> ())
    else if q.Cq.body = [] then (0, emit)
    else begin
      let atoms = Array.of_list q.Cq.body in
      let mats = reduced_mats ?budget plan db atoms in
      let filters_at i =
        match
          List.filter_map
            (fun (j, c) -> if j = i then Some (compile_constraint reg_of c) else None)
            plan.Planner.filters
        with
        | [] -> None
        | checks ->
            let checks = Array.of_list checks in
            Some (fun regs -> Array.for_all (fun f -> f regs) checks)
      in
      let with_filters i next =
        match filters_at i with
        | None -> next
        | Some check -> fun st -> if check st.cregs then next st
      in
      let nmemo = ref 0 in
      let memo_spec =
        Array.map
          (function
            | None -> None
            | Some live ->
                let k = !nmemo in
                incr nmemo;
                Some (k, Array.of_list (List.map reg_of live)))
          plan.Planner.barriers
      in
      let with_memo i next =
        match memo_spec.(i) with
        | None -> next
        | Some (k, proj) ->
            fun st ->
              let key = Code_row.sub st.cregs proj in
              (match Code_row.Table.find_opt st.memo.(k) key with
              | Some c -> st.acc <- st.acc + c
              | None ->
                  let saved = st.acc in
                  st.acc <- 0;
                  next st;
                  Code_row.Table.replace st.memo.(k) key st.acc;
                  st.acc <- saved + st.acc)
      in
      let rec build steps i =
        match steps with
        | [] -> emit
        | step :: rest -> (
            let next = with_filters i (with_memo i (build rest (i + 1))) in
            match step with
            | Planner.Scan { atom } ->
                let rel = mats.(atom) in
                let dst =
                  Array.of_list (List.map reg_of plan.Planner.scans.(atom).vars)
                in
                let n = Array.length dst in
                fun st ->
                  Relation.iter_codes
                    (fun row ->
                      ctick st;
                      for k = 0 to n - 1 do
                        st.cregs.(dst.(k)) <- row.(k)
                      done;
                      next st)
                    rel
            | Planner.Probe { atom; key; bind } ->
                let rel = mats.(atom) in
                let key_pos = Relation.positions rel key in
                let key_regs = Array.of_list (List.map reg_of key) in
                let idx = Relation.hash_index rel key_pos in
                let bind_src = Relation.positions rel bind in
                let bind_dst = Array.of_list (List.map reg_of bind) in
                let n = Array.length bind_dst in
                fun st ->
                  Relation.probe_iter rel idx st.cregs key_regs (fun row ->
                      ctick st;
                      for k = 0 to n - 1 do
                        st.cregs.(bind_dst.(k)) <- row.(bind_src.(k))
                      done;
                      next st)
            | Planner.Exists { atom; key } ->
                let rel = mats.(atom) in
                let key_pos = Relation.positions rel key in
                let key_regs = Array.of_list (List.map reg_of key) in
                let idx = Relation.hash_index rel key_pos in
                fun st ->
                  ctick st;
                  if Relation.probe_mem rel idx st.cregs key_regs then next st)
      in
      let cpipeline = build plan.Planner.steps 0 in
      (!nmemo, cpipeline)
    end
  in
  Metrics.incr m_count_pipelines;
  { cname = q.Cq.name; cnregs; nmemo; cpipeline }

let run_count ?budget cexec =
  Budget.poll budget;
  let st =
    {
      cregs = Array.make (max cexec.cnregs 1) (-1);
      cticks = 0;
      cbudget = budget;
      acc = 0;
      memo = Array.init cexec.nmemo (fun _ -> Code_row.Table.create 64);
    }
  in
  cexec.cpipeline st;
  st.acc

let count ?budget db q =
  run_count ?budget (compile_count ?budget (Planner.plan q) db)
