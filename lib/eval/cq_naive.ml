module Database = Paradb_relational.Database
module Relation = Paradb_relational.Relation
module Budget = Paradb_telemetry.Budget
module Metrics = Paradb_telemetry.Metrics
open Paradb_query

(* Bumped once per search, by the probes it made, so the hot loop
   touches only the caller's [stats] record. *)
let m_probes = Metrics.counter "naive.probes"

type stats = { mutable probes : int }

let new_stats () = { probes = 0 }

(* A constraint is checkable once both sides are bound; unready constraints
   pass for now and are re-checked when complete. *)
let constr_ready binding c =
  let ready = function
    | Term.Const _ -> true
    | Term.Var x -> Binding.mem x binding
  in
  ready c.Constr.lhs && ready c.Constr.rhs

let check_constraints binding cs =
  List.for_all
    (fun c -> (not (constr_ready binding c)) || Constr.holds binding c)
    cs

let bound_var_count binding atom =
  List.length (List.filter (fun x -> Binding.mem x binding) (Atom.vars atom))

(* How many probes between two deadline checks: cheap enough to leave on
   (one land + branch per probe), frequent enough that expiry surfaces
   within microseconds of real work. *)
let budget_stride = 1024

(* Backtracking enumeration of satisfying instantiations; [on_solution] may
   raise to abort the search. *)
let iter_bindings ?budget ~stats ~order_atoms db q on_solution =
  let constraints = q.Cq.constraints in
  let pick binding remaining =
    if order_atoms then begin
      match
        List.fold_left
          (fun best a ->
            match best with
            | None -> Some a
            | Some b ->
                if bound_var_count binding a > bound_var_count binding b then
                  Some a
                else best)
          None remaining
      with
      | Some a -> (a, List.filter (fun b -> b != a) remaining)
      | None -> assert false
    end
    else (List.hd remaining, List.tl remaining)
  in
  let rec search binding remaining =
    match remaining with
    | [] -> if check_constraints binding constraints then on_solution binding
    | _ ->
        let atom, rest = pick binding remaining in
        let rel = Database.find db atom.Atom.rel in
        let grounded = Atom.substitute binding atom in
        Relation.iter
          (fun tuple ->
            stats.probes <- stats.probes + 1;
            (match budget with
            | Some b when stats.probes land (budget_stride - 1) = 0 ->
                Budget.check b
            | _ -> ());
            match Atom.matches grounded tuple with
            | None -> ()
            | Some extension -> (
                match Binding.merge binding extension with
                | None -> ()
                | Some binding' ->
                    (* Prune as soon as a completed constraint fails. *)
                    if check_constraints binding' constraints then
                      search binding' rest))
          rel
  in
  let start = stats.probes in
  Fun.protect
    ~finally:(fun () -> Metrics.incr ~by:(stats.probes - start) m_probes)
    (fun () -> search Binding.empty q.Cq.body)

let all_bindings ?budget ?stats ?(order_atoms = true) db q =
  let stats = match stats with Some s -> s | None -> new_stats () in
  let results = ref [] in
  iter_bindings ?budget ~stats ~order_atoms db q (fun b ->
      results := b :: !results);
  !results

let evaluate ?budget ?stats ?order_atoms db q =
  let bindings = all_bindings ?budget ?stats ?order_atoms db q in
  let schema = List.mapi (fun i _ -> Printf.sprintf "a%d" i) q.Cq.head in
  let rows = List.map (fun b -> Cq.head_tuple b q) bindings in
  Relation.create ~name:q.Cq.name ~schema rows

(* Exact answer count under bag (Nat-semiring) semantics: the number of
   satisfying valuations of the body variables.  [iter_bindings] visits
   each valuation exactly once — relations are sets and a full binding
   pins every atom's tuple — so counting callbacks is exact.  This is
   the oracle's counting reference; every other COUNT path is checked
   against it. *)
let count ?budget ?stats ?(order_atoms = true) db q =
  let stats = match stats with Some s -> s | None -> new_stats () in
  let n = ref 0 in
  iter_bindings ?budget ~stats ~order_atoms db q (fun _ -> incr n);
  !n

exception Found

let is_satisfiable ?budget ?stats ?(order_atoms = true) db q =
  let stats = match stats with Some s -> s | None -> new_stats () in
  try
    iter_bindings ?budget ~stats ~order_atoms db q (fun _ -> raise Found);
    false
  with Found -> true

let decide ?budget ?stats ?order_atoms db q tuple =
  match Cq.close_with_tuple q tuple with
  | None -> false
  | Some closed -> is_satisfiable ?budget ?stats ?order_atoms db closed
