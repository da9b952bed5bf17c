module Value = Paradb_relational.Value

type op =
  | Neq
  | Lt
  | Le

type t = { op : op; lhs : Term.t; rhs : Term.t }

let make op lhs rhs = { op; lhs; rhs }
let neq lhs rhs = make Neq lhs rhs
let lt lhs rhs = make Lt lhs rhs
let le lhs rhs = make Le lhs rhs

let op_rank = function
  | Neq -> 0
  | Lt -> 1
  | Le -> 2

let compare a b =
  let c = Int.compare (op_rank a.op) (op_rank b.op) in
  if c <> 0 then c
  else
    let c = Term.compare a.lhs b.lhs in
    if c <> 0 then c else Term.compare a.rhs b.rhs

let equal a b = compare a b = 0
let vars c = Term.vars [ c.lhs; c.rhs ]

let constants c =
  List.filter_map
    (function Term.Const v -> Some v | Term.Var _ -> None)
    [ c.lhs; c.rhs ]

let is_neq c = c.op = Neq

let is_comparison c =
  match c.op with
  | Lt | Le -> true
  | Neq -> false

let eval_op op u v =
  match op with
  | Neq -> not (Value.equal u v)
  | Lt -> Value.compare u v < 0
  | Le -> Value.compare u v <= 0

let resolve binding t =
  match Binding.apply_term binding t with
  | Some v -> v
  | None ->
      invalid_arg
        ("Constr.holds: unbound variable " ^ Term.to_string t)

let holds binding c =
  eval_op c.op (resolve binding c.lhs) (resolve binding c.rhs)

let substitute binding c =
  let app = Term.apply (fun x -> Binding.find x binding) in
  { c with lhs = app c.lhs; rhs = app c.rhs }

let op_to_string = function
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="

let pp ppf c =
  Format.fprintf ppf "%a %s %a" Term.pp c.lhs (op_to_string c.op) Term.pp c.rhs

let to_string c = Format.asprintf "%a" pp c

let ground_holds c =
  match (c.lhs, c.rhs) with
  | Term.Const a, Term.Const b -> eval_op c.op a b
  | _ -> invalid_arg ("Constr.ground_holds: not ground: " ^ to_string c)
