module Value = Paradb_relational.Value
module Tuple = Paradb_relational.Tuple

type t = { rel : string; args : Term.t list }

let make rel args =
  if rel = "" then invalid_arg "Atom.make: empty relation name";
  { rel; args }

let arity a = List.length a.args
let vars a = Term.vars a.args

let constants a =
  List.filter_map
    (function Term.Const v -> Some v | Term.Var _ -> None)
    a.args

let compare a b =
  let c = String.compare a.rel b.rel in
  if c <> 0 then c else List.compare Term.compare a.args b.args

let equal a b = compare a b = 0

let substitute binding a =
  { a with args = List.map (Term.apply (fun x -> Binding.find x binding)) a.args }

let matches a tuple =
  if Tuple.arity tuple <> arity a then None
  else
    let rec go i binding = function
      | [] -> Some binding
      | Term.Const c :: rest ->
          if Value.equal c tuple.(i) then go (i + 1) binding rest else None
      | Term.Var x :: rest -> (
          match Binding.extend x tuple.(i) binding with
          | Some binding -> go (i + 1) binding rest
          | None -> None)
    in
    go 0 Binding.empty a.args

let pp ppf a =
  Format.fprintf ppf "%s(%a)" a.rel
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Term.pp)
    a.args

let to_string a = Format.asprintf "%a" pp a
