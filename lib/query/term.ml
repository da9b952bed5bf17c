module Value = Paradb_relational.Value

type t =
  | Var of string
  | Const of Value.t

let var x = Var x
let const v = Const v
let int i = Const (Value.int i)
let str s = Const (Value.str s)

let compare a b =
  match a, b with
  | Var x, Var y -> String.compare x y
  | Var _, Const _ -> -1
  | Const _, Var _ -> 1
  | Const u, Const v -> Value.compare u v

let equal a b = compare a b = 0

let vars terms =
  let rec go seen acc = function
    | [] -> List.rev acc
    | Var x :: rest ->
        if List.mem x seen then go seen acc rest
        else go (x :: seen) (x :: acc) rest
    | Const _ :: rest -> go seen acc rest
  in
  go [] [] terms

let apply binding = function
  | Var x as t -> ( match binding x with Some v -> Const v | None -> t)
  | Const _ as t -> t

let lexes_as_lident s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
         | _ -> false)
       s
  && not (List.mem s [ "exists"; "forall"; "true"; "false" ])

let value_to_syntax = function
  | Value.Int i -> string_of_int i
  | Value.Str s ->
      (* a string of digits must be quoted or it would re-read as Int *)
      if lexes_as_lident s && int_of_string_opt s = None then s
      else "\"" ^ s ^ "\""

(* Constants print in source syntax, so a printed query re-parses to
   the same query. *)
let pp ppf = function
  | Var x -> Format.pp_print_string ppf x
  | Const v -> Format.pp_print_string ppf (value_to_syntax v)

let to_string t = Format.asprintf "%a" pp t
