module Value = Paradb_relational.Value
module Tuple = Paradb_relational.Tuple
module Relation = Paradb_relational.Relation
module Database = Paradb_relational.Database

exception Parse_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Lexer *)

type token =
  | T_lident of string   (* relation names, lowercase constants *)
  | T_uident of string   (* variables *)
  | T_int of int
  | T_string of string   (* quoted constant *)
  | T_lparen
  | T_rparen
  | T_comma
  | T_dot
  | T_turnstile          (* :- *)
  | T_neq                (* != *)
  | T_lt
  | T_le
  | T_eq
  | T_and                (* & *)
  | T_or                 (* | *)
  | T_not                (* ! *)
  | T_arrow              (* -> *)
  | T_exists
  | T_forall
  | T_true
  | T_false
  | T_eof

let token_to_string = function
  | T_lident s -> s
  | T_uident s -> s
  | T_int i -> string_of_int i
  | T_string s -> "\"" ^ s ^ "\""
  | T_lparen -> "("
  | T_rparen -> ")"
  | T_comma -> ","
  | T_dot -> "."
  | T_turnstile -> ":-"
  | T_neq -> "!="
  | T_lt -> "<"
  | T_le -> "<="
  | T_eq -> "="
  | T_and -> "&"
  | T_or -> "|"
  | T_not -> "!"
  | T_arrow -> "->"
  | T_exists -> "exists"
  | T_forall -> "forall"
  | T_true -> "true"
  | T_false -> "false"
  | T_eof -> "<eof>"

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

let lex (s : string) : (token * int) array =
  let n = String.length s in
  let tokens = ref [] in
  let start = ref 0 in
  let emit t = tokens := (t, !start) :: !tokens in
  let i = ref 0 in
  while !i < n do
    start := !i;
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '%' then begin
      (* comment to end of line *)
      while !i < n && s.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '(' then (emit T_lparen; incr i)
    else if c = ')' then (emit T_rparen; incr i)
    else if c = ',' then (emit T_comma; incr i)
    else if c = '.' then (emit T_dot; incr i)
    else if c = '&' then (emit T_and; incr i)
    else if c = '|' then (emit T_or; incr i)
    else if c = '=' then (emit T_eq; incr i)
    else if c = ':' then
      if !i + 1 < n && s.[!i + 1] = '-' then (emit T_turnstile; i := !i + 2)
      else fail "lexer: expected ':-' at offset %d" !i
    else if c = '!' then
      if !i + 1 < n && s.[!i + 1] = '=' then (emit T_neq; i := !i + 2)
      else (emit T_not; incr i)
    else if c = '<' then
      if !i + 1 < n && s.[!i + 1] = '=' then (emit T_le; i := !i + 2)
      else (emit T_lt; incr i)
    else if c = '-' then
      if !i + 1 < n && s.[!i + 1] = '>' then (emit T_arrow; i := !i + 2)
      else if !i + 1 < n && s.[!i + 1] >= '0' && s.[!i + 1] <= '9' then begin
        let start = !i in
        incr i;
        while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
          incr i
        done;
        emit (T_int (int_of_string (String.sub s start (!i - start))))
      end
      else fail "lexer: stray '-' at offset %d" !i
    else if c >= '0' && c <= '9' then begin
      let start = !i in
      while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
        incr i
      done;
      emit (T_int (int_of_string (String.sub s start (!i - start))))
    end
    else if c = '"' then begin
      incr i;
      let start = !i in
      while !i < n && s.[!i] <> '"' do
        incr i
      done;
      if !i >= n then fail "lexer: unterminated string";
      emit (T_string (String.sub s start (!i - start)));
      incr i
    end
    else if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' then begin
      let start = !i in
      while !i < n && is_ident_char s.[!i] do
        incr i
      done;
      let word = String.sub s start (!i - start) in
      match word with
      | "exists" -> emit T_exists
      | "forall" -> emit T_forall
      | "true" -> emit T_true
      | "false" -> emit T_false
      | _ ->
          if c = '_' || (c >= 'A' && c <= 'Z') then emit (T_uident word)
          else emit (T_lident word)
    end
    else fail "lexer: unexpected character %C at offset %d" c !i
  done;
  start := n;
  emit T_eof;
  Array.of_list (List.rev !tokens)

(* 1-based line/column of a byte offset, for error messages. *)
let position source offset =
  let line = ref 1 and col = ref 1 in
  String.iteri
    (fun i c ->
      if i < offset then
        if c = '\n' then begin
          incr line;
          col := 1
        end
        else incr col)
    source;
  Printf.sprintf "line %d, column %d" !line !col

(* ------------------------------------------------------------------ *)
(* Token stream *)

type stream = {
  source : string;
  tokens : (token * int) array;
  mutable pos : int;
}

let stream_of source = { source; tokens = lex source; pos = 0 }
let peek st = fst st.tokens.(st.pos)
let peek2 st = fst st.tokens.(st.pos + 1)
let where st =
  (* clamp: an error may be reported after consuming the eof token *)
  let idx = min st.pos (Array.length st.tokens - 1) in
  position st.source (snd st.tokens.(idx))
let advance st = st.pos <- st.pos + 1

let next st =
  let t = peek st in
  advance st;
  t

let expect st t =
  (* [where] rescans the source to compute line/column, so it must only
     run on the failure path — an eager call here turns fact-file
     parsing quadratic in the file size. *)
  let at = st.pos in
  let got = next st in
  if got <> t then begin
    st.pos <- at;
    let loc = where st in
    st.pos <- at + 1;
    fail "parser: expected %s, got %s at %s" (token_to_string t)
      (token_to_string got) loc
  end

(* ------------------------------------------------------------------ *)
(* Terms and atoms *)

let parse_term st =
  match next st with
  | T_uident x -> Term.Var x
  | T_lident s -> Term.Const (Value.Str s)
  | T_int i -> Term.Const (Value.Int i)
  | T_string s -> Term.Const (Value.Str s)
  | t -> fail "parser: expected a term, got %s at %s" (token_to_string t) (where st)

let parse_term_list st =
  expect st T_lparen;
  if peek st = T_rparen then begin
    advance st;
    []
  end
  else
    let rec go acc =
      let t = parse_term st in
      match next st with
      | T_comma -> go (t :: acc)
      | T_rparen -> List.rev (t :: acc)
      | tok -> fail "parser: expected ',' or ')', got %s at %s" (token_to_string tok) (where st)
    in
    go []

(* An item in a rule body: a relational atom or a constraint. *)
type body_item =
  | B_atom of Atom.t
  | B_constr of Constr.t

let parse_body_item st =
  (* Lookahead: lident followed by '(' is a relational atom; a lident
     followed by anything other than a constraint operator is a 0-ary
     atom; otherwise we parse [term op term]. *)
  match peek st, peek2 st with
  | T_lident name, T_lparen ->
      advance st;
      B_atom (Atom.make name (parse_term_list st))
  | T_lident name, (T_comma | T_dot | T_eof) ->
      advance st;
      B_atom (Atom.make name [])
  | _ ->
      let lhs = parse_term st in
      let op =
        match next st with
        | T_neq -> Constr.Neq
        | T_lt -> Constr.Lt
        | T_le -> Constr.Le
        | t ->
            fail "parser: expected '!=', '<' or '<=', got %s at %s"
              (token_to_string t) (where st)
      in
      let rhs = parse_term st in
      B_constr (Constr.make op lhs rhs)

let parse_head st =
  match next st with
  | T_lident name ->
      let args = if peek st = T_lparen then parse_term_list st else [] in
      (name, args)
  | t -> fail "parser: expected a head atom, got %s at %s" (token_to_string t) (where st)

let parse_body st =
  let rec go acc =
    let item = parse_body_item st in
    if peek st = T_comma then begin
      advance st;
      go (item :: acc)
    end
    else List.rev (item :: acc)
  in
  go []

let parse_clause st =
  let name, head = parse_head st in
  let items =
    if peek st = T_turnstile then begin
      advance st;
      parse_body st
    end
    else []
  in
  if peek st = T_dot then advance st;
  let atoms =
    List.filter_map (function B_atom a -> Some a | B_constr _ -> None) items
  in
  let constraints =
    List.filter_map (function B_constr c -> Some c | B_atom _ -> None) items
  in
  (name, head, atoms, constraints)

let finish st =
  if peek st <> T_eof then
    fail "parser: trailing input at token %s (%s)" (token_to_string (peek st))
      (where st)

let parse_cq s =
  let st = stream_of s in
  let name, head, atoms, constraints = parse_clause st in
  finish st;
  Cq.make ~name ~constraints ~head atoms

let parse_program s ~goal =
  let st = stream_of s in
  let rec go acc =
    if peek st = T_eof then List.rev acc
    else begin
      let name, head, atoms, constraints = parse_clause st in
      if constraints <> [] then
        fail "parser: constraints not allowed in Datalog rules";
      go (Rule.make (Atom.make name head) atoms :: acc)
    end
  in
  Program.make (go []) ~goal

(* ------------------------------------------------------------------ *)
(* First-order formulas *)

let rec parse_formula st = parse_quantified st

and parse_quantified st =
  match peek st with
  | T_exists | T_forall ->
      let quant = next st in
      let rec vars acc =
        match peek st with
        | T_uident x | T_lident x ->
            advance st;
            vars (x :: acc)
        | T_dot ->
            advance st;
            List.rev acc
        | t -> fail "parser: expected variable or '.', got %s at %s" (token_to_string t) (where st)
      in
      let xs = vars [] in
      if xs = [] then fail "parser: quantifier with no variables";
      let body = parse_quantified st in
      if quant = T_exists then Fo.exists xs body else Fo.forall xs body
  | _ -> parse_implies st

and parse_implies st =
  let lhs = parse_or st in
  if peek st = T_arrow then begin
    advance st;
    let rhs = parse_quantified st in
    Fo.implies lhs rhs
  end
  else lhs

and parse_or st =
  let rec go acc =
    if peek st = T_or then begin
      advance st;
      go (parse_and st :: acc)
    end
    else List.rev acc
  in
  let first = parse_and st in
  Fo.disj (go [ first ])

and parse_and st =
  let rec go acc =
    if peek st = T_and then begin
      advance st;
      go (parse_unary st :: acc)
    end
    else List.rev acc
  in
  let first = parse_unary st in
  Fo.conj (go [ first ])

and parse_unary st =
  match peek st with
  | T_not ->
      advance st;
      Fo.neg (parse_unary st)
  | T_true ->
      advance st;
      Fo.True
  | T_false ->
      advance st;
      Fo.False
  | T_lparen ->
      advance st;
      let f = parse_formula st in
      expect st T_rparen;
      f
  | T_exists | T_forall -> parse_quantified st
  | T_lident name when peek2 st = T_lparen ->
      advance st;
      Fo.Rel (Atom.make name (parse_term_list st))
  | _ -> (
      let lhs = parse_term st in
      match next st with
      | T_eq -> Fo.Eq (lhs, parse_term st)
      | T_neq -> Fo.Not (Fo.Eq (lhs, parse_term st))
      | t -> fail "parser: expected '=' or '!=', got %s at %s" (token_to_string t) (where st))

let parse_fo s =
  let st = stream_of s in
  let f = parse_formula st in
  finish st;
  f

(* ------------------------------------------------------------------ *)
(* Fact files *)

(* Shared with the streaming path ([parse_ground_fact]): one clause's
   worth of the fact-file checks, so both loaders reject the same
   inputs with the same messages. *)
let ground_row_of_clause (name, args, atoms, constraints) =
  if atoms <> [] || constraints <> [] then
    fail "parse_facts: rule bodies not allowed in fact files";
  let row =
    Array.of_list
      (List.map
         (function
           | Term.Const v -> v
           | Term.Var x -> fail "parse_facts: variable %s in a fact" x)
         args)
  in
  (name, row)

let parse_ground_fact s =
  let st = stream_of s in
  let name, args, atoms, constraints = parse_clause st in
  finish st;
  ground_row_of_clause (name, args, atoms, constraints)

let parse_facts s =
  let st = stream_of s in
  let table : (string, Tuple.t list ref) Hashtbl.t = Hashtbl.create 16 in
  let rec go () =
    if peek st <> T_eof then begin
      let name, row = ground_row_of_clause (parse_clause st) in
      let bucket =
        match Hashtbl.find_opt table name with
        | Some b -> b
        | None ->
            let b = ref [] in
            Hashtbl.add table name b;
            b
      in
      bucket := row :: !bucket;
      go ()
    end
  in
  go ();
  Hashtbl.fold
    (fun name rows db ->
      let arity =
        match !rows with
        | [] -> 0
        | row :: _ -> Array.length row
      in
      List.iter
        (fun row ->
          if Array.length row <> arity then
            fail "parse_facts: relation %s used with mixed arities" name)
        !rows;
      let schema = List.init arity (Printf.sprintf "a%d") in
      Database.add (Relation.create ~name ~schema (List.rev !rows)) db)
    table Database.empty
