(* Commutative semirings for annotated relations.

   The Bool instance is the engine's implicit default and never pays for
   this abstraction: the set-semantics kernel (Row_set dedup, semijoins)
   *is* the Bool semiring, so the trusted fast path stays untouched and
   annotated evaluation is an opt-in layer on top. *)

type 'a t = {
  name : string;
  zero : 'a;
  one : 'a;
  plus : 'a -> 'a -> 'a;
  times : 'a -> 'a -> 'a;
  equal : 'a -> 'a -> bool;
  to_string : 'a -> string;
}

let bool =
  {
    name = "bool";
    zero = false;
    one = true;
    plus = ( || );
    times = ( && );
    equal = Bool.equal;
    to_string = string_of_bool;
  }

exception Count_overflow

(* Overflow iff both operands' signs differ from the sum's.  A branch,
   no allocation: [Count_overflow] is a constant constructor. *)
let checked_add a b =
  let s = a + b in
  if (a lxor s) land (b lxor s) < 0 then raise Count_overflow else s

let checked_mul a b =
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p / b <> a || (a = -1 && b = min_int) || (b = -1 && a = min_int) then
      raise Count_overflow
    else p

let nat =
  {
    name = "nat";
    zero = 0;
    one = 1;
    plus = checked_add;
    times = checked_mul;
    equal = Int.equal;
    to_string = string_of_int;
  }

(* min-plus with [max_int] as +inf.  [times] saturates so inf + w = inf
   rather than wrapping around. *)
let sat_add a b = if a = max_int || b = max_int then max_int else a + b

let tropical () =
  (* Mutation hook (see Mutate): [sum_instead_of_max] replaces the ⊕
     selection operator (min over alternatives) with arithmetic sum —
     the classic bug of accumulating over all witnesses instead of
     keeping the best one.  Read once at construction: hook sites run
     once per pass, never per tuple. *)
  let plus =
    if Paradb_telemetry.Mutate.enabled "sum_instead_of_max" then sat_add
    else Stdlib.min
  in
  {
    name = "tropical";
    zero = max_int;
    one = 0;
    plus;
    times = sat_add;
    equal = Int.equal;
    to_string = (fun c -> if c = max_int then "inf" else string_of_int c);
  }
