(* Cooperative cancellation: a per-request deadline checked at loop
   checkpoints.  The struct is immutable except for the [cancelled]
   atomic, so a budget can be shared freely across domains. *)

exception Exhausted of { budget_ns : int; elapsed_ns : int }

type t = {
  started : int; (* Clock.now_ns at [start] *)
  deadline : int; (* absolute: started + budget_ns *)
  budget_ns : int;
  cancelled : bool Atomic.t;
}

let start ~deadline_ns =
  if deadline_ns <= 0 then
    invalid_arg "Budget.start: deadline_ns must be positive";
  let now = Clock.now_ns () in
  {
    started = now;
    deadline = now + deadline_ns;
    budget_ns = deadline_ns;
    cancelled = Atomic.make false;
  }

let budget_ns t = t.budget_ns
let elapsed_ns t = Clock.now_ns () - t.started
let remaining_ns t = t.deadline - Clock.now_ns ()
let cancel t = Atomic.set t.cancelled true
let is_cancelled t = Atomic.get t.cancelled

let expired t = Atomic.get t.cancelled || Clock.now_ns () > t.deadline

let check t =
  let now = Clock.now_ns () in
  if Atomic.get t.cancelled || now > t.deadline then
    raise (Exhausted { budget_ns = t.budget_ns; elapsed_ns = now - t.started })

let poll = function None -> () | Some t -> check t
