(** Cooperative request cancellation: a deadline (in {!Clock.now_ns}
    nanoseconds) polled at evaluator loop checkpoints.

    Theorem 1 says worst-case instances outside the tractable fragments
    {e will} hang an evaluator, so every long-running loop — naive
    backtracking probes, FO quantifier extensions, Datalog fixpoint
    rounds, Yannakakis semijoin passes, the Theorem-2 trial driver —
    calls {!poll} at a natural stride.  Expiry (or an explicit
    {!cancel} from another domain) raises {!Exhausted}; the caller maps
    it to a structured error and the worker survives.

    A budget is safe to share across domains: the deadline is immutable
    and cancellation is a single atomic flag. *)

(** Raised by {!check}/{!poll} once the deadline has passed (or the
    budget was cancelled).  [elapsed_ns] is measured at the raising
    checkpoint, so it exceeds [budget_ns] by at most one checkpoint
    stride. *)
exception Exhausted of { budget_ns : int; elapsed_ns : int }

type t

(** [start ~deadline_ns] — a budget expiring [deadline_ns] from now.
    Raises [Invalid_argument] if [deadline_ns <= 0]. *)
val start : deadline_ns:int -> t

val budget_ns : t -> int
val elapsed_ns : t -> int

(** Negative once expired. *)
val remaining_ns : t -> int

(** Flag the budget from any domain; the next {!check} raises. *)
val cancel : t -> unit

val is_cancelled : t -> bool

(** Non-raising test: has the deadline passed or the budget been
    cancelled? *)
val expired : t -> bool

(** Raise {!Exhausted} if expired or cancelled. *)
val check : t -> unit

(** [poll (Some t)] = [check t]; [poll None] is free — the universal
    checkpoint form for [?budget] parameters. *)
val poll : t option -> unit
