(** The single home for [PARADB_*] environment variables.

    Every reader goes through these validated accessors; a malformed
    value raises [Invalid_argument] with a message naming the variable,
    the expected shape and the offending text — instead of the ad-hoc
    silent fallbacks that [Sys.getenv_opt] call sites used to hide.

    Variables:
    - [PARADB_TRACE] — path of the JSONL trace file; setting it turns
      tracing on (see {!Trace.init_from_env}).
    - [PARADB_FAULTS] — comma-separated [key:value] fault-injection
      spec, e.g. ["short_read:0.1,disconnect:0.05,seed:42"]; semantics
      (the admissible keys and probability ranges) are owned by
      [Paradb_server.Fault].
    - [PARADB_MUTATE] — name of a single-point bug to inject (the
      differential oracle's mutation-smoke hook); the admissible names
      are owned by {!Mutate}. *)

val positive_int : name:string -> default:(unit -> int) -> int
(** Read variable [name] as a positive integer; [default] when unset.
    Raises [Invalid_argument] on a malformed or non-positive value. *)

val faults : unit -> (string * float) list option
(** [PARADB_FAULTS] as validated [key:value] pairs ([None] when unset).
    Raises [Invalid_argument] on a blank value, a pair without a colon,
    or a negative/non-numeric value.  Key semantics are checked by the
    consumer ([Paradb_server.Fault]). *)

val trace_file : unit -> string option
(** [PARADB_TRACE]; raises [Invalid_argument] when set but blank. *)

val mutation : unit -> string option
(** [PARADB_MUTATE]; [None] when unset or blank.  Re-read on every call
    so tests can toggle mutants in-process. *)
