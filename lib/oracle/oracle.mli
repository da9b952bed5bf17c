(** The differential oracle driver (see DESIGN.md §12): generate seeded
    instances, fan each through every applicable engine, compare against
    the naive reference under each engine's contract, and shrink any
    divergence to a replayable [.case] file.

    Telemetry: [oracle.cases], [oracle.comparisons],
    [oracle.divergences], [oracle.shrink_steps]. *)

type config = {
  seed : int;
  cases : int;
  max_vars : int;
  max_tuples : int;
  engines : string list option;
      (** subset of {!Engines.names} to run; [None] = all (including
          the live-server round-trip) *)
  out_dir : string option;
      (** where shrunk [.case] files go; [None] = don't write *)
}

val default_config : config

type divergence = {
  engine : string;
  index : int;  (** the case index that diverged *)
  label : string;  (** its case class *)
  expected : Engines.outcome;  (** reference outcome on the shrunk case *)
  got : Engines.outcome;
  shrunk : Gen.instance;
  shrink_steps : int;
  case_path : string option;
}

type report = {
  cases_run : int;
  comparisons : int;
  divergences : divergence list;
  shrink_steps : int;
}

(** Run the campaign.  Validates [PARADB_MUTATE] and engine names
    ([Invalid_argument] on a typo), and starts/stops an in-process
    server when the ["serve"] engine is selected.  [progress] is called
    with each case index before it runs. *)
val run : ?progress:(int -> unit) -> config -> report

(** Replay a [.case] file: returns the instance, engine name, reference
    and engine outcomes, and whether they now agree. *)
val replay :
  string ->
  Gen.instance * string * Engines.outcome * Engines.outcome * bool
