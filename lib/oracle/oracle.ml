module Metrics = Paradb_telemetry.Metrics
module Mutate = Paradb_telemetry.Mutate

let m_cases = Metrics.counter "oracle.cases"
let m_comparisons = Metrics.counter "oracle.comparisons"
let m_divergences = Metrics.counter "oracle.divergences"

type config = {
  seed : int;
  cases : int;
  max_vars : int;
  max_tuples : int;
  engines : string list option;
  out_dir : string option;
}

let default_config =
  {
    seed = 42;
    cases = 500;
    max_vars = 8;
    max_tuples = 16;
    engines = None;
    out_dir = None;
  }

type divergence = {
  engine : string;
  index : int;
  label : string;
  expected : Engines.outcome;
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

let validate_engine_names names =
  List.iter
    (fun n ->
      if not (List.mem n Engines.names) then
        invalid_arg
          (Printf.sprintf "unknown engine %S (known: %s)" n
             (String.concat ", " Engines.names)))
    names

let wanted cfg name =
  match cfg.engines with None -> true | Some names -> List.mem name names

(* Rerun one engine against the reference on a candidate instance — the
   shrinker's divergence predicate.  Outcomes that move out of the
   engine's applicability (a merge making the query cyclic, say) read as
   agreement, so shrinking never wanders outside the engine's domain. *)
let check_one (engine : Engines.t) inst =
  let reference = Engines.reference engine.mode inst in
  let got = engine.run inst in
  (reference, got, Engines.agrees ~mode:engine.mode ~reference got)

(* The contracts share three reference computations (Exact and Subset
   compare against the same answer set); memoize per instance so a
   case fuzzed against many engines runs each brute-force pass once —
   and the count/cost references only when a matching engine is in
   play. *)
let ref_slot (mode : Engines.mode) =
  match mode with
  | Engines.Exact | Engines.Subset -> 0
  | Engines.Exact_count -> 1
  | Engines.Exact_cost -> 2

let run ?(progress = fun _ -> ()) cfg =
  Option.iter validate_engine_names cfg.engines;
  Mutate.validate ();
  let with_serve = wanted cfg "serve" || wanted cfg "count-serve" in
  let serve = if with_serve then Some (Serve.start ()) else None in
  let with_cluster = wanted cfg "cluster" || wanted cfg "count-cluster" in
  let cluster = if with_cluster then Some (Serve.start_cluster ()) else None in
  Fun.protect ~finally:(fun () ->
      Option.iter Serve.stop serve;
      Option.iter Serve.stop_cluster cluster)
  @@ fun () ->
  let engines =
    List.filter (fun (e : Engines.t) -> wanted cfg e.name)
      (Engines.all ?serve ?cluster ())
  in
  let divergences = ref [] in
  let comparisons = ref 0 in
  let shrink_total = ref 0 in
  for index = 0 to cfg.cases - 1 do
    progress index;
    Metrics.incr m_cases;
    let inst =
      Gen.instance ~seed:cfg.seed ~index ~max_vars:cfg.max_vars
        ~max_tuples:cfg.max_tuples
    in
    let refs = Array.make 3 None in
    let reference_for mode =
      let slot = ref_slot mode in
      match refs.(slot) with
      | Some r -> r
      | None ->
          let r = Engines.reference mode inst in
          refs.(slot) <- Some r;
          r
    in
    List.iter
      (fun (engine : Engines.t) ->
        let got = engine.run inst in
        if got <> Engines.Not_applicable then begin
          incr comparisons;
          Metrics.incr m_comparisons;
          let reference = reference_for engine.mode in
          if not (Engines.agrees ~mode:engine.mode ~reference got) then begin
            Metrics.incr m_divergences;
            let diverges cand =
              let _, _, ok = check_one engine cand in
              not ok
            in
            let shrunk, steps = Shrink.minimize ~diverges inst in
            shrink_total := !shrink_total + steps;
            let expected, got =
              let reference, got, _ = check_one engine shrunk in
              (reference, got)
            in
            let case_path =
              Option.map
                (fun dir ->
                  Case_file.write ~dir ~engine:engine.name
                    ~expected:(Engines.outcome_to_string expected)
                    ~got:(Engines.outcome_to_string got) shrunk)
                cfg.out_dir
            in
            divergences :=
              {
                engine = engine.name;
                index;
                label = inst.Gen.label;
                expected;
                got;
                shrunk;
                shrink_steps = steps;
                case_path;
              }
              :: !divergences
          end
        end)
      engines
  done;
  {
    cases_run = cfg.cases;
    comparisons = !comparisons;
    divergences = List.rev !divergences;
    shrink_steps = !shrink_total;
  }

(* Replay a [.case] file: rebuild the instance, rerun its engine (and,
   for "serve", a fresh in-process server) against the reference. *)
let replay path =
  Mutate.validate ();
  let case = Case_file.read path in
  let inst = Case_file.to_instance case in
  let with_serve =
    List.mem case.Case_file.engine [ "serve"; "count-serve" ]
  in
  let serve = if with_serve then Some (Serve.start ()) else None in
  let with_cluster =
    List.mem case.Case_file.engine [ "cluster"; "count-cluster" ]
  in
  let cluster = if with_cluster then Some (Serve.start_cluster ()) else None in
  Fun.protect ~finally:(fun () ->
      Option.iter Serve.stop serve;
      Option.iter Serve.stop_cluster cluster)
  @@ fun () ->
  match
    List.find_opt
      (fun (e : Engines.t) -> e.name = case.Case_file.engine)
      (Engines.all ?serve ?cluster ())
  with
  | None ->
      invalid_arg
        (Printf.sprintf "case file names unknown engine %S"
           case.Case_file.engine)
  | Some engine ->
      let reference, got, ok = check_one engine inst in
      (inst, engine.name, reference, got, ok)
