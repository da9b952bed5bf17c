let positive_int ~name ~default =
  match Sys.getenv_opt name with
  | None -> default ()
  | Some raw -> (
      match int_of_string_opt (String.trim raw) with
      | Some n when n >= 1 -> n
      | _ ->
          invalid_arg
            (Printf.sprintf "%s: expected a positive integer, got %S" name raw))

let faults () =
  match Sys.getenv_opt "PARADB_FAULTS" with
  | None -> None
  | Some raw ->
      let raw = String.trim raw in
      if raw = "" then
        invalid_arg
          "PARADB_FAULTS: expected a comma-separated key:value fault spec, \
           got a blank value";
      let parse_pair kv =
        match String.split_on_char ':' (String.trim kv) with
        | [ key; value ] -> (
            let key = String.trim key and value = String.trim value in
            if key = "" then
              invalid_arg "PARADB_FAULTS: empty fault name in spec";
            match float_of_string_opt value with
            | Some f when f >= 0.0 -> (key, f)
            | _ ->
                invalid_arg
                  (Printf.sprintf
                     "PARADB_FAULTS: %s: expected a non-negative number, got \
                      %S"
                     key value))
        | _ ->
            invalid_arg
              (Printf.sprintf
                 "PARADB_FAULTS: expected key:value, got %S (example: \
                  \"short_read:0.1,disconnect:0.05,seed:42\")"
                 kv)
      in
      Some (List.map parse_pair (String.split_on_char ',' raw))

let mutation () =
  (* Re-read on every call (no caching): the mutation-smoke tests toggle
     the variable with [Unix.putenv] inside one process, and the hook
     sites run once per pass/per trial, not per tuple. *)
  match Sys.getenv_opt "PARADB_MUTATE" with
  | None -> None
  | Some raw ->
      let name = String.trim raw in
      if name = "" then None else Some name

let trace_file () =
  match Sys.getenv_opt "PARADB_TRACE" with
  | None -> None
  | Some raw ->
      let file = String.trim raw in
      if file = "" then
        invalid_arg "PARADB_TRACE: expected a trace file path, got a blank value"
      else Some file
