type request =
  | Load of { db : string; path : string }
  | Fact of { db : string; fact : string }
  | Bulk of { db : string; count : int }
  | Eval of { db : string; engine : string; query : string }
  | Count of { db : string; engine : string; query : string }
  | Gather of { db : string; query : string }
  | Ship of { db : string; query : string; if_snap : string option }
  | Check of string
  | Explain of string
  | Digest of string
  | Repair of string
  | Stats
  | Metrics
  | Quit

type response =
  | Ok_ of { summary : string; payload : string list }
  | Err of string

let verb_name = function
  | Load _ -> "load"
  | Fact _ -> "fact"
  | Bulk _ -> "bulk"
  | Eval _ -> "eval"
  | Count _ -> "count"
  | Gather _ -> "gather"
  | Ship _ -> "ship"
  | Check _ -> "check"
  | Explain _ -> "explain"
  | Digest _ -> "digest"
  | Repair _ -> "repair"
  | Stats -> "stats"
  | Metrics -> "metrics"
  | Quit -> "quit"

let is_blank c = c = ' ' || c = '\t' || c = '\r'

let trim = String.trim

(* [split_word s] — (first token, rest with leading blanks dropped). *)
let split_word s =
  let s = trim s in
  let n = String.length s in
  let rec find_blank i = if i < n && not (is_blank s.[i]) then find_blank (i + 1) else i in
  let cut = find_blank 0 in
  let rec skip i = if i < n && is_blank s.[i] then skip (i + 1) else i in
  (String.sub s 0 cut, String.sub s (skip cut) (n - skip cut))

(* A defensive ceiling on OK-n frames and BULK-n headers: a hostile or
   corrupted peer must not be able to park the reader in a
   [List.init n] loop (or the server in a fact-collection loop) with an
   absurd count.  Far above any legitimate result (the server truncates
   at --max-rows), far below overflow territory. *)
let max_payload_lines = 10_000_000

let parse_request line =
  let keyword, rest = split_word line in
  let need what tok = Error (Printf.sprintf "%s: missing %s" tok what) in
  match String.uppercase_ascii keyword with
  | "" -> Error "empty request"
  | "LOAD" -> (
      match split_word rest with
      | "", _ -> need "database name" "LOAD"
      | db, path when trim path <> "" -> Ok (Load { db; path = trim path })
      | _ -> need "file path" "LOAD")
  | "FACT" -> (
      match split_word rest with
      | "", _ -> need "database name" "FACT"
      | db, fact when trim fact <> "" -> Ok (Fact { db; fact = trim fact })
      | _ -> need "fact" "FACT")
  | "BULK" -> (
      match split_word rest with
      | "", _ -> need "database name" "BULK"
      | db, count -> (
          match int_of_string_opt (trim count) with
          | Some n when n >= 0 && n <= max_payload_lines ->
              Ok (Bulk { db; count = n })
          | Some _ -> Error "BULK: fact count out of range"
          | None -> need "fact count" "BULK"))
  | "EVAL" -> (
      match split_word rest with
      | "", _ -> need "database name" "EVAL"
      | db, rest -> (
          match split_word rest with
          | "", _ -> need "engine" "EVAL"
          | engine, query when trim query <> "" ->
              Ok (Eval { db; engine; query = trim query })
          | _ -> need "query" "EVAL"))
  | "COUNT" -> (
      match split_word rest with
      | "", _ -> need "database name" "COUNT"
      | db, rest -> (
          match split_word rest with
          | "", _ -> need "engine" "COUNT"
          | engine, query when trim query <> "" ->
              Ok (Count { db; engine; query = trim query })
          | _ -> need "query" "COUNT"))
  | "GATHER" -> (
      match split_word rest with
      | "", _ -> need "database name" "GATHER"
      | db, query when trim query <> "" -> Ok (Gather { db; query = trim query })
      | _ -> need "query" "GATHER")
  | "SHIP" -> (
      match split_word rest with
      | "", _ -> need "database name" "SHIP"
      | db, rest -> (
          let if_snap, query =
            match split_word rest with
            | word, query when String.starts_with ~prefix:"if=" word ->
                (Some (String.sub word 3 (String.length word - 3)), query)
            | _ -> (None, rest)
          in
          match (if_snap, query) with
          | Some "", _ -> need "snapshot token" "SHIP"
          | _, query when trim query <> "" ->
              Ok (Ship { db; query = trim query; if_snap })
          | _ -> need "query" "SHIP"))
  | "CHECK" ->
      if trim rest = "" then need "query" "CHECK" else Ok (Check (trim rest))
  | "EXPLAIN" ->
      if trim rest = "" then need "query" "EXPLAIN" else Ok (Explain (trim rest))
  | "DIGEST" ->
      if trim rest = "" then need "database name" "DIGEST"
      else Ok (Digest (trim rest))
  | "REPAIR" ->
      if trim rest = "" then need "database name" "REPAIR"
      else Ok (Repair (trim rest))
  | "STATS" -> Ok Stats
  | "METRICS" -> Ok Metrics
  | "QUIT" -> Ok Quit
  | other -> Error (Printf.sprintf "unknown request %s" other)

let request_to_line = function
  | Load { db; path } -> Printf.sprintf "LOAD %s %s" db path
  | Fact { db; fact } -> Printf.sprintf "FACT %s %s" db fact
  | Bulk { db; count } -> Printf.sprintf "BULK %s %d" db count
  | Eval { db; engine; query } -> Printf.sprintf "EVAL %s %s %s" db engine query
  | Count { db; engine; query } ->
      Printf.sprintf "COUNT %s %s %s" db engine query
  | Gather { db; query } -> Printf.sprintf "GATHER %s %s" db query
  | Ship { db; query; if_snap = None } -> Printf.sprintf "SHIP %s %s" db query
  | Ship { db; query; if_snap = Some snap } ->
      Printf.sprintf "SHIP %s if=%s %s" db snap query
  | Check query -> "CHECK " ^ query
  | Explain query -> "EXPLAIN " ^ query
  | Digest db -> "DIGEST " ^ db
  | Repair db -> "REPAIR " ^ db
  | Stats -> "STATS"
  | Metrics -> "METRICS"
  | Quit -> "QUIT"

let response_to_lines = function
  | Ok_ { summary; payload } ->
      Printf.sprintf "OK %d %s" (List.length payload) summary :: payload
  | Err msg -> [ "ERR " ^ msg ]

let wire_bytes lines =
  List.fold_left (fun n l -> n + String.length l + 1) 0 lines

let write_lines oc lines =
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    lines;
  flush oc

let write_response oc r = write_lines oc (response_to_lines r)

let read_response ic =
  match In_channel.input_line ic with
  | None -> None
  | Some line -> (
      let keyword, rest = split_word line in
      match String.uppercase_ascii keyword with
      | "ERR" -> Some (Err rest)
      | "OK" -> (
          let count, summary = split_word rest in
          match int_of_string_opt count with
          | None -> failwith ("malformed response line: " ^ line)
          | Some n when n < 0 ->
              failwith ("negative payload count in response: " ^ line)
          | Some n when n > max_payload_lines ->
              failwith
                (Printf.sprintf
                   "oversized payload count in response (%d > %d): %s" n
                   max_payload_lines line)
          | Some n ->
              let payload =
                List.init n (fun _ ->
                    match In_channel.input_line ic with
                    | Some l -> l
                    | None -> failwith "truncated response payload")
              in
              Some (Ok_ { summary; payload }))
      | _ -> failwith ("malformed response line: " ^ line))
