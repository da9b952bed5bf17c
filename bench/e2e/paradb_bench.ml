(* paradb-bench: end-to-end and per-layer benchmark of the served system.

   {v
   paradb_bench.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                    [--spans FILE] [--json FILE] [--repeat N] [--smoke]
                    [--paradb PATH] [--scratch DIR]
   v}

   Prints one [workload metric value unit] line per metric and, last, one
   JSON object [{"correct", "attempted", "failed", "metrics"}]: the
   end-to-end metrics with [--trace 0], the per-layer metrics of the
   traced run with [--trace 1].  Exits 1 when any answer was wrong, 2
   when the run could not be made.  See README.md in this directory. *)

type opts = {
  mutable workloads : Pools.workload list;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable spans : string option;
  mutable json : string option;
  mutable repeat : int;
  mutable smoke : bool;
  mutable paradb : string option;
  mutable scratch : string;
}

let usage () =
  prerr_endline
    "usage: paradb_bench.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1]\n\
    \                        [--spans FILE] [--json FILE] [--repeat N] [--smoke]\n\
    \                        [--paradb PATH] [--scratch DIR]\n\
     workloads: warm-serve cold-adhoc durable-write-read cluster-exchange";
  exit 2

let parse_args () =
  let o =
    {
      workloads = [];
      seed = 1;
      seconds = 10.0;
      trace = false;
      spans = None;
      json = None;
      repeat = 1;
      smoke = false;
      paradb = None;
      scratch = Filename.concat ".bench_build" "paradb-e2e";
    }
  in
  let int s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        (match Pools.of_name w with
        | Some w -> o.workloads <- o.workloads @ [ w ]
        | None -> usage ());
        go rest
    | "--seed" :: n :: rest ->
        o.seed <- int n;
        go rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some s when s > 0.0 -> o.seconds <- s
        | _ -> usage ());
        go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        o.trace <- t = "1";
        go rest
    | "--spans" :: f :: rest ->
        o.spans <- Some f;
        go rest
    | "--json" :: f :: rest ->
        o.json <- Some f;
        go rest
    | "--repeat" :: n :: rest ->
        o.repeat <- max 1 (int n);
        go rest
    | "--smoke" :: rest ->
        o.smoke <- true;
        go rest
    | "--paradb" :: p :: rest ->
        o.paradb <- Some p;
        go rest
    | "--scratch" :: d :: rest ->
        o.scratch <- d;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if o.workloads = [] then o.workloads <- Pools.all;
  if o.smoke then o.seconds <- 1.0;
  o

(* The server binary: given, or the one dune builds next to this
   executable. *)
let paradb_path o =
  let p =
    match o.paradb with
    | Some p -> p
    | None ->
        Filename.concat
          (Filename.dirname Sys.executable_name)
          (Filename.concat ".." (Filename.concat ".." (Filename.concat "bin" "paradb.exe")))
  in
  if not (Sys.file_exists p) then
    failwith (p ^ " not found: build bin/paradb.exe first (or pass --paradb)");
  p

type outcome = {
  workload : Pools.workload;
  served : Served.result;
  reported : (string * float * string) list;  (** what the JSON line carries *)
  printed : (string * float * string) list;  (** printed only *)
  table : (string * int * float * float * float) list;  (** traced layer table *)
}

let run_once o w ~seed ~paradb =
  let dir =
    Filename.concat o.scratch
      (Printf.sprintf "run-%d-%s-%d" (Unix.getpid ()) (Pools.name w) seed)
  in
  Procs.rm_rf dir;
  Procs.mkdir_p dir;
  Fun.protect ~finally:(fun () -> Procs.rm_rf dir) @@ fun () ->
  let cfg = { Served.paradb; dir; seed; seconds = o.seconds; smoke = o.smoke } in
  let p = Served.prepare cfg w in
  let served, replay =
    Served.run cfg w p ~during:(fun topo ->
        if o.trace || o.smoke then Some (Layers.replay cfg w p topo) else None)
  in
  match replay with
  | None ->
      { workload = w; served; reported = served.Served.metrics; printed = served.Served.extra; table = [] }
  | Some rp ->
      let universal, specific, table = Layers.metrics w served rp in
      let file =
        match o.spans with
        | Some f -> f
        | None -> Filename.concat o.scratch (Printf.sprintf "spans-%s.jsonl" (Pools.name w))
      in
      Layers.write_spans file w rp;
      if not o.smoke then
        Printf.printf "# %s: %d spans written to %s\n" (Pools.name w) (List.length rp.Layers.spans) file;
      let reported, printed =
        if o.trace then (universal, specific @ served.Served.metrics @ served.Served.extra)
        else (served.Served.metrics, served.Served.extra @ universal @ specific)
      in
      { workload = w; served; reported; printed; table }

(* The smoke run says only what it checked, and what failed. *)
let print_smoke r =
  let w = Pools.name r.workload in
  Printf.printf "smoke %s: %d requests answered and checked, %d failed\n" w
    r.served.Served.attempted r.served.Served.failed;
  List.iter (fun e -> Printf.printf "# %s FAILED: %s\n" w e) r.served.Served.errors;
  flush stdout

let print_outcome r =
  let w = Pools.name r.workload in
  if r.table <> [] then begin
    Printf.printf "# %s traced layers: %-26s %6s %10s %10s %7s\n" w "layer" "count" "self_p50" "self_p95" "share";
    List.iter
      (fun (name, n, p50, p95, share) ->
        if n > 0 then
          Printf.printf "# %s traced layers: %-26s %6d %8.3fms %8.3fms %6.1f%%\n" w name n p50 p95 share)
      r.table
  end;
  List.iter (fun l -> Printf.printf "# %s %s\n" w l) r.served.Served.per_query;
  List.iter (fun (m, v, u) -> Printf.printf "%s %s %.6g %s\n" w m v u) (r.reported @ r.printed);
  List.iteri
    (fun i e -> if i < 10 then Printf.printf "# %s FAILED: %s\n" w e)
    r.served.Served.errors;
  flush stdout

(* The median of each metric over repeated runs, with its quartiles and
   relative spread, as the bounds in BENCHMARK.json are checked. *)
let summarize w runs =
  let names = List.map (fun (n, _, u) -> (n, u)) (List.hd runs).reported in
  List.map
    (fun (name, unit) ->
      let values =
        List.map (fun r -> List.find_map (fun (n, v, _) -> if n = name then Some v else None) r.reported |> Option.get) runs
      in
      let q1, med, q3 =
        match values with [ v ] -> (v, v, v) | _ -> Stats.quartiles values
      in
      Printf.printf "%s %s median=%.6g q1=%.6g q3=%.6g spread=%.2f%% %s\n" (Pools.name w) name med q1 q3
        (if med = 0.0 then 0.0 else 100.0 *. (q3 -. q1) /. Float.abs med)
        unit;
      (name, med, unit))
    names

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_metrics entries =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         entries)
  ^ "}"

let () =
  let o = parse_args () in
  at_exit Procs.kill_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  match
    let paradb = paradb_path o in
    Procs.mkdir_p o.scratch;
    List.map
      (fun w ->
        let runs =
          List.init o.repeat (fun _ ->
              let r = run_once o w ~seed:o.seed ~paradb in
              if o.smoke then print_smoke r else print_outcome r;
              r)
        in
        let reported =
          if o.repeat = 1 then (List.hd runs).reported else summarize w runs
        in
        (w, runs, reported))
      o.workloads
  with
  | exception (Failure msg | Sys_error msg) ->
      Printf.eprintf "paradb-bench: %s\n" msg;
      exit 2
  | exception Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "paradb-bench: %s(%s): %s\n" fn arg (Unix.error_message e);
      exit 2
  | results ->
      let all_runs = List.concat_map (fun (_, runs, _) -> runs) results in
      let attempted = List.fold_left (fun acc r -> acc + r.served.Served.attempted) 0 all_runs in
      let failed = List.fold_left (fun acc r -> acc + r.served.Served.failed) 0 all_runs in
      let errors = List.exists (fun r -> r.served.Served.errors <> []) all_runs in
      let metrics =
        match results with
        | [ (_, _, reported) ] -> reported
        | _ ->
            List.concat_map
              (fun (w, _, reported) ->
                List.map (fun (n, v, u) -> (Pools.name w ^ "." ^ n, v, u)) reported)
              results
      in
      let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
      let correct = (not errors) && failed = 0 && finite in
      (match o.json with
      | None -> ()
      | Some file ->
          Out_channel.with_open_text file (fun oc ->
              output_string oc "[\n";
              output_string oc
                (String.concat ",\n"
                   (List.map
                      (fun r ->
                        Printf.sprintf "{\"workload\": %S, \"seed\": %d, \"trace\": %b, \"metrics\": %s}"
                          (Pools.name r.workload) o.seed o.trace
                          (json_metrics (r.reported @ r.printed)))
                      all_runs));
              output_string oc "\n]\n"));
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
        correct attempted failed
        (json_metrics (List.filter (fun (_, v, _) -> Float.is_finite v) metrics));
      if not correct then exit 1
