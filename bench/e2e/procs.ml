(* Subprocesses and scratch files.  Every server the bench starts is a
   real [paradb] process; all of them are registered here so that any
   exit path (normal, exception, SIGINT/SIGTERM) kills and reaps them,
   and all scratch files live under one directory inside the working
   tree. *)

let live : (int, unit) Hashtbl.t = Hashtbl.create 8

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec dir_bytes path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.fold_left
        (fun acc f -> acc + dir_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | Unix.S_REG -> (Unix.lstat path).Unix.st_size
  | _ -> 0
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

(* Wait for [pid] up to [timeout] seconds; [true] once reaped. *)
let reap ?(timeout = 10.0) pid =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec loop () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then false
        else begin
          Unix.sleepf 0.01;
          loop ()
        end
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  let done_ = loop () in
  if done_ then Hashtbl.remove live pid;
  done_

(* Only processes still registered are signalled: a reaped pid may
   already belong to someone else. *)
let signal pid s =
  if Hashtbl.mem live pid then try Unix.kill pid s with Unix.Unix_error _ -> ()

(* SIGKILL: a crash, as far as the server's durability is concerned. *)
let kill pid =
  if Hashtbl.mem live pid then begin
    signal pid Sys.sigkill;
    ignore (reap ~timeout:30.0 pid)
  end

(* SIGTERM: the server's graceful drain, escalated if it lingers. *)
let stop pid =
  if Hashtbl.mem live pid then begin
    signal pid Sys.sigterm;
    if not (reap ~timeout:10.0 pid) then kill pid
  end

let kill_all () =
  let pids = Hashtbl.fold (fun pid () acc -> pid :: acc) live [] in
  List.iter (fun pid -> signal pid Sys.sigkill) pids;
  List.iter (fun pid -> ignore (reap ~timeout:30.0 pid)) pids

(* The servers run with one trial domain each and none of the
   telemetry/fault/mutation switches a caller's shell might carry. *)
let child_env () =
  let drop =
    [ "PARADB_DOMAINS"; "PARADB_TRACE"; "PARADB_FAULTS"; "PARADB_MUTATE";
      "PARADB_DURABILITY" ]
  in
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv ->
         match String.index_opt kv '=' with
         | Some i -> not (List.mem (String.sub kv 0 i) drop)
         | None -> true)
  |> List.cons "PARADB_DOMAINS=1"
  |> Array.of_list

(* "paradb: listening on 127.0.0.1:PORT (...)" and "paradb: coordinating
   N shards on 127.0.0.1:PORT (...)" both name the bound port after the
   first "127.0.0.1:". *)
let port_of text =
  let marker = "127.0.0.1:" in
  let ml = String.length marker and tl = String.length text in
  let rec find i =
    if i + ml > tl then None
    else if String.sub text i ml = marker then begin
      let stop = ref (i + ml) in
      while !stop < tl && text.[!stop] >= '0' && text.[!stop] <= '9' do
        incr stop
      done;
      int_of_string_opt (String.sub text (i + ml) (!stop - i - ml))
    end
    else find (i + 1)
  in
  find 0

type proc = { pid : int; port : int; log : string }

(* Start [paradb args], logging to [log], and wait until it prints its
   listening port.  A process that exits first, or stays silent for
   60s, is an error naming its log. *)
let spawn ~paradb ~log args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process_env paradb
      (Array.of_list (paradb :: args))
      (child_env ()) Unix.stdin fd fd
  in
  Unix.close fd;
  Hashtbl.replace live pid ();
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec wait_port () =
    match port_of (In_channel.with_open_text log In_channel.input_all) with
    | Some port -> { pid; port; log }
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            Hashtbl.remove live pid;
            failwith
              (Printf.sprintf "paradb %s exited before listening: %s"
                 (String.concat " " args)
                 (In_channel.with_open_text log In_channel.input_all)));
        if Unix.gettimeofday () > deadline then
          failwith ("paradb did not come up, see " ^ log);
        (* fine-grained: a restart takes a few ms, and setup_s times it *)
        Unix.sleepf 0.0002;
        wait_port ()
  in
  wait_port ()

(* Peak resident set of a live process, from /proc. *)
let vm_hwm_mb pid =
  let file = Printf.sprintf "/proc/%d/status" pid in
  let lines = In_channel.with_open_text file In_channel.input_lines in
  match
    List.find_map
      (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> kb))
      lines
  with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith ("no VmHWM in " ^ file)
