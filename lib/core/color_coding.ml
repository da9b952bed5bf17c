module Database = Paradb_relational.Database
module Relation = Paradb_relational.Relation
module Tuple = Paradb_relational.Tuple
module Value = Paradb_relational.Value
module Graph = Paradb_graph.Graph
module Metrics = Paradb_telemetry.Metrics
module Trace = Paradb_telemetry.Trace
module Budget = Paradb_telemetry.Budget
open Paradb_query

let m_dp_trials = Metrics.counter "color_coding.dp_trials"
let m_dp_hits = Metrics.counter "color_coding.dp_hits"

let graph_database g =
  let vertices =
    List.map (fun v -> [| Value.Int v |]) (Graph.vertices g)
  in
  let edges =
    List.concat_map
      (fun (u, v) ->
        let a = Value.Int u and b = Value.Int v in
        if u = v then [ [| a; b |] ] else [ [| a; b |]; [| b; a |] ])
      (Graph.edges g)
  in
  Database.of_relations
    [
      Relation.create ~name:"v" ~schema:[ "x" ] vertices;
      Relation.create ~name:"e" ~schema:[ "x"; "y" ] edges;
    ]

let path_query ~k =
  if k < 1 then invalid_arg "Color_coding.path_query: k must be positive";
  let var i = Term.var (Printf.sprintf "x%d" i) in
  let head = List.init k var in
  if k = 1 then Cq.make ~head [ Atom.make "v" [ var 0 ] ]
  else begin
    let body =
      List.init (k - 1) (fun i -> Atom.make "e" [ var i; var (i + 1) ])
    in
    let constraints =
      List.concat
        (List.init k (fun i ->
             List.filteri (fun j _ -> j > i) (List.init k Fun.id)
             |> List.map (fun j -> Constr.neq (var i) (var j))))
    in
    Cq.make ~constraints ~head body
  end

let has_simple_path ?budget ?family g k =
  if k = 0 then true
  else if k > Graph.n_vertices g then false
  else
    Engine.is_satisfiable ?budget ?family (graph_database g) (path_query ~k)

(* Colorful-path DP: state (v, mask) = "a path ends at v whose vertices
   use exactly the colors in mask".  Parents are remembered for witness
   recovery.  O(2^k * (n + m)) states/transitions. *)
let colorful_path ?budget g colors k =
  if k < 1 then invalid_arg "Color_coding.colorful_path: k must be positive";
  let n = Graph.n_vertices g in
  Array.iter
    (fun c ->
      if c < 0 || c >= k then
        invalid_arg "Color_coding.colorful_path: color out of range")
    colors;
  if Array.length colors <> n then
    invalid_arg "Color_coding.colorful_path: one color per vertex";
  let parent : (int * int, (int * int) option) Hashtbl.t =
    Hashtbl.create 1024
  in
  let frontier = ref [] in
  for v = 0 to n - 1 do
    let mask = 1 lsl colors.(v) in
    if not (Hashtbl.mem parent (v, mask)) then begin
      Hashtbl.add parent (v, mask) None;
      frontier := (v, mask) :: !frontier
    end
  done;
  let full = (1 lsl k) - 1 in
  let answer = ref None in
  let steps = ref 1 in
  while !answer = None && !steps < k && !frontier <> [] do
    Budget.poll budget;
    incr steps;
    let next = ref [] in
    List.iter
      (fun (v, mask) ->
        List.iter
          (fun w ->
            let bit = 1 lsl colors.(w) in
            if mask land bit = 0 then begin
              let state = (w, mask lor bit) in
              if not (Hashtbl.mem parent state) then begin
                Hashtbl.add parent state (Some (v, mask));
                next := state :: !next
              end
            end)
          (Graph.neighbors g v))
      !frontier;
    frontier := !next;
    if !steps = k then
      answer :=
        List.find_opt (fun (_, mask) -> mask = full) !next
  done;
  let final =
    if k = 1 then
      (* single-vertex paths: any vertex works *)
      if n > 0 then Some (0, 1 lsl colors.(0)) else None
    else !answer
  in
  match final with
  | None -> None
  | Some state ->
      let rec walk state acc =
        match Hashtbl.find parent state with
        | None -> fst state :: acc
        | Some prev -> walk prev (fst state :: acc)
      in
      Some (walk state [])

let find_simple_path_dp ?budget ?trials ?(seed = 0) g k =
  if k = 0 then Some []
  else if k > Graph.n_vertices g then None
  else if k = 1 then
    if Graph.n_vertices g > 0 then Some [ 0 ] else None
  else begin
    let trials =
      match trials with
      | Some t -> t
      | None -> Hashing.default_trials ~c:3.0 ~k
    in
    let rng = Random.State.make [| seed; k; Graph.n_vertices g |] in
    let n = Graph.n_vertices g in
    let rec try_trial remaining =
      if remaining = 0 then None
      else begin
        Budget.poll budget;
        let colors = Array.init n (fun _ -> Random.State.int rng k) in
        Metrics.incr m_dp_trials;
        let hit =
          Trace.with_span "color_coding.dp_trial" @@ fun () ->
          colorful_path ?budget g colors k
        in
        match hit with
        | Some path ->
            Metrics.incr m_dp_hits;
            Some path
        | None -> try_trial (remaining - 1)
      end
    in
    try_trial trials
  end

let has_simple_path_dp ?budget ?trials ?seed g k =
  find_simple_path_dp ?budget ?trials ?seed g k <> None

let find_simple_path ?budget ?family g k =
  if k = 0 then Some []
  else if k > Graph.n_vertices g then None
  else begin
    (* One witness suffices, so stop at the first coloring whose Q_h is
       nonempty instead of unioning every trial's answer as [evaluate]
       would. *)
    let family =
      match family with Some f -> f | None -> Hashing.Multiplicative_sweep
    in
    let db = graph_database g in
    let q = path_query ~k in
    let domain = Value.Set.elements (Database.domain db) in
    Seq.find_map
      (fun h ->
        Budget.poll budget;
        let result = Engine.evaluate_with db q h in
        match Relation.tuples result with
        | [] -> None
        | row :: _ -> Some (List.map Value.to_int (Tuple.to_list row)))
      (Hashing.functions family ~domain ~k)
  end
