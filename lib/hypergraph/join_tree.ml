module String_set = Hypergraph.String_set

type t = {
  node_vars : String_set.t array;
  parent : int array;
  children : int list array;
  root : int;
  bottom_up : int array;
  top_down : int array;
  subtree_vars : String_set.t array;
}

let n_nodes t = Array.length t.node_vars

(* The rest of a tree once its links are fixed: the post-order DFS from
   the root (each node's children in list order, then the node) and the
   subtree variables. *)
let make node_vars ~parent ~children root =
  let order = ref [] in
  let rec dfs i =
    List.iter dfs children.(i);
    order := i :: !order
  in
  dfs root;
  let top_down = Array.of_list !order in
  let bottom_up = Array.of_list (List.rev !order) in
  let subtree_vars = Array.make (Array.length node_vars) String_set.empty in
  Array.iter
    (fun i ->
      subtree_vars.(i) <-
        List.fold_left
          (fun acc c -> String_set.union acc subtree_vars.(c))
          node_vars.(i) children.(i))
    bottom_up;
  { node_vars; parent; children; root; bottom_up; top_down; subtree_vars }

let of_hypergraph h =
  let n = Hypergraph.n_edges h in
  if n = 0 then None
  else
    let parent, alive = Hypergraph.gyo h in
    let survivors =
      List.filter (fun i -> alive.(i)) (List.init n Fun.id)
    in
    match survivors with
    | [ root ] ->
        let children = Array.make n [] in
        Array.iteri
          (fun i p -> if p >= 0 then children.(p) <- i :: children.(p))
          parent;
        Some (make (Array.copy h.Hypergraph.edges) ~parent ~children root)
    | _ -> None

(* A node's neighbours are its old children, then its old parent; the
   walk from [r] makes every neighbour but the one it came from a
   child. *)
let reroot t r =
  if r = t.root then t
  else begin
    let n = n_nodes t in
    let parent = Array.make n (-1) and children = Array.make n [] in
    let rec visit from i =
      let p = t.parent.(i) in
      let nbrs = if p >= 0 then t.children.(i) @ [ p ] else t.children.(i) in
      children.(i) <- List.filter (fun j -> j <> from) nbrs;
      List.iter
        (fun j ->
          parent.(j) <- i;
          visit i j)
        children.(i)
    in
    visit (-1) r;
    make t.node_vars ~parent ~children r
  end

let of_cq q = of_hypergraph (Hypergraph.of_cq q)

let is_valid t =
  let n = n_nodes t in
  (* Structure: exactly one root, parent links acyclic and covering. *)
  let visited = Array.make n false in
  Array.iter (fun i -> visited.(i) <- true) t.bottom_up;
  Array.for_all Fun.id visited
  && t.parent.(t.root) = -1
  &&
  (* Running intersection: for each variable, the nodes containing it form
     a connected subtree — exactly one of them has a parent outside the
     set. *)
  let vars =
    Array.fold_left String_set.union String_set.empty t.node_vars
  in
  String_set.for_all
    (fun v ->
      let holds i = String_set.mem v t.node_vars.(i) in
      let tops = ref 0 in
      for i = 0 to n - 1 do
        if holds i && (t.parent.(i) < 0 || not (holds t.parent.(i))) then
          incr tops
      done;
      !tops = 1)
    vars

let to_dot t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph join_tree {\n  rankdir=BT;\n";
  Array.iteri
    (fun i vars ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"{%s}\"];\n" i
           (String.concat "," (String_set.elements vars))))
    t.node_vars;
  Array.iteri
    (fun i parent ->
      if parent >= 0 then
        Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" i parent))
    t.parent;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp ppf t =
  Format.fprintf ppf "@[<v>join tree (root %d)" t.root;
  Array.iteri
    (fun i vars ->
      Format.fprintf ppf "@,  node %d: {%s} parent %d" i
        (String.concat "," (String_set.elements vars))
        t.parent.(i))
    t.node_vars;
  Format.fprintf ppf "@]"
