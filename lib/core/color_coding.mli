(** Simple paths of a specified length by color coding — the special case
    (Monien; Alon–Yuster–Zwick) that Theorem 2 generalizes.

    A simple path on [k] vertices is exactly the acyclic query
    [e(x1,x2), ..., e(x_{k-1},x_k)] with [x_i ≠ x_j] for all [i < j]:
    adjacent pairs fall into [I2], non-adjacent pairs into [I1], and the
    engine's hashing is literally the color-coding of the graph. *)

(** [graph_database g] — relations [v(x)] (vertices) and [e(x,y)]
    (edges, both directions). *)
val graph_database : Paradb_graph.Graph.t -> Paradb_relational.Database.t

(** The path query on [k] vertices with all-pairs inequalities; head
    [ans(x1, ..., xk)]. *)
val path_query : k:int -> Paradb_query.Cq.t

(** [budget], here and on every search below, is polled per coloring
    trial and per DP step ({!Paradb_telemetry.Budget.Exhausted}
    propagates). *)
val has_simple_path :
  ?budget:Paradb_telemetry.Budget.t ->
  ?family:Hashing.family -> Paradb_graph.Graph.t -> int -> bool

(** A witness path (any), found by full evaluation. *)
val find_simple_path :
  ?budget:Paradb_telemetry.Budget.t ->
  ?family:Hashing.family -> Paradb_graph.Graph.t -> int -> int list option

(** {1 The direct Alon–Yuster–Zwick dynamic program}

    The specialized algorithm the paper cites ([3]): color the vertices
    with [k] colors and look for a {e colorful} path by dynamic
    programming over color subsets — [O(2^k · m)] per coloring instead
    of the engine's relational passes.  An independent implementation,
    used to cross-check the engine and to measure the cost of
    generality. *)

(** [colorful_path g colors k] — a path on [k] vertices using [k]
    pairwise-distinct colors, under the given vertex coloring
    ([colors.(v) ∈ [0..k-1]]), or [None]. *)
val colorful_path :
  ?budget:Paradb_telemetry.Budget.t ->
  Paradb_graph.Graph.t -> int array -> int -> int list option

(** [find_simple_path_dp ?trials ?seed g k] — random colorings (default
    [3·e^k] trials) + the colorful-path DP; one-sided error like the
    paper's randomized driver. *)
val find_simple_path_dp :
  ?budget:Paradb_telemetry.Budget.t ->
  ?trials:int -> ?seed:int -> Paradb_graph.Graph.t -> int -> int list option

val has_simple_path_dp :
  ?budget:Paradb_telemetry.Budget.t ->
  ?trials:int -> ?seed:int -> Paradb_graph.Graph.t -> int -> bool
