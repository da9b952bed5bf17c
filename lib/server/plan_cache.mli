(** A mutex-protected LRU cache of query {!Plan.t}s, shared by every
    server session.

    Keys are {!Plan.scoped_key} strings (database name, catalog snapshot
    generation, requested engine, alpha-normalized query text), so
    queries differing only in variable names — or whitespace — hit the
    same entry, while any snapshot swap strands the old entries (in
    particular, a compiled pipeline can never run against data it was
    not compiled for).  Capacity is a hard
    bound: inserting into a full cache evicts the least recently used
    plan.  Hit/miss/eviction counters feed the [STATS] report. *)

type t

(** [evictions] counts LRU capacity evictions only; [superseded] counts
    entries dropped (or never inserted) because a newer generation of
    their database is cached. *)
type counters = {
  hits : int;
  misses : int;
  evictions : int;
  superseded : int;
  size : int;
}

(** [create ~capacity ()] — [capacity] must be positive. *)
val create : capacity:int -> unit -> t

val capacity : t -> int

(** [find_or_build cache ~key build] returns the cached plan for [key],
    bumping its recency, or runs [build ()], inserts the result and
    returns it.  [build] runs outside the lock: two sessions racing on a
    cold key may both build; the last insert wins (plans for one key are
    interchangeable).  A raising [build] propagates without inserting
    anything — the miss is still counted, the
    [server.plan_cache.build_failures] counter is bumped, and the next
    request for [key] retries the build.

    [scope] is the entry's (database, catalog generation).  Inserting an
    entry of generation [g] unlinks every entry of the same database with
    a lower generation, since those can never hit again; an entry older
    than one already cached is returned but not inserted.  Both count as
    [superseded] (counter [server.plan_cache.superseded]), not as
    evictions. *)
val find_or_build :
  ?scope:string * int -> t -> key:string -> (unit -> Plan.t) ->
  Plan.t * [ `Hit | `Miss ]

(** Peek without counting or bumping recency (tests). *)
val mem : t -> string -> bool

val counters : t -> counters

(** Keys from most to least recently used (tests). *)
val keys : t -> string list
