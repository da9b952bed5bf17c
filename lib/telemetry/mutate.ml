let known =
  [
    ("semijoin_off_by_one",
     "skip the first semijoin of the Yannakakis bottom-up pass");
    ("drop_neq",
     "drop the first fused <> check (the F selection of Algorithm 1)");
    ("color_count",
     "under-count the hash range k (separation parameter) by one");
    ("probe_key_swap",
     "compiled probe binds its first output column from the probe key column");
    ("sum_instead_of_max",
     "tropical ⊕ sums alternative costs instead of keeping the best one");
    ("count_dedup_drop",
     "annotated projection keeps the first annotation, collapsing multiplicities");
    ("materialize_drop_eq",
     "compiled index-probe materialization skips the repeated-variable equalities");
    ("ship_drop_row",
     "the coordinator drops the last row of each non-empty shipped segment");
    ("exists_cut_early",
     "compiled first-witness cut sits one step before the last head variable is bound");
    ("barrier_key_prefix",
     "compiled barrier and memo keys hash and compare only their first register");
    ("ship_stale_snapshot",
     "a shard answers SHIP if=<snap> with unchanged whatever its current snapshot");
    ("semijoin_probe_first_only",
     "the probe side of a semijoin keeps only the first matched row of each key");
    ("order_raw_codes",
     "compiled < and <= compare raw dictionary codes instead of value-order ranks");
    ("unchecked_add",
     "the compiled count sink's sums wrap on overflow instead of raising");
    ("neq_quotient_sign",
     "the != inclusion-exclusion flips the sign of its last quotient's coefficient");
    ("forest_count_headfree_bool",
     "COUNT of a join forest takes a nonempty head-free component as 1");
  ]

let known_names = List.map fst known

let enabled name = Env.mutation () = Some name

let active = Env.mutation

let validate () =
  match Env.mutation () with
  | None -> ()
  | Some name when List.mem_assoc name known -> ()
  | Some name ->
      invalid_arg
        (Printf.sprintf "PARADB_MUTATE: unknown mutant %S (known: %s)" name
           (String.concat ", " known_names))
