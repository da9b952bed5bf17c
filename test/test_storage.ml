(* The storage engine: segment format round-trips, checksum robustness
   under byte flips and truncation, manifest validation, delta-segment
   union, streaming ingest equivalence, and catalog durability.

   The corruption tests work on real files written by the real writer:
   every single-byte flip and every truncation of a segment must raise
   [Corrupt] (or produce a clean [Error]) — never a crash and never a
   silently different relation. *)

module Value = Paradb_relational.Value
module Relation = Paradb_relational.Relation
module Database = Paradb_relational.Database
module Dictionary = Paradb_relational.Dictionary
module Source = Paradb_query.Source
module Segment = Paradb_storage.Segment
module Store = Paradb_storage.Store
module Catalog = Paradb_server.Catalog
open Test_support

(* ------------------------------------------------------------------ *)
(* Scratch directories *)

let counter = ref 0

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_dir f =
  incr counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "paradb-test-storage-%d-%d" (Unix.getpid ()) !counter)
  in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let check_rel want got =
  Alcotest.(check string) "name" (Relation.name want) (Relation.name got);
  Alcotest.(check (list string))
    "schema" (Relation.schema_list want) (Relation.schema_list got);
  Alcotest.(check (list string)) "rows" (sorted_rows want) (sorted_rows got)

let check_db want got =
  Alcotest.(check (list string)) "relation names" (Database.names want)
    (Database.names got);
  List.iter
    (fun r -> check_rel r (Database.find got (Relation.name r)))
    (Database.relations want)

(* ------------------------------------------------------------------ *)
(* Segment round-trips *)

let mixed_db () =
  Database.of_relations
    [
      Relation.create ~name:"e" ~schema:[ "a"; "b" ]
        (List.init 60 (fun i -> [| Value.Int i; Value.Int ((i * 7) mod 20) |]));
      Relation.create ~name:"tag" ~schema:[ "x"; "label" ]
        [
          [| Value.Int 1; Value.Str "plain" |];
          [| Value.Int 2; Value.Str "" |];
          [| Value.Int 3; Value.Str "with space" |];
          [| Value.Int 4; Value.Str "dot. inside" |];
          [| Value.Int 5; Value.Str "quote\"s and \\ slashes" |];
          [| Value.Int 6; Value.Str "newline\nand tab\t" |];
          [| Value.Int 7; Value.Int (-42) |];
          [| Value.Int 8; Value.Int max_int |];
          [| Value.Int 9; Value.Int min_int |];
        ];
      Relation.create ~name:"empty" ~schema:[ "only" ] [];
    ]

let test_segment_round_trip () =
  with_dir @@ fun dir ->
  let db = mixed_db () in
  let bytes = Store.compact ~dir db in
  Alcotest.(check bool) "wrote bytes" true (bytes > 0);
  check_db db (Store.open_dir dir)

let test_segment_openf_accessors () =
  with_dir @@ fun dir ->
  let r =
    Relation.create ~name:"r" ~schema:[ "u"; "v"; "w" ]
      [
        [| Value.Int 1; Value.Str "a"; Value.Int 2 |];
        [| Value.Int 1; Value.Str "b"; Value.Int 3 |];
      ]
  in
  let path = Filename.concat dir "one.seg" in
  ignore (Segment.write ~path r);
  let seg = Segment.openf path in
  Alcotest.(check string) "name" "r" (Segment.name seg);
  Alcotest.(check (list string)) "schema" [ "u"; "v"; "w" ] (Segment.schema seg);
  Alcotest.(check int) "arity" 3 (Segment.arity seg);
  Alcotest.(check int) "rows" 2 (Segment.rows seg);
  check_rel r (Segment.to_relation seg)

(* Duplicate rows across segments must collapse (set semantics). *)
let test_delta_union () =
  with_dir @@ fun dir ->
  let base =
    Relation.create ~name:"e" ~schema:[ "a"; "b" ]
      [ [| Value.Int 1; Value.Int 2 |]; [| Value.Int 2; Value.Int 3 |] ]
  in
  ignore (Store.compact ~dir (Database.of_relations [ base ]));
  let delta =
    Relation.create ~name:"e" ~schema:[ "a"; "b" ]
      [ [| Value.Int 2; Value.Int 3 |]; [| Value.Int 3; Value.Int 4 |] ]
  in
  Store.append ~dir delta;
  let got = Database.find (Store.open_dir dir) "e" in
  Alcotest.(check (list string))
    "union of base and delta"
    (sorted_rows (Relation.union base delta))
    (sorted_rows got);
  (* a new relation arrives via append as well *)
  let extra =
    Relation.create ~name:"f" ~schema:[ "x" ] [ [| Value.Str "hi" |] ]
  in
  Store.append ~dir extra;
  check_rel extra (Database.find (Store.open_dir dir) "f");
  (* compacting the opened store squashes back to one segment per relation *)
  let db = Store.open_dir dir in
  ignore (Store.compact ~dir db);
  Alcotest.(check int) "segments after compact" 2
    (List.length (Store.entries dir));
  check_db db (Store.open_dir dir)

(* ------------------------------------------------------------------ *)
(* Corruption: every byte flip must be a clean [Corrupt] *)

let read_bytes path = In_channel.with_open_bin path In_channel.input_all

let write_bytes path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let small_segment dir =
  let r =
    Relation.create ~name:"e" ~schema:[ "a"; "b" ]
      [
        [| Value.Int 1; Value.Str "x" |];
        [| Value.Int 2; Value.Str "y" |];
        [| Value.Int 3; Value.Str "x" |];
      ]
  in
  let path = Filename.concat dir "flip.seg" in
  ignore (Segment.write ~path r);
  path

let test_bit_flip_sweep () =
  with_dir @@ fun dir ->
  let path = small_segment dir in
  let original = read_bytes path in
  let n = String.length original in
  for i = 0 to n - 1 do
    let mutated = Bytes.of_string original in
    Bytes.set mutated i (Char.chr (Char.code original.[i] lxor 0xFF));
    write_bytes path (Bytes.to_string mutated);
    match Segment.openf path with
    | exception Segment.Corrupt msg ->
        if not (contains msg "flip.seg") then
          Alcotest.failf "byte %d: Corrupt does not name the file: %s" i msg
    | exception e ->
        Alcotest.failf "byte %d: expected Corrupt, got %s" i
          (Printexc.to_string e)
    | _ -> Alcotest.failf "byte %d: corruption opened cleanly" i
  done;
  write_bytes path original;
  ignore (Segment.openf path)

let test_truncation_and_garbage () =
  with_dir @@ fun dir ->
  let path = small_segment dir in
  let original = read_bytes path in
  let expect_corrupt label content =
    write_bytes path content;
    match Segment.openf path with
    | exception Segment.Corrupt _ -> ()
    | exception e ->
        Alcotest.failf "%s: expected Corrupt, got %s" label
          (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: opened cleanly" label
  in
  List.iter
    (fun len ->
      expect_corrupt
        (Printf.sprintf "truncated to %d" len)
        (String.sub original 0 len))
    [ 0; 1; 8; 47; 48; String.length original - 1 ];
  expect_corrupt "trailing garbage" (original ^ "\x00");
  expect_corrupt "doubled" (original ^ original)

let test_missing_file () =
  match Segment.openf "/nonexistent/paradb.seg" with
  | exception Sys_error _ -> ()
  | exception e -> Alcotest.failf "expected Sys_error, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "opened a nonexistent file"

(* ------------------------------------------------------------------ *)
(* In-memory codec: [encode]/[decode] and the hex wire form *)

(* Ints, arbitrary printable strings, and digit-only strings — a [Str "7"]
   must come back a string, never the [Int 7] its text form reads as. *)
let codec_value rng =
  match Random.State.int rng 3 with
  | 0 -> Value.Int (Random.State.int rng 10 - 3)
  | 1 ->
      Value.Str
        (String.init (Random.State.int rng 4) (fun _ ->
             Char.chr (32 + Random.State.int rng 95)))
  | _ -> Value.Str (string_of_int (Random.State.int rng 10))

let codec_relation rng =
  let arity = Random.State.int rng 5 in
  Relation.create ~name:"r"
    ~schema:(List.init arity (Printf.sprintf "a%d"))
    (List.init (Random.State.int rng 25) (fun _ ->
         Array.init arity (fun _ -> codec_value rng)))

let decoded bytes = Segment.to_relation (Segment.decode ~source:"test" bytes)

let codec_sample () =
  Relation.create ~name:"e" ~schema:[ "a"; "b" ]
    [
      [| Value.Int 1; Value.Str "x" |];
      [| Value.Int 2; Value.Str "42" |];
      [| Value.Int 42; Value.Str "x" |];
    ]

let test_encode_matches_file () =
  with_dir @@ fun dir ->
  List.iter
    (fun r ->
      let path = Filename.concat dir "r.seg" in
      ignore (Segment.write ~path r);
      Alcotest.(check string)
        ("encode = file bytes for " ^ Relation.name r)
        (read_bytes path) (Segment.encode r))
    (codec_sample () :: Database.relations (mixed_db ()))

let expect_corrupt label f =
  match f () with
  | exception Segment.Corrupt _ -> ()
  | exception e ->
      Alcotest.failf "%s: expected Corrupt, got %s" label (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: decoded cleanly" label

let test_decode_flips_and_prefixes () =
  let bytes = Segment.encode (codec_sample ()) in
  String.iteri
    (fun i c ->
      let mutated = Bytes.of_string bytes in
      Bytes.set mutated i (Char.chr (Char.code c lxor 0xFF));
      expect_corrupt (Printf.sprintf "flip byte %d" i) (fun () ->
          Segment.decode ~source:"test" (Bytes.to_string mutated)))
    bytes;
  for len = 0 to String.length bytes - 1 do
    expect_corrupt (Printf.sprintf "prefix %d" len) (fun () ->
        Segment.decode ~source:"test" (String.sub bytes 0 len))
  done;
  check_rel (codec_sample ()) (decoded bytes)

let test_malformed_hex () =
  let hex = Segment.to_hex (Segment.encode (codec_sample ())) in
  check_rel (codec_sample ())
    (decoded (Segment.of_hex ~source:"test" (String.uppercase_ascii hex)));
  expect_corrupt "odd length" (fun () ->
      Segment.of_hex ~source:"test" (String.sub hex 1 (String.length hex - 1)));
  List.iter
    (fun bad ->
      let b = Bytes.of_string hex in
      Bytes.set b (String.length hex / 2) bad;
      expect_corrupt (Printf.sprintf "digit %C" bad) (fun () ->
          Segment.of_hex ~source:"test" (Bytes.to_string b)))
    [ 'g'; 'G'; ' '; '\n'; '-' ]

(* ------------------------------------------------------------------ *)
(* Manifest validation *)

let expect_storage_error label path =
  match Store.load_database path with
  | Error msg when contains msg "storage:" -> msg
  | Error msg -> Alcotest.failf "%s: unprefixed error %S" label msg
  | Ok _ -> Alcotest.failf "%s: loaded cleanly" label

let test_manifest_validation () =
  with_dir @@ fun dir ->
  ignore (Store.compact ~dir (mixed_db ()));
  let manifest = Filename.concat dir Store.manifest_file in
  let original = read_bytes manifest in
  (* bad magic line *)
  write_bytes manifest ("paradb-segments 99\n" ^ original);
  ignore (expect_storage_error "bad magic" dir);
  (* unparsable entry *)
  write_bytes manifest (original ^ "segment only-two-fields\n");
  ignore (expect_storage_error "bad entry" dir);
  (* row-count disagreement with the segment itself.  Written as a v1
     manifest (no trailer): under v2 the rewritten entry lines would be
     caught by the trailer checksum before the segment check runs, and
     this test is about the manifest-vs-segment cross-check. *)
  let lied =
    String.split_on_char '\n' original
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' line with
           | [ "segment"; file; rel; _rows ] ->
               Some (Printf.sprintf "segment %s %s %d" file rel 12345)
           | "end" :: _ -> None
           | _ when String.trim line = "paradb-segments 2" ->
               Some "paradb-segments 1"
           | _ -> Some line)
    |> String.concat "\n"
  in
  write_bytes manifest lied;
  let msg = expect_storage_error "row mismatch" dir in
  Alcotest.(check bool) "names the mismatch" true (contains msg "12345");
  write_bytes manifest original;
  (* a listed segment file that is gone *)
  let e = List.hd (Store.entries dir) in
  Sys.remove (Filename.concat dir e.Store.file);
  match Store.load_database dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loaded with a missing segment"

let test_directory_without_manifest () =
  with_dir @@ fun dir ->
  match Store.load_database dir with
  | Error msg ->
      Alcotest.(check bool) "mentions MANIFEST" true (contains msg "MANIFEST")
  | Ok _ -> Alcotest.fail "opened a bare directory"

(* ------------------------------------------------------------------ *)
(* Streaming ingest *)

let load_text text =
  let path = write_temp_facts text in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () -> Source.load_database path)

let test_streaming_matches_in_memory () =
  (* dots inside strings, comments, clauses spanning lines *)
  let text =
    "e(1, 2). e(2,\n 3).\n% a comment. with dots. e(9, 9).\n\
     tag(1, \"a. string % with tricks\").\n\
     tag(2, \"\").\ne(3, 1)."
  in
  match (load_text text, Source.parse_facts text) with
  | Ok a, Ok b -> check_db b a
  | Error e, _ | _, Error e -> Alcotest.failf "parse failed: %s" e

let test_streaming_chunk_boundaries () =
  (* a comment and a quoted string that straddle the 64 KiB read chunk *)
  let pad = String.make 65_000 'x' in
  let text =
    Printf.sprintf "e(1, 2).\n%% %s\ne(2, 3). tag(1, \"%s\"). e(3, 4).\n" pad
      pad
  in
  match (load_text text, Source.parse_facts text) with
  | Ok a, Ok b ->
      check_db b a;
      Alcotest.(check int) "tuples" 4 (Database.size a)
  | Error e, _ | _, Error e -> Alcotest.failf "parse failed: %s" e

let test_oversized_clause () =
  let huge = Printf.sprintf "tag(1, \"%s\")." (String.make (2 * 1024 * 1024) 'y') in
  match load_text huge with
  | Error msg ->
      Alcotest.(check bool) "names the limit" true (contains msg "clause")
  | Ok _ -> Alcotest.fail "accepted a 2 MiB clause"

let test_unterminated_string () =
  match load_text "tag(1, \"never closed." with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an unterminated string"

(* ------------------------------------------------------------------ *)
(* Catalog durability *)

let test_catalog_durability () =
  with_dir @@ fun root ->
  let cat = Catalog.create ~data_dir:root () in
  let db1 =
    match Source.parse_facts "e(1, 2). e(2, 3)." with
    | Ok db -> db
    | Error e -> Alcotest.fail e
  in
  (match Catalog.load cat "g" db1 with
  | Ok (_, `Created) -> ()
  | Ok _ -> Alcotest.fail "first load should create"
  | Error e -> Alcotest.fail e);
  let db2 =
    match Source.parse_facts "e(3, 4)." with
    | Ok db -> db
    | Error e -> Alcotest.fail e
  in
  (match Catalog.load cat "g" db2 with
  | Ok (merged, `Appended) ->
      Alcotest.(check int) "merged tuples" 3 (Database.size merged)
  | Ok _ -> Alcotest.fail "second load should append"
  | Error e -> Alcotest.fail e);
  (match Catalog.add_fact cat "g" "e(4, 5)." with
  | Ok merged -> Alcotest.(check int) "after fact" 4 (Database.size merged)
  | Error e -> Alcotest.fail e);
  (* generations strictly increase across mutations *)
  let g1 = match Catalog.find cat "g" with Some (_, g) -> g | None -> -1 in
  (match Catalog.add_fact cat "g" "e(5, 6)." with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let g2 = match Catalog.find cat "g" with Some (_, g) -> g | None -> -1 in
  Alcotest.(check bool) "generation bumped" true (g2 > g1);
  (* a fresh catalog over the same data dir sees everything *)
  let cat' = Catalog.create ~data_dir:root () in
  (match Catalog.attach cat' with
  | [ ("g", 5) ] -> ()
  | attached ->
      Alcotest.failf "attach: %s"
        (String.concat ","
           (List.map (fun (n, s) -> Printf.sprintf "%s=%d" n s) attached)));
  match (Catalog.find cat "g", Catalog.find cat' "g") with
  | Some (want, _), Some (got, _) -> check_db want got
  | _ -> Alcotest.fail "catalog entry missing"

(* The background compactor's entry points: fragmented stores are
   found, folded off the request path, and the fold preserves content
   while collapsing to one segment per relation. *)
let test_background_compaction () =
  with_dir @@ fun root ->
  let cat = Catalog.create ~data_dir:root () in
  let db text =
    match Source.parse_facts text with Ok db -> db | Error e -> Alcotest.fail e
  in
  (match Catalog.load cat "g" (db "e(1, 2). e(2, 3).") with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  List.iter
    (fun f ->
      match Catalog.add_fact cat "g" f with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    [ "e(3, 4)."; "e(4, 5)."; "f(1, 10)." ];
  let dir = Filename.concat root "g" in
  Alcotest.(check bool) "fragmented before fold" true
    (List.length (Store.entries dir) > 2);
  Alcotest.(check (list string)) "candidate found" [ "g" ]
    (List.map fst (Catalog.compact_candidates cat ~min_segments:2));
  let want =
    match Catalog.find cat "g" with
    | Some (d, _) -> d
    | None -> Alcotest.fail "entry missing"
  in
  Alcotest.(check int) "one store folded" 1
    (Paradb_server.Compactor.run_once ~catalog:cat ~min_segments:2);
  Alcotest.(check int) "one segment per relation" 2
    (List.length (Store.entries dir));
  (match Catalog.find cat "g" with
  | Some (got, _) -> check_db want got
  | None -> Alcotest.fail "entry lost by fold");
  (* a fresh catalog over the folded store sees the same database *)
  let cat' = Catalog.create ~data_dir:root () in
  ignore (Catalog.attach cat');
  (match Catalog.find cat' "g" with
  | Some (got, _) -> check_db want got
  | None -> Alcotest.fail "folded store unreadable");
  Alcotest.(check (list string)) "no candidates left" []
    (List.map fst (Catalog.compact_candidates cat ~min_segments:2))

let test_catalog_without_data_dir_replaces () =
  let cat = Catalog.create () in
  let db text =
    match Source.parse_facts text with Ok db -> db | Error e -> Alcotest.fail e
  in
  (match Catalog.load cat "g" (db "e(1, 2). e(2, 3).") with
  | Ok (_, `Replaced) -> ()
  | _ -> Alcotest.fail "in-memory load should replace");
  match Catalog.load cat "g" (db "e(9, 9).") with
  | Ok (merged, `Replaced) ->
      Alcotest.(check int) "replaced, not merged" 1 (Database.size merged)
  | _ -> Alcotest.fail "in-memory reload should replace"

(* ------------------------------------------------------------------ *)
(* Recovery: orphan quarantine, injected crashes, durability modes *)

module Io_fault = Paradb_storage.Io_fault
module Durability = Paradb_storage.Durability

let with_faults config f =
  Io_fault.set (Some config);
  Fun.protect ~finally:(fun () -> Io_fault.set None) f

let test_orphan_quarantine () =
  with_dir @@ fun dir ->
  let db = mixed_db () in
  ignore (Store.compact ~dir db);
  (* plant the debris a crash mid-publish leaves behind: a half-written
     manifest swap, a torn segment temp file, and a fully-written
     segment whose manifest swap never happened *)
  write_bytes (Filename.concat dir "MANIFEST.tmp") "half a manifest";
  write_bytes (Filename.concat dir "seg-000099-e.seg.tmp") "half a segment";
  let stray =
    Relation.create ~name:"stray" ~schema:[ "x" ] [ [| Value.Int 1 |] ]
  in
  ignore (Segment.write ~path:(Filename.concat dir "seg-000042-stray.seg") stray);
  let got = Store.open_dir dir in
  (* the stray relation never leaks into the opened database *)
  check_db db got;
  let orphans = Filename.concat dir Store.orphans_dir in
  Alcotest.(check bool) "orphans dir exists" true (Sys.is_directory orphans);
  Alcotest.(check (list string))
    "debris quarantined"
    [ "MANIFEST.tmp"; "seg-000042-stray.seg"; "seg-000099-e.seg.tmp" ]
    (List.sort compare (Array.to_list (Sys.readdir orphans)));
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " gone from store") false
        (Sys.file_exists (Filename.concat dir f)))
    [ "MANIFEST.tmp"; "seg-000042-stray.seg"; "seg-000099-e.seg.tmp" ];
  (* recovery is idempotent *)
  Alcotest.(check int) "second recover is a no-op" 0 (Store.recover dir)

(* A torn segment write crashes mid-append: the store must reopen with
   the pre-append contents and the torn file must be quarantined, never
   read. *)
let test_torn_write_recovers () =
  with_dir @@ fun dir ->
  let db = mixed_db () in
  ignore (Store.compact ~dir db);
  let delta =
    Relation.create ~name:"d" ~schema:[ "x" ] [ [| Value.Int 7 |] ]
  in
  (match
     with_faults
       { Io_fault.torn_write = 1.0; crash_after_write = 0.0; seed = 7 }
       (fun () -> Store.append ~dir delta)
   with
  | exception Io_fault.Crash _ -> ()
  | () -> Alcotest.fail "torn_write:1.0 did not crash the append");
  let got = Store.open_dir dir in
  check_db db got;
  Alcotest.(check bool) "torn relation absent" false
    (List.mem "d" (Database.names got))

(* A crash after the segment write but before the manifest swap: the
   segment is complete on disk but unpublished, so reopening yields the
   old contents and quarantines it. *)
let test_crash_after_segment_write () =
  with_dir @@ fun dir ->
  let db = mixed_db () in
  ignore (Store.compact ~dir db);
  let delta =
    Relation.create ~name:"d" ~schema:[ "x" ] [ [| Value.Int 7 |] ]
  in
  (match
     with_faults
       { Io_fault.torn_write = 0.0; crash_after_write = 1.0; seed = 7 }
       (fun () -> Store.append ~dir delta)
   with
  | exception Io_fault.Crash _ -> ()
  | () -> Alcotest.fail "crash_after_write:1.0 did not crash the append");
  let got = Store.open_dir dir in
  check_db db got;
  Alcotest.(check bool) "unpublished relation absent" false
    (List.mem "d" (Database.names got));
  let orphans = Filename.concat dir Store.orphans_dir in
  Alcotest.(check bool) "unpublished segment quarantined" true
    (Sys.file_exists orphans && Array.length (Sys.readdir orphans) > 0)

let test_durability_modes () =
  List.iter
    (fun m ->
      Alcotest.(check bool)
        ("of_string/to_string " ^ Durability.to_string m)
        true
        (Durability.of_string (Durability.to_string m) = Some m))
    [ Durability.Full; Durability.Async; Durability.Off ];
  Alcotest.(check bool) "bad mode rejected" true
    (Durability.of_string "fast" = None);
  let prev = Durability.mode () in
  Fun.protect ~finally:(fun () -> Durability.set prev) @@ fun () ->
  List.iter
    (fun m ->
      Durability.set m;
      with_dir @@ fun dir ->
      let db = mixed_db () in
      ignore (Store.compact ~dir db);
      Store.append ~dir
        (Relation.create ~name:"d" ~schema:[ "x" ] [ [| Value.Int 1 |] ]);
      (* async mode queues fsyncs to a background domain; drain before
         checking so the test also exercises the flusher *)
      Durability.drain ();
      Alcotest.(check bool)
        ("append visible under " ^ Durability.to_string m)
        true
        (List.mem "d" (Database.names (Store.open_dir dir))))
    [ Durability.Full; Durability.Async; Durability.Off ]

(* ------------------------------------------------------------------ *)
(* QCheck: .facts -> compact -> open -> to_string round-trip *)

(* [quotable] restricts strings to what fact syntax can re-read (the
   text format has no escape sequences); the binary format itself takes
   arbitrary bytes, covered by the direct property below. *)
let random_value ?(quotable = false) rng ~domain_size =
  if Random.State.bool rng then Value.Int (Random.State.int rng domain_size)
  else
    Value.Str
      (String.init
         (Random.State.int rng 5)
         (fun _ ->
           if quotable then Char.chr (97 + Random.State.int rng 26)
           else Char.chr (32 + Random.State.int rng 95)))

let random_db ?quotable rng =
  let domain_size = 1 + Random.State.int rng 8 in
  let n_rels = 1 + Random.State.int rng 3 in
  Database.of_relations
    (List.init n_rels (fun i ->
         let arity = 1 + Random.State.int rng 3 in
         let tuples = Random.State.int rng 30 in
         Relation.create
           ~name:(Printf.sprintf "r%d" i)
           ~schema:(List.init arity (Printf.sprintf "a%d"))
           (List.init tuples (fun _ ->
                Array.init arity (fun _ ->
                    random_value ?quotable rng ~domain_size)))))

let qcheck_tests =
  [
    Qgen.seeded_property ~name:"decode (encode r) = r, arity 0-4, via hex"
      ~count:200 (fun rng ->
        let r = codec_relation rng in
        let hex = Segment.to_hex (Segment.encode r) in
        let got = decoded (Segment.of_hex ~source:"test" hex) in
        String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) hex
        && Relation.name got = Relation.name r
        && Relation.schema_list got = Relation.schema_list r
        && Relation.set_equal got r);
    Qgen.seeded_property ~name:"compact/open round-trips any database"
      ~count:60 (fun rng ->
        let db = random_db rng in
        with_dir @@ fun dir ->
        ignore (Store.compact ~dir db);
        let got = Store.open_dir dir in
        List.for_all
          (fun want ->
            let g = Database.find got (Relation.name want) in
            Relation.to_string want = Relation.to_string g
            && sorted_rows want = sorted_rows g)
          (Database.relations db));
    Qgen.seeded_property ~name:"facts -> compact -> open = parse" ~count:40
      (fun rng ->
        let db = random_db ~quotable:true rng in
        let text = Paradb_query.Fact_format.to_string db in
        match Source.parse_facts text with
        | Error _ -> false
        | Ok parsed ->
            with_dir @@ fun dir ->
            ignore (Store.compact ~dir parsed);
            let got = Store.open_dir dir in
            List.for_all
              (fun want ->
                sorted_rows want
                = sorted_rows (Database.find got (Relation.name want)))
              (Database.relations parsed));
    (* Satellite of the durability work: truncation at EVERY prefix
       length must be a clean refusal, never a wrong answer.  The prefix
       sweep is exhaustive per generated store; QCheck varies the
       store. *)
    Qgen.seeded_property ~name:"every segment prefix refuses cleanly" ~count:8
      (fun rng ->
        let db = random_db rng in
        with_dir @@ fun dir ->
        ignore (Store.compact ~dir db);
        let es = Store.entries dir in
        let e = List.nth es (Random.State.int rng (List.length es)) in
        let path = Filename.concat dir e.Store.file in
        let original = read_bytes path in
        let ok = ref true in
        for len = 0 to String.length original - 1 do
          write_bytes path (String.sub original 0 len);
          match Segment.openf path with
          | exception Segment.Corrupt _ -> ()
          | exception _ -> ok := false
          | _ -> ok := false
        done;
        write_bytes path original;
        (* the restored file still opens *)
        (match Segment.openf path with
        | exception _ -> ok := false
        | _ -> ());
        !ok);
    Qgen.seeded_property ~name:"every manifest prefix refuses or answers exactly"
      ~count:8 (fun rng ->
        let db = random_db rng in
        with_dir @@ fun dir ->
        ignore (Store.compact ~dir db);
        let render d =
          List.map
            (fun r -> Relation.name r :: sorted_rows r)
            (List.sort
               (fun a b -> compare (Relation.name a) (Relation.name b))
               (Database.relations d))
        in
        let want = render db in
        let manifest = Filename.concat dir Store.manifest_file in
        let original = read_bytes manifest in
        let ok = ref true in
        (* every prefix either refuses cleanly or answers the original
           database exactly — never a crash, never a wrong answer.  (A
           cut that only drops the final newline still carries a valid
           trailer and the full entry set, so accepting it is correct;
           the v2 trailer is what rules out the silently-shortened
           answers v1 allowed on line-boundary cuts.)  The full length
           must load. *)
        for len = 0 to String.length original do
          write_bytes manifest (String.sub original 0 len);
          match Store.load_database dir with
          | Error _ -> if len = String.length original then ok := false
          | Ok got -> if render got <> want then ok := false
          | exception _ -> ok := false
        done;
        !ok);
  ]

let () =
  Alcotest.run "storage"
    [
      ( "segment",
        [
          Alcotest.test_case "round trip" `Quick test_segment_round_trip;
          Alcotest.test_case "openf accessors" `Quick
            test_segment_openf_accessors;
          Alcotest.test_case "delta union" `Quick test_delta_union;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "every byte flip" `Quick test_bit_flip_sweep;
          Alcotest.test_case "truncation and garbage" `Quick
            test_truncation_and_garbage;
          Alcotest.test_case "missing file" `Quick test_missing_file;
          Alcotest.test_case "encode matches the file" `Quick
            test_encode_matches_file;
          Alcotest.test_case "decode refuses flips and prefixes" `Quick
            test_decode_flips_and_prefixes;
          Alcotest.test_case "malformed hex" `Quick test_malformed_hex;
          Alcotest.test_case "manifest validation" `Quick
            test_manifest_validation;
          Alcotest.test_case "bare directory" `Quick
            test_directory_without_manifest;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "matches in-memory parse" `Quick
            test_streaming_matches_in_memory;
          Alcotest.test_case "chunk boundaries" `Quick
            test_streaming_chunk_boundaries;
          Alcotest.test_case "oversized clause" `Quick test_oversized_clause;
          Alcotest.test_case "unterminated string" `Quick
            test_unterminated_string;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "durability across restart" `Quick
            test_catalog_durability;
          Alcotest.test_case "in-memory load replaces" `Quick
            test_catalog_without_data_dir_replaces;
          Alcotest.test_case "background compaction" `Quick
            test_background_compaction;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "orphan quarantine" `Quick test_orphan_quarantine;
          Alcotest.test_case "torn write recovers" `Quick
            test_torn_write_recovers;
          Alcotest.test_case "crash after segment write" `Quick
            test_crash_after_segment_write;
          Alcotest.test_case "durability modes" `Quick test_durability_modes;
        ] );
      ("round-trip properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
