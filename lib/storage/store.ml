module Relation = Paradb_relational.Relation
module Database = Paradb_relational.Database

module Metrics = Paradb_telemetry.Metrics

type entry = { file : string; relation : string; rows : int }

let manifest_file = "MANIFEST"
let orphans_dir = "orphans"

(* v1 manifests had no trailer, so a truncation that happens to land on
   a line boundary parses cleanly and silently forgets relations.  v2
   closes that hole with a mandatory [end <count> <crc32>] trailer over
   the entry lines; v1 stores are still readable (and upgraded to v2 on
   their next manifest swap). *)
let manifest_magic_v1 = "paradb-segments 1"
let manifest_magic = "paradb-segments 2"

let m_orphans = Metrics.counter "storage.orphans.cleaned"

let corrupt path fmt =
  Format.kasprintf
    (fun s -> raise (Segment.Corrupt (Printf.sprintf "manifest %s: %s" path s)))
    fmt

let is_store path =
  Sys.file_exists path
  && Sys.is_directory path
  && Sys.file_exists (Filename.concat path manifest_file)

(* ------------------------------------------------------------------ *)
(* Manifest *)

let entry_line e = Printf.sprintf "segment %s %s %d\n" e.file e.relation e.rows

let parse_entry path line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "segment"; file; relation; rows ] -> (
      match int_of_string_opt rows with
      | Some rows when rows >= 0 -> { file; relation; rows }
      | _ -> corrupt path "bad row count in line %S" line)
  | _ -> corrupt path "unparsable line %S" line

(* v1 body: entry lines to end of file, blank lines ignored.  No
   integrity check beyond per-line syntax — which is exactly why v2
   exists. *)
let parse_v1 path lines =
  List.filter_map
    (fun line ->
      if String.trim line = "" then None else Some (parse_entry path line))
    lines

(* v2 body: entry lines, then an [end <count> <crc32hex>] trailer whose
   checksum covers the raw entry-line bytes.  Anything cut off before
   the trailer — including a cut exactly on a line boundary, which v1
   accepted — fails as truncated; bytes after the trailer fail too. *)
let parse_v2 path lines =
  let rec go acc crc = function
    | [] -> corrupt path "truncated: missing end trailer"
    | line :: rest -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ "end"; count; stored ] ->
            List.iter
              (fun l ->
                if String.trim l <> "" then
                  corrupt path "bytes after end trailer: %S" l)
              rest;
            let count =
              match int_of_string_opt count with
              | Some n when n >= 0 -> n
              | _ -> corrupt path "bad entry count in trailer %S" line
            in
            let stored =
              match int_of_string_opt ("0x" ^ stored) with
              | Some c -> c
              | None -> corrupt path "bad checksum in trailer %S" line
            in
            if List.length acc <> count then
              corrupt path "trailer says %d entries, found %d" count
                (List.length acc);
            let computed = Crc32.finish crc in
            if computed <> stored then
              corrupt path "entry checksum mismatch (stored %08x, computed %08x)"
                stored computed;
            List.rev acc
        | _ ->
            go
              (parse_entry path line :: acc)
              (Crc32.feed_string crc (line ^ "\n"))
              rest)
  in
  go [] Crc32.init lines

let entries dir =
  let path = Filename.concat dir manifest_file in
  let text = In_channel.with_open_bin path In_channel.input_all in
  match String.split_on_char '\n' text with
  | [] -> corrupt path "empty manifest"
  | first :: rest ->
      let first = String.trim first in
      if first = manifest_magic then parse_v2 path rest
      else if first = manifest_magic_v1 then parse_v1 path rest
      else
        corrupt path "bad first line %S (expected %S)" first manifest_magic

(* The publish protocol, in write order (see DESIGN.md §16):
   1. segment bytes reach their files (callers sync them first),
   2. MANIFEST.tmp is written and synced,
   3. the rename swaps it live,
   4. the directory entry is synced.
   Under [Durability.Full] each sync completes before the next step; a
   kill at any point leaves either the old manifest or the new one, and
   the new one never names unsynced segment bytes. *)
let write_manifest dir es =
  let buf = Buffer.create 256 in
  Buffer.add_string buf manifest_magic;
  Buffer.add_char buf '\n';
  let crc =
    List.fold_left
      (fun crc e ->
        let line = entry_line e in
        Buffer.add_string buf line;
        Crc32.feed_string crc line)
      Crc32.init es
  in
  Buffer.add_string buf
    (Printf.sprintf "end %d %08x\n" (List.length es) (Crc32.finish crc));
  let tmp = Filename.concat dir (manifest_file ^ ".tmp") in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  Io_fault.maybe_torn_write tmp;
  Durability.file_sync tmp;
  Io_fault.maybe_crash_after_write tmp;
  Sys.rename tmp (Filename.concat dir manifest_file);
  Durability.dir_sync dir

(* Relation names are parser identifiers, but keep file names safe
   against anything unexpected. *)
let sanitize_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> c
      | _ -> '_')
    name

let seq_of_file file =
  try Scanf.sscanf file "seg-%d-" (fun n -> n) with Scanf.Scan_failure _ | Failure _ | End_of_file -> 0

let next_seq es = 1 + List.fold_left (fun acc e -> max acc (seq_of_file e.file)) 0 es

let segment_file seq name =
  Printf.sprintf "seg-%06d-%s.seg" seq (sanitize_name name)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------------------------------------------ *)
(* Writing *)

(* Segment bytes are synced before the manifest can name them — step 1
   of the publish protocol in [write_manifest]'s comment. *)
let write_segment dir seq r =
  let file = segment_file seq (Relation.name r) in
  let path = Filename.concat dir file in
  let bytes = Segment.write ~path r in
  Durability.file_sync path;
  Io_fault.maybe_crash_after_write path;
  ({ file; relation = Relation.name r; rows = Relation.cardinality r }, bytes)

let compact ~dir db =
  mkdir_p dir;
  let _, entries, total =
    List.fold_left
      (fun (seq, es, total) r ->
        let e, bytes = write_segment dir seq r in
        (seq + 1, e :: es, total + bytes))
      (1, [], 0) (Database.relations db)
  in
  write_manifest dir (List.rev entries);
  total

let append ~dir r =
  let es = entries dir in
  let e, _bytes = write_segment dir (next_seq es) r in
  write_manifest dir (es @ [ e ])


(* ------------------------------------------------------------------ *)
(* Opening *)

let open_entry ~dir e =
  let path = Filename.concat dir e.file in
  let seg = Segment.openf path in
  if Segment.name seg <> e.relation then
    corrupt
      (Filename.concat dir manifest_file)
      "segment %s holds relation %S, manifest says %S" e.file
      (Segment.name seg) e.relation;
  if Segment.rows seg <> e.rows then
    corrupt
      (Filename.concat dir manifest_file)
      "segment %s holds %d rows, manifest says %d" e.file (Segment.rows seg)
      e.rows;
  seg

(* Union of one relation's segments in manifest order.  A single
   segment (the common case: every relation right after a compact)
   takes the trusted bulk-decode path — no dedup, lazy probe table.
   Multi-segment relations may repeat rows across deltas, so they go
   through [of_codes]'s set semantics. *)
let relation_of_segments = function
  | [] -> assert false
  | [ seg ] -> Segment.to_relation seg
  | first :: rest as segs ->
      let schema = Segment.schema first in
      List.iter
        (fun s ->
          if Segment.schema s <> schema then
            raise
              (Segment.Corrupt
                 (Printf.sprintf
                    "relation %s: segments disagree on schema (arity %d vs %d)"
                    (Segment.name first) (Segment.arity first)
                    (Segment.arity s))))
        rest;
      let total = List.fold_left (fun acc s -> acc + Segment.rows s) 0 segs in
      let rows =
        Seq.concat_map Segment.rows_seq (List.to_seq segs)
      in
      Relation.of_codes ~name:(Segment.name first) ~size_hint:total
        ~schema rows

(* ------------------------------------------------------------------ *)
(* Recovery: quarantine anything a crash left behind.

   Every failure mode of the publish protocol leaves exactly one kind
   of debris — files in the store directory the live manifest does not
   reference: a MANIFEST.tmp from a death between write and rename, or
   segment files whose manifest swap never happened (and, after an
   interrupted [fold_in_place], superseded segments whose removal never
   ran).  None of it is ever read, but it accumulates forever and a
   later writer could collide with a stale [.tmp], so recovery moves it
   into [orphans/] (rename, no copy) where an operator can inspect or
   delete it.  Quarantine rather than delete: if the manifest itself is
   the casualty, the orphans are the only surviving copy of the data.

   Best-effort by design — a read-only store just skips recovery. *)

let quarantine dir file =
  let dst_dir = Filename.concat dir orphans_dir in
  (try mkdir_p dst_dir with Sys_error _ | Unix.Unix_error _ -> ());
  let dst =
    let base = Filename.concat dst_dir file in
    if not (Sys.file_exists base) then base
    else
      let rec fresh k =
        let p = Printf.sprintf "%s.%d" base k in
        if Sys.file_exists p then fresh (k + 1) else p
      in
      fresh 1
  in
  match Sys.rename (Filename.concat dir file) dst with
  | () ->
      Metrics.incr m_orphans;
      true
  | exception Sys_error _ -> false

let recover dir =
  let es = entries dir in
  let live = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace live e.file ()) es;
  let cleaned = ref 0 in
  (match Sys.readdir dir with
  | files ->
      Array.iter
        (fun file ->
          let orphan =
            file <> manifest_file
            && file <> orphans_dir
            && (Filename.check_suffix file ".tmp"
               || (Filename.check_suffix file ".seg"
                  && not (Hashtbl.mem live file)))
          in
          if orphan && quarantine dir file then incr cleaned)
        files
  | exception Sys_error _ -> ());
  !cleaned

let open_dir dir =
  let (_ : int) = recover dir in
  let es = entries dir in
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let seg = open_entry ~dir e in
      match Hashtbl.find_opt tbl e.relation with
      | Some segs -> segs := seg :: !segs
      | None ->
          Hashtbl.add tbl e.relation (ref [ seg ]);
          order := e.relation :: !order)
    es;
  List.fold_left
    (fun db name ->
      let segs = List.rev !(Hashtbl.find tbl name) in
      Database.add (relation_of_segments segs) db)
    Database.empty (List.rev !order)

(* In-place fold of an existing store: union every relation's delta
   segments, write one fresh segment per relation (under sequence
   numbers above every live one), swap the manifest, then delete the
   superseded files.  Crash-safe at every step: until the manifest
   rename the old segment set is live and the new files are orphans;
   after it the old files are orphans and removal is best-effort
   cleanup.  Returns (segments before, segments after, bytes
   written). *)
let fold_in_place ~dir =
  let old_entries = entries dir in
  let db = open_dir dir in
  let seq0 = next_seq old_entries in
  let _, fresh, bytes =
    List.fold_left
      (fun (seq, es, total) r ->
        let e, b = write_segment dir seq r in
        (seq + 1, e :: es, total + b))
      (seq0, [], 0) (Database.relations db)
  in
  write_manifest dir (List.rev fresh);
  List.iter
    (fun e -> try Sys.remove (Filename.concat dir e.file) with Sys_error _ -> ())
    old_entries;
  (List.length old_entries, List.length fresh, bytes)

let load_database path =
  if is_store path then
    match open_dir path with
    | db -> Ok db
    | exception Segment.Corrupt msg -> Error ("storage: " ^ msg)
    | exception Sys_error msg -> Error msg
  else if Sys.file_exists path && Sys.is_directory path && path <> "-" then
    Error (Printf.sprintf "storage: %s is a directory with no %s" path manifest_file)
  else Paradb_query.Source.load_database path
