module Value = Paradb_relational.Value
module Dictionary = Paradb_relational.Dictionary
module Relation = Paradb_relational.Relation

exception Corrupt of string

let corrupt path fmt =
  Format.kasprintf (fun s -> raise (Corrupt (Printf.sprintf "segment %s: %s" path s))) fmt

let magic = "PDBSEG1\n"
let version = 1

(* Fixed header: magic(8) version(4) arity(4) rows(8) dict_count(8)
   dict_len(8) name_len(4) schema_len(4). *)
let fixed_header_len = 48

(* ------------------------------------------------------------------ *)
(* Little-endian scalar helpers over Bytes (writer side). *)

let put_u16 b pos v =
  Bytes.unsafe_set b pos (Char.unsafe_chr (v land 0xFF));
  Bytes.unsafe_set b (pos + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF))

let put_u32 b pos v =
  Bytes.unsafe_set b pos (Char.unsafe_chr (v land 0xFF));
  Bytes.unsafe_set b (pos + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF));
  Bytes.unsafe_set b (pos + 2) (Char.unsafe_chr ((v lsr 16) land 0xFF));
  Bytes.unsafe_set b (pos + 3) (Char.unsafe_chr ((v lsr 24) land 0xFF))

let put_u64 b pos v =
  put_u32 b pos (v land 0xFFFFFFFF);
  put_u32 b (pos + 4) ((v lsr 32) land 0xFFFFFFFF)

let buf_u16 buf v =
  let b = Bytes.create 2 in
  put_u16 b 0 v;
  Buffer.add_bytes buf b

let buf_u32 buf v =
  let b = Bytes.create 4 in
  put_u32 b 0 v;
  Buffer.add_bytes buf b

(* ------------------------------------------------------------------ *)
(* Writer *)

let dict_tag_int = 0
let dict_tag_str = 1

let serialize_value buf = function
  | Value.Int i ->
      Buffer.add_char buf (Char.chr dict_tag_int);
      Buffer.add_int64_le buf (Int64.of_int i)
  | Value.Str s ->
      Buffer.add_char buf (Char.chr dict_tag_str);
      buf_u32 buf (String.length s);
      Buffer.add_string buf s

(* The section payloads of [r] in file order — header, dictionary, then
   one page per column — handed to [emit] one at a time.  [emit] must
   consume the payload before returning: the column page buffer is
   reused.  Every serialized form (file or in-memory) goes through here,
   so they are byte-identical by construction. *)
let serialize r emit =
  let name = Relation.name r in
  let schema = Relation.schema_list r in
  let arity = Relation.arity r in
  let n_rows = Relation.cardinality r in
  let dict = Dictionary.global in
  (* Pass 1: assign local codes in first-seen row order and serialize the
     local dictionary; keep the (shared, immutable) code rows for the
     column pass. *)
  let trans = Array.make (max 1 (Dictionary.size dict)) (-1) in
  let dict_buf = Buffer.create 1024 in
  let dict_count = ref 0 in
  let rows_arr = Array.make (max 1 n_rows) [||] in
  let i = ref 0 in
  Relation.iter_codes
    (fun row ->
      rows_arr.(!i) <- row;
      incr i;
      Array.iter
        (fun g ->
          if trans.(g) < 0 then begin
            trans.(g) <- !dict_count;
            incr dict_count;
            serialize_value dict_buf (Dictionary.value dict g)
          end)
        row)
    r;
  if !dict_count > 0xFFFFFFFF then
    invalid_arg "Segment.write: more than 2^32 distinct values";
  (* Variable header tail: name, then u16-length-prefixed attributes. *)
  let schema_buf = Buffer.create 64 in
  List.iter
    (fun attr ->
      if String.length attr > 0xFFFF then
        invalid_arg ("Segment.write: attribute name too long: " ^ attr);
      buf_u16 schema_buf (String.length attr);
      Buffer.add_string schema_buf attr)
    schema;
  let schema_bytes = Buffer.to_bytes schema_buf in
  let dict_bytes = Buffer.to_bytes dict_buf in
  let header =
    Bytes.create (fixed_header_len + String.length name + Bytes.length schema_bytes)
  in
  Bytes.blit_string magic 0 header 0 8;
  put_u32 header 8 version;
  put_u32 header 12 arity;
  put_u64 header 16 n_rows;
  put_u64 header 24 !dict_count;
  put_u64 header 32 (Bytes.length dict_bytes);
  put_u32 header 40 (String.length name);
  put_u32 header 44 (Bytes.length schema_bytes);
  Bytes.blit_string name 0 header fixed_header_len (String.length name);
  Bytes.blit schema_bytes 0 header
    (fixed_header_len + String.length name)
    (Bytes.length schema_bytes);
  emit header;
  emit dict_bytes;
  let page = Bytes.create (n_rows * 4) in
  for c = 0 to arity - 1 do
    for j = 0 to n_rows - 1 do
      put_u32 page (4 * j) trans.(Array.unsafe_get rows_arr.(j) c)
    done;
    emit page
  done

let section_crc payload =
  let crc = Bytes.create 4 in
  put_u32 crc 0 (Crc32.of_bytes payload 0 (Bytes.length payload));
  crc

let write ~path r =
  let written =
    Out_channel.with_open_bin path (fun oc ->
        let written = ref 0 in
        serialize r (fun payload ->
            output_bytes oc payload;
            output_bytes oc (section_crc payload);
            written := !written + Bytes.length payload + 4);
        !written)
  in
  Io_fault.maybe_torn_write path;
  written

let encode r =
  let buf =
    Buffer.create (256 + (8 * Relation.cardinality r * max 1 (Relation.arity r)))
  in
  serialize r (fun payload ->
      Buffer.add_bytes buf payload;
      Buffer.add_bytes buf (section_crc payload));
  Buffer.contents buf

(* Line-safe transport form: two lowercase hex digits per byte. *)
let hex_digits = "0123456789abcdef"

let to_hex s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set out (2 * i) hex_digits.[c lsr 4];
    Bytes.unsafe_set out ((2 * i) + 1) hex_digits.[c land 0xF]
  done;
  Bytes.unsafe_to_string out

(* ------------------------------------------------------------------ *)
(* Reader *)

type mapped = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  source : string;
  name : string;
  schema : string list;
  arity : int;
  rows : int;
  dict_vals : Value.t array; (* local code -> value *)
  col_offset : int array; (* byte offset of each column page in [map] *)
  map : mapped;
}

let name t = t.name
let schema t = t.schema
let arity t = t.arity
let rows t = t.rows

let byte (map : mapped) i = Char.code (Bigarray.Array1.unsafe_get map i)

let get_u16 map i = byte map i lor (byte map (i + 1) lsl 8)

let get_u32 map i =
  byte map i
  lor (byte map (i + 1) lsl 8)
  lor (byte map (i + 2) lsl 16)
  lor (byte map (i + 3) lsl 24)

(* u64 fields must fit a non-negative OCaml int; anything larger is a
   corruption by construction (the writer never emits it). *)
let get_u64 source map i =
  let lo = get_u32 map i and hi = get_u32 map (i + 4) in
  if hi >= 0x40000000 then corrupt source "header field exceeds 2^62";
  (hi lsl 32) lor lo

let get_i64 map i =
  let v = ref 0L in
  for k = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (byte map (i + k)))
  done;
  Int64.to_int !v

let check_min_size source size =
  if size < fixed_header_len + 4 then
    corrupt source "truncated: %d bytes, need at least %d" size
      (fixed_header_len + 4)

let map_file path =
  let fd =
    try Unix.openfile path [ Unix.O_RDONLY ] 0
    with Unix.Unix_error (e, _, _) ->
      raise (Sys_error (Printf.sprintf "%s: %s" path (Unix.error_message e)))
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      check_min_size path size;
      let g =
        Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size |]
      in
      Bigarray.array1_of_genarray g)

let check_crc source map ~pos ~len section =
  let stored = get_u32 map (pos + len) in
  let computed = Crc32.of_bigarray map pos len in
  if stored <> computed then
    corrupt source "%s checksum mismatch (stored %08x, computed %08x)" section
      stored computed

let parse_string source map pos len =
  if len < 0 then corrupt source "negative string length";
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i (Bigarray.Array1.unsafe_get map (pos + i))
  done;
  Bytes.unsafe_to_string b

let validate ~source map =
  let size = Bigarray.Array1.dim map in
  check_min_size source size;
  if parse_string source map 0 8 <> magic then corrupt source "bad magic";
  let v = get_u32 map 8 in
  if v <> version then corrupt source "unsupported version %d (expected %d)" v version;
  let arity = get_u32 map 12 in
  let n_rows = get_u64 source map 16 in
  let dict_count = get_u64 source map 24 in
  let dict_len = get_u64 source map 32 in
  let name_len = get_u32 map 40 in
  let schema_len = get_u32 map 44 in
  if arity > 0xFFFF then corrupt source "implausible arity %d" arity;
  (* every section length must fit the file before any offset arithmetic *)
  if name_len > size || schema_len > size || dict_len > size then
    corrupt source "section length exceeds file size";
  if n_rows > (size / 4) / max 1 arity then
    corrupt source "row count %d exceeds file size" n_rows;
  let hdr_end = fixed_header_len + name_len + schema_len in
  let expected =
    hdr_end + 4 + dict_len + 4 + (arity * ((n_rows * 4) + 4))
  in
  if expected <> size then
    corrupt source "size mismatch: file %d bytes, layout needs %d" size expected;
  check_crc source map ~pos:0 ~len:hdr_end "header";
  let name = parse_string source map fixed_header_len name_len in
  let schema =
    let pos = ref (fixed_header_len + name_len) in
    let limit = hdr_end in
    let attrs = ref [] in
    for _ = 1 to arity do
      if !pos + 2 > limit then corrupt source "schema section truncated";
      let len = get_u16 map !pos in
      if !pos + 2 + len > limit then corrupt source "schema section truncated";
      attrs := parse_string source map (!pos + 2) len :: !attrs;
      pos := !pos + 2 + len
    done;
    if !pos <> limit then corrupt source "schema section has trailing bytes";
    List.rev !attrs
  in
  let dict_off = hdr_end + 4 in
  check_crc source map ~pos:dict_off ~len:dict_len "dictionary";
  let dict_vals = Array.make (max 1 dict_count) (Value.Int 0) in
  let pos = ref dict_off in
  let dict_end = dict_off + dict_len in
  for k = 0 to dict_count - 1 do
    if !pos >= dict_end then corrupt source "dictionary truncated at entry %d" k;
    let tag = byte map !pos in
    if tag = dict_tag_int then begin
      if !pos + 9 > dict_end then corrupt source "dictionary truncated at entry %d" k;
      dict_vals.(k) <- Value.Int (get_i64 map (!pos + 1));
      pos := !pos + 9
    end
    else if tag = dict_tag_str then begin
      if !pos + 5 > dict_end then corrupt source "dictionary truncated at entry %d" k;
      let len = get_u32 map (!pos + 1) in
      if !pos + 5 + len > dict_end then
        corrupt source "dictionary truncated at entry %d" k;
      dict_vals.(k) <- Value.Str (parse_string source map (!pos + 5) len);
      pos := !pos + 5 + len
    end
    else corrupt source "unknown dictionary tag %d at entry %d" tag k
  done;
  if !pos <> dict_end then corrupt source "dictionary has trailing bytes";
  (* Distinct entries keep local->global translation injective, which is
     what lets [to_relation] skip dedup: distinct local rows stay
     distinct after translation.  The writer never emits duplicates. *)
  let seen = Hashtbl.create (max 16 dict_count) in
  Array.iteri
    (fun k v ->
      if k < dict_count then begin
        if Hashtbl.mem seen v then corrupt source "duplicate dictionary entry %d" k;
        Hashtbl.add seen v ()
      end)
    dict_vals;
  let col_offset = Array.make (max 1 arity) 0 in
  let off = ref (dict_end + 4) in
  for c = 0 to arity - 1 do
    check_crc source map ~pos:!off ~len:(n_rows * 4)
      (Printf.sprintf "column %d" c);
    col_offset.(c) <- !off;
    off := !off + (n_rows * 4) + 4
  done;
  { source; name; schema; arity; rows = n_rows; dict_vals; col_offset; map }

let openf path = validate ~source:path (map_file path)

let decode ~source s =
  let n = String.length s in
  let map = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set map i (String.unsafe_get s i)
  done;
  validate ~source map

let hex_value source i = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | c -> corrupt source "non-hex digit %C at offset %d" c i

let of_hex ~source h =
  let n = String.length h in
  if n land 1 = 1 then corrupt source "hex payload has odd length %d" n;
  String.init (n / 2) (fun i ->
      Char.unsafe_chr
        ((hex_value source (2 * i) h.[2 * i] lsl 4)
        lor hex_value source ((2 * i) + 1) h.[(2 * i) + 1]))

(* Local code -> code in the process dictionary; interning happens once
   per distinct value, then column translation is an array read per
   cell. *)
let translation seg =
  Array.map (Dictionary.intern Dictionary.global) seg.dict_vals

let dict_count seg = Array.length seg.dict_vals

let fill_row seg local2global scratch i =
  for c = 0 to seg.arity - 1 do
    let lc = get_u32 seg.map (seg.col_offset.(c) + (4 * i)) in
    if lc >= dict_count seg then
      corrupt seg.source "row %d column %d: code %d out of range" i c lc;
    Array.unsafe_set scratch c (Array.unsafe_get local2global lc)
  done

let rows_seq seg =
  let local2global = translation seg in
  let scratch = Array.make seg.arity 0 in
  Seq.init seg.rows (fun i ->
      fill_row seg local2global scratch i;
      scratch)

(* Bulk decode for the cold-open path: the writer serialized a relation
   with set semantics and the dictionary is duplicate-free (checked at
   [openf]), so the decoded rows are pairwise distinct and the relation
   can be built through the trusted constructor — no dedup hashing, no
   probe table until something asks for membership.  The small arities
   that dominate real schemas get dedicated loops whose row allocation
   is an inline array literal; the generic loop pays a [caml_make_vect]
   call per row, which is most of the decode cost at 10M rows. *)
let oob seg i c lc =
  corrupt seg.source "row %d column %d: code %d out of range" i c lc

let to_relation seg =
  let l2g = translation seg in
  let dict_n = Array.length l2g in
  let map = seg.map in
  let n = seg.rows in
  let rows_a = Array.make n [||] in
  (match seg.col_offset with
  | [| o0 |] when seg.arity = 1 ->
      for i = 0 to n - 1 do
        let lc0 = get_u32 map (o0 + (4 * i)) in
        if lc0 >= dict_n then oob seg i 0 lc0;
        Array.unsafe_set rows_a i [| Array.unsafe_get l2g lc0 |]
      done
  | [| o0; o1 |] ->
      for i = 0 to n - 1 do
        let b = 4 * i in
        let lc0 = get_u32 map (o0 + b) and lc1 = get_u32 map (o1 + b) in
        if lc0 >= dict_n then oob seg i 0 lc0;
        if lc1 >= dict_n then oob seg i 1 lc1;
        Array.unsafe_set rows_a i
          [| Array.unsafe_get l2g lc0; Array.unsafe_get l2g lc1 |]
      done
  | [| o0; o1; o2 |] ->
      for i = 0 to n - 1 do
        let b = 4 * i in
        let lc0 = get_u32 map (o0 + b)
        and lc1 = get_u32 map (o1 + b)
        and lc2 = get_u32 map (o2 + b) in
        if lc0 >= dict_n then oob seg i 0 lc0;
        if lc1 >= dict_n then oob seg i 1 lc1;
        if lc2 >= dict_n then oob seg i 2 lc2;
        Array.unsafe_set rows_a i
          [|
            Array.unsafe_get l2g lc0;
            Array.unsafe_get l2g lc1;
            Array.unsafe_get l2g lc2;
          |]
      done
  | _ ->
      for i = 0 to n - 1 do
        let row = Array.make seg.arity 0 in
        fill_row seg l2g row i;
        Array.unsafe_set rows_a i row
      done);
  Relation.of_unique_codes ~name:seg.name ~schema:seg.schema rows_a
