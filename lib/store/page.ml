(* Page framing and the superblock.

   Data file layout:
   {v
     offset 0   raw 16-byte header: "SSDP" | version u8 | pad[3] | page_size u32 LE | pad[4]
     offset 16  page 0: the superblock (framed)
     ...        page i at offset 16 + i * page_size
   v}

   Every page is framed [crc32:4 | lsn:8 | len:2 | pad:2 | payload | zeros]:
   the CRC covers everything after itself, so a torn or bit-flipped page
   is detected on read ({!unframe} raises the typed
   [Ssd_storage.Bytesio.Corrupt]).  [lsn] is the WAL sequence number of
   the transaction that last wrote the page.

   The superblock payload carries the clean-shutdown flag, the next WAL
   LSN, the page count and the segment directory: for each segment its
   name, first page, byte length and content CRC. *)

module B = Ssd_storage.Bytesio

let header_size = 16
let frame_overhead = 16
let default_page_size = 4096
let min_page_size = 128
let magic = "SSDP"
(* Version 2: the graph codec is dictionary + CSR everywhere, including
   inside the DataGuide segment. *)
let version = 2

let payload_capacity ~page_size = page_size - frame_overhead

(* ------------------------------------------------------------------ *)
(* Raw file header                                                     *)
(* ------------------------------------------------------------------ *)

let encode_header ~page_size =
  let b = Bytes.make header_size '\000' in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set b 4 (Char.chr version);
  Bytes.set_int32_le b 8 (Int32.of_int page_size);
  b

let decode_header b =
  if Bytes.length b < header_size then
    B.corrupt ~offset:0 ~expected:"a 16-byte store header"
      ~found:(Printf.sprintf "%d bytes" (Bytes.length b));
  if Bytes.sub_string b 0 4 <> magic then
    B.corrupt ~offset:0
      ~expected:(Printf.sprintf "magic %S" magic)
      ~found:(Printf.sprintf "%S" (Bytes.sub_string b 0 4));
  let v = Char.code (Bytes.get b 4) in
  if v <> version then
    B.corrupt ~offset:4
      ~expected:(Printf.sprintf "format version %d" version)
      ~found:(string_of_int v);
  let page_size = Int32.to_int (Bytes.get_int32_le b 8) in
  if page_size < min_page_size || page_size > 65536 then
    B.corrupt ~offset:8
      ~expected:(Printf.sprintf "a page size in [%d, 65536]" min_page_size)
      ~found:(string_of_int page_size);
  page_size

(* ------------------------------------------------------------------ *)
(* Page frames                                                         *)
(* ------------------------------------------------------------------ *)

let frame ~page_size ~lsn payload =
  let cap = payload_capacity ~page_size in
  let len = Bytes.length payload in
  if len > cap then
    invalid_arg
      (Printf.sprintf "Page.frame: %d-byte payload exceeds capacity %d" len cap);
  let page = Bytes.make page_size '\000' in
  Bytes.set_int64_le page 4 (Int64.of_int lsn);
  Bytes.set_uint16_le page 12 len;
  Bytes.blit payload 0 page frame_overhead len;
  let crc = B.crc32_update 0 page 4 (page_size - 4) in
  Bytes.set_int32_le page 0 (Int32.of_int crc);
  page

(* [unframe ~page_size ~page_no bytes] checks the CRC and returns
   (lsn, payload).  [page_no] only seasons the error message. *)
let unframe ~page_size ?(page_no = -1) page =
  let where = if page_no >= 0 then Printf.sprintf " of page %d" page_no else "" in
  if Bytes.length page <> page_size then
    B.corrupt ~offset:0
      ~expected:(Printf.sprintf "a %d-byte page%s" page_size where)
      ~found:(Printf.sprintf "%d bytes" (Bytes.length page));
  let stored = Int32.to_int (Bytes.get_int32_le page 0) land 0xFFFFFFFF in
  let computed = B.crc32_update 0 page 4 (page_size - 4) in
  if stored <> computed then
    B.corrupt ~offset:0
      ~expected:(Printf.sprintf "page CRC %08x%s" computed where)
      ~found:(Printf.sprintf "%08x" stored);
  let lsn = Int64.to_int (Bytes.get_int64_le page 4) in
  let len = Bytes.get_uint16_le page 12 in
  if len > payload_capacity ~page_size then
    B.corrupt ~offset:12
      ~expected:(Printf.sprintf "a payload length <= %d%s" (payload_capacity ~page_size) where)
      ~found:(string_of_int len);
  (lsn, Bytes.sub page frame_overhead len)

(* ------------------------------------------------------------------ *)
(* Superblock                                                          *)
(* ------------------------------------------------------------------ *)

type seg = {
  name : string;
  first_page : int;
  byte_len : int;
  crc : int;
}

type superblock = {
  clean : bool;
  next_lsn : int;
  n_pages : int; (* total pages including the superblock *)
  path_depth : int; (* depth the "path" segment was built with *)
  segs : seg list;
}

let sb_magic = "SSDS"

let encode_superblock sb =
  let buf = Buffer.create 128 in
  Buffer.add_string buf sb_magic;
  Buffer.add_char buf (if sb.clean then '\001' else '\000');
  B.put_varint buf sb.next_lsn;
  B.put_varint buf sb.n_pages;
  B.put_varint buf sb.path_depth;
  B.put_varint buf (List.length sb.segs);
  List.iter
    (fun s ->
      B.put_string buf s.name;
      B.put_varint buf s.first_page;
      B.put_varint buf s.byte_len;
      B.put_varint buf s.crc)
    sb.segs;
  Buffer.to_bytes buf

let decode_superblock data =
  let r = B.reader data in
  B.expect_magic r sb_magic;
  let clean = B.byte r <> 0 in
  let next_lsn = B.get_varint r in
  let n_pages = B.get_varint r in
  let path_depth = B.get_varint r in
  let n_segs = B.get_varint r in
  B.check_count r ~what:"a segment count" ~unit_bytes:4 n_segs;
  let segs = ref [] in
  for _ = 1 to n_segs do
    let name = B.get_string r in
    let first_page = B.get_varint r in
    let byte_len = B.get_varint r in
    let crc = B.get_varint r in
    segs := { name; first_page; byte_len; crc } :: !segs
  done;
  B.expect_end r;
  { clean; next_lsn; n_pages; path_depth; segs = List.rev !segs }

(* Pages a [len]-byte segment occupies. *)
let pages_for ~page_size len =
  let cap = payload_capacity ~page_size in
  if len = 0 then 1 else (len + cap - 1) / cap

let page_offset ~page_size p = header_size + (p * page_size)
