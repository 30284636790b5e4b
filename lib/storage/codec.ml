(* The graph codec: a sorted label dictionary followed by compressed
   sparse rows.

   The dictionary part ("SSDD") holds every distinct [Str]/[Sym] payload,
   sorted — canonical, and binary-searchable on disk.  The CSR part
   ("SSDG") is a degrees block (one varint per node) followed by an edges
   block (tagged labels, string payloads as dictionary indices, then the
   target node).  Splitting degrees from edges keeps the node → row
   mapping computable without touching edge bytes, and referencing the
   dictionary keeps repeated labels one varint wide.  The persistent
   store writes the two parts as its separate [dict] and [graph]
   segments; a [.bin] file is the two back to back.

   Decoders validate everything — magics, sortedness, dictionary and
   node bounds, the edge count, full consumption — and raise only the
   typed [Corrupt]. *)

module B = Bytesio
module Graph = Ssd.Graph
module Label = Ssd.Label
module Metrics = Ssd_obs.Metrics
module Trace = Ssd_obs.Trace

(* Codec instrumentation (lib/obs): total bytes through each direction. *)
let m_encodes = Metrics.counter "codec.encodes"
let m_decodes = Metrics.counter "codec.decodes"
let m_bytes_out = Metrics.counter "codec.bytes_encoded"
let m_bytes_in = Metrics.counter "codec.bytes_decoded"

exception Corrupt = Bytesio.Corrupt

let dict_magic = "SSDD"
let csr_magic = "SSDG"

(* ------------------------------------------------------------------ *)
(* Dictionary                                                          *)
(* ------------------------------------------------------------------ *)

(* All distinct string payloads of the graph's labels, sorted, plus
   each string's position in that order (the encoder's lookup). *)
let dict_of_graph g =
  let index = Hashtbl.create 64 in
  Graph.fold_edges
    (fun () _ l _ ->
      match l with
      | Graph.Lab (Label.Str s) | Graph.Lab (Label.Sym s) -> Hashtbl.replace index s 0
      | Graph.Lab (Label.Int _ | Label.Float _ | Label.Bool _) | Graph.Eps -> ())
    () g;
  let strings = Hashtbl.fold (fun s _ acc -> s :: acc) index [] in
  let dict = Array.of_list (List.sort String.compare strings) in
  Array.iteri (fun i s -> Hashtbl.replace index s i) dict;
  (dict, index)

let write_dict buf dict =
  Buffer.add_string buf dict_magic;
  B.put_varint buf (Array.length dict);
  Array.iter (B.put_string buf) dict

let read_dict r =
  B.expect_magic r dict_magic;
  let n = B.get_varint r in
  B.check_count r ~what:"a dictionary size" ~unit_bytes:1 n;
  let dict = Array.make n "" in
  for i = 0 to n - 1 do
    let off = r.B.pos in
    let s = B.get_string r in
    if i > 0 && String.compare dict.(i - 1) s >= 0 then
      B.corrupt ~offset:off ~expected:"strictly ascending dictionary strings"
        ~found:(Printf.sprintf "%S after %S" s dict.(i - 1));
    dict.(i) <- s
  done;
  dict

(* ------------------------------------------------------------------ *)
(* Compressed sparse rows                                              *)
(* ------------------------------------------------------------------ *)

let write_csr buf ~index g =
  Buffer.add_string buf csr_magic;
  let n = Graph.n_nodes g in
  B.put_varint buf n;
  B.put_varint buf (Graph.root g);
  B.put_varint buf (Graph.n_edges g);
  for u = 0 to n - 1 do
    B.put_varint buf (List.length (Graph.succ g u))
  done;
  for u = 0 to n - 1 do
    List.iter
      (fun (l, v) ->
        (match l with
        | Graph.Eps -> Buffer.add_char buf '\000'
        | Graph.Lab (Label.Int i) ->
          Buffer.add_char buf '\001';
          B.put_int buf i
        | Graph.Lab (Label.Float f) ->
          Buffer.add_char buf '\002';
          B.put_float buf f
        | Graph.Lab (Label.Str s) ->
          Buffer.add_char buf '\003';
          B.put_varint buf (Hashtbl.find index s)
        | Graph.Lab (Label.Bool bl) ->
          Buffer.add_char buf '\004';
          Buffer.add_char buf (if bl then '\001' else '\000')
        | Graph.Lab (Label.Sym s) ->
          Buffer.add_char buf '\005';
          B.put_varint buf (Hashtbl.find index s));
        B.put_varint buf v)
      (Graph.succ g u)
  done

let read_csr ~dict r =
  let start = r.B.pos in
  B.expect_magic r csr_magic;
  let n = B.get_varint r in
  if n = 0 then B.corrupt ~offset:start ~expected:"a nonempty graph" ~found:"n_nodes = 0";
  B.check_count r ~what:"a node count" ~unit_bytes:1 n;
  let root = B.get_varint r in
  if root >= n then
    B.corrupt ~offset:start
      ~expected:(Printf.sprintf "a root below n_nodes = %d" n)
      ~found:(string_of_int root);
  let n_edges = B.get_varint r in
  B.check_count r ~what:"an edge count" ~unit_bytes:2 n_edges;
  let degrees = Array.make n 0 in
  let total = ref 0 in
  for u = 0 to n - 1 do
    let off = r.B.pos in
    let d = B.get_varint r in
    B.check_count r ~what:"an out-degree" ~unit_bytes:2 d;
    if !total + d > n_edges then
      B.corrupt ~offset:off
        ~expected:(Printf.sprintf "degrees summing to n_edges = %d" n_edges)
        ~found:(Printf.sprintf "at least %d" (!total + d));
    degrees.(u) <- d;
    total := !total + d
  done;
  if !total <> n_edges then
    B.corrupt ~offset:r.B.pos
      ~expected:(Printf.sprintf "degrees summing to n_edges = %d" n_edges)
      ~found:(string_of_int !total);
  let n_dict = Array.length dict in
  let string_at off i =
    if i < n_dict then dict.(i)
    else
      B.corrupt ~offset:off
        ~expected:(Printf.sprintf "a dictionary index below %d" n_dict)
        ~found:(string_of_int i)
  in
  let b = Graph.Builder.create () in
  for _ = 1 to n do
    ignore (Graph.Builder.add_node b)
  done;
  Graph.Builder.set_root b root;
  for u = 0 to n - 1 do
    for _ = 1 to degrees.(u) do
      let tag_off = r.B.pos in
      let label =
        match B.byte r with
        | 0 -> Graph.Eps
        | 1 -> Graph.Lab (Label.Int (B.get_int r))
        | 2 -> Graph.Lab (Label.Float (B.get_float r))
        | 3 ->
          let off = r.B.pos in
          Graph.Lab (Label.Str (string_at off (B.get_varint r)))
        | 4 -> Graph.Lab (Label.Bool (B.byte r <> 0))
        | 5 ->
          let off = r.B.pos in
          Graph.Lab (Label.Sym (string_at off (B.get_varint r)))
        | t -> B.corrupt ~offset:tag_off ~expected:"a label tag in 0..5" ~found:(string_of_int t)
      in
      let v = B.get_varint r in
      if v >= n then
        B.corrupt ~offset:tag_off
          ~expected:(Printf.sprintf "an edge target below n_nodes = %d" n)
          ~found:(string_of_int v);
      match label with
      | Graph.Eps -> Graph.Builder.add_eps b u v
      | Graph.Lab l -> Graph.Builder.add_edge b u l v
    done
  done;
  Graph.Builder.finish b

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let encode_parts g =
  Metrics.incr m_encodes;
  Trace.with_span "codec.encode" @@ fun () ->
  let dict, index = dict_of_graph g in
  let d = Buffer.create 256 and c = Buffer.create 4096 in
  write_dict d dict;
  write_csr c ~index g;
  let n = Buffer.length d + Buffer.length c in
  Metrics.add m_bytes_out n;
  Trace.annotate "bytes" (Trace.Int n);
  (Buffer.to_bytes d, Buffer.to_bytes c)

let encode g =
  let d, c = encode_parts g in
  Bytes.cat d c

(* Run a reader over all of [data], rejecting trailing bytes. *)
let parse data read =
  let r = B.reader data in
  let x = read r in
  B.expect_end r;
  x

let decoding data read =
  Metrics.incr m_decodes;
  Metrics.add m_bytes_in (Bytes.length data);
  Trace.with_span "codec.decode" ~attrs:[ ("bytes", Trace.Int (Bytes.length data)) ]
  @@ fun () -> parse data read

let decode_dict data = parse data read_dict
let decode_csr ~dict data = decoding data (read_csr ~dict)
let decode data = decoding data (fun r -> read_csr ~dict:(read_dict r) r)
let encoded_size g = Bytes.length (encode g)

let write_file path g =
  let oc = open_out_bin path in
  let data = encode g in
  output_bytes oc data;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let data = Bytes.create n in
  really_input ic data 0 n;
  close_in ic;
  decode data
