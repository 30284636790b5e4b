module Graph = Ssd.Graph
module Codec = Ssd_storage.Codec
module B = Ssd_storage.Bytesio
module Pager = Ssd_storage.Pager
open Gen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* An exact round-trip: node identities survive (not just the value up
   to bisimilarity), the two parts the store keeps as separate segments
   decode on their own, and the encoding is canonical — re-encoding the
   decode is byte-identical. *)
let exact_roundtrip what g =
  let data = Codec.encode g in
  let g' = Codec.decode data in
  check_int (what ^ ": same node count") (Graph.n_nodes g) (Graph.n_nodes g');
  check_int (what ^ ": same edge count") (Graph.n_edges g) (Graph.n_edges g');
  check_int (what ^ ": same root") (Graph.root g) (Graph.root g');
  check (what ^ ": same value") true (Ssd.Bisim.equal g g');
  check (what ^ ": canonical bytes") true (Bytes.equal data (Codec.encode g'));
  let dict_b, csr_b = Codec.encode_parts g in
  check (what ^ ": encode is the two parts") true (Bytes.equal data (Bytes.cat dict_b csr_b));
  let g'' = Codec.decode_csr ~dict:(Codec.decode_dict dict_b) csr_b in
  check (what ^ ": parts decode alone") true (Bytes.equal data (Codec.encode g''))

let roundtrip_fig1 () =
  exact_roundtrip "figure1" (Ssd_workload.Movies.figure1 ());
  exact_roundtrip "movies" (Ssd_workload.Movies.generate ~seed:7 ~n_entries:20 ())

let file_roundtrip () =
  let g = Ssd_workload.Bibdb.generate ~n_papers:30 () in
  let path = Filename.temp_file "ssd" ".bin" in
  Codec.write_file path g;
  let g' = Codec.read_file path in
  Sys.remove path;
  check "file round-trip" true (Ssd.Bisim.equal g g')

let corrupt_input_rejected () =
  let rejects data =
    match Codec.decode data with
    | exception Codec.Corrupt _ -> true
    | _ -> false
  in
  check "bad magic" true (rejects (Bytes.of_string "NOPE"));
  check "empty" true (rejects Bytes.empty);
  let good = Codec.encode (Ssd_workload.Movies.figure1 ()) in
  check "truncated" true (rejects (Bytes.sub good 0 (Bytes.length good - 3)));
  let trailing = Bytes.cat good (Bytes.of_string "xx") in
  check "trailing bytes" true (rejects trailing)

let corrupt_diagnostics () =
  (* The exception carries where and what: offset of the defect plus
     expected/found descriptions. *)
  (match Codec.decode (Bytes.of_string "NOPE") with
  | exception Codec.Corrupt { offset; expected; found } ->
    check_int "magic offset" 0 offset;
    check "mentions magic" true (expected = "magic \"SSDD\"");
    check "shows found bytes" true (found = "\"NOPE\"")
  | _ -> Alcotest.fail "bad magic accepted");
  (* Hand-built inputs: a dictionary part, then a CSR header and degrees. *)
  let input ~dict ~csr =
    let buf = Buffer.create 32 in
    Buffer.add_string buf "SSDD";
    B.put_varint buf (List.length dict);
    List.iter (B.put_string buf) dict;
    Buffer.add_string buf "SSDG";
    List.iter (B.put_varint buf) csr;
    Buffer.to_bytes buf
  in
  let rejected_for what data want =
    match Codec.decode data with
    | exception Codec.Corrupt { expected; _ } ->
      Alcotest.(check string) (what ^ " diagnosed") want expected
    | _ -> Alcotest.fail (what ^ " accepted")
  in
  (* The well-formed baseline: one node, no edges. *)
  check_int "baseline decodes" 1
    (Graph.n_nodes (Codec.decode (input ~dict:[ "a" ] ~csr:[ 1; 0; 0; 0 ])));
  rejected_for "unsorted dictionary"
    (input ~dict:[ "b"; "a" ] ~csr:[ 1; 0; 0; 0 ])
    "strictly ascending dictionary strings";
  (* n_nodes = 2, root 0, n_edges = 1, degrees 0 and 0 *)
  rejected_for "degrees not summing to n_edges"
    (input ~dict:[] ~csr:[ 2; 0; 1; 0; 0 ])
    "degrees summing to n_edges = 1";
  (* A huge node count must be rejected against the bytes remaining, not
     allocated. *)
  match Codec.decode (input ~dict:[] ~csr:[ 1 lsl 40; 0 ]) with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "oversized node count accepted"

(* Edge cases the crash-recovery work leans on: the one-node empty
   graph, a node of maximal arity, and labels containing NUL bytes,
   newlines and multi-byte UTF-8 — all must round-trip exactly, whole
   and as the store's two segments. *)
let edge_case_roundtrips () =
  exact_roundtrip "empty graph" Graph.empty;
  (* one source fanning out to thousands of children *)
  let b = Graph.Builder.create () in
  let r = Graph.Builder.add_node b in
  Graph.Builder.set_root b r;
  for i = 0 to 4999 do
    let v = Graph.Builder.add_node b in
    Graph.Builder.add_edge b r (Ssd.Label.int i) v
  done;
  exact_roundtrip "maximum-arity node" (Graph.Builder.finish b);
  let nasty =
    [
      "with\000nul";
      "new\nline";
      "tab\there";
      "caf\xc3\xa9 \xe2\x9c\x93";
      (* café ✓ *)
      "";
      String.make 300 '\xff';
    ]
  in
  let b = Graph.Builder.create () in
  let r = Graph.Builder.add_node b in
  Graph.Builder.set_root b r;
  List.iter
    (fun s ->
      let v = Graph.Builder.add_node b in
      Graph.Builder.add_edge b r (Ssd.Label.sym s) v;
      let w = Graph.Builder.add_node b in
      Graph.Builder.add_edge b v (Ssd.Label.str s) w)
    nasty;
  exact_roundtrip "NUL/newline/UTF-8 labels" (Graph.Builder.finish b)

let string_table_shares () =
  (* many occurrences of one symbol must be cheaper than distinct ones *)
  let mk labels =
    let b = Graph.Builder.create () in
    let r = Graph.Builder.add_node b in
    Graph.Builder.set_root b r;
    List.iter
      (fun l ->
        let v = Graph.Builder.add_node b in
        Graph.Builder.add_edge b r (Ssd.Label.sym l) v)
      labels;
    Graph.Builder.finish b
  in
  let repeated = mk (List.init 50 (fun _ -> "longish_symbol_name")) in
  let distinct = mk (List.init 50 (fun i -> Printf.sprintf "longish_symbol_%03d" i)) in
  check "shared strings compress" true
    (Codec.encoded_size repeated * 2 < Codec.encoded_size distinct)

let paging_basics () =
  let g = Ssd_workload.Movies.generate ~n_entries:50 () in
  let t = Pager.layout Pager.Bfs ~page_capacity:16 g in
  check_int "pages cover all nodes"
    ((Graph.n_nodes g + 15) / 16)
    (Pager.n_pages t);
  let ok = ref true in
  for u = 0 to Graph.n_nodes g - 1 do
    if Pager.page_of t u < 0 || Pager.page_of t u >= Pager.n_pages t then ok := false
  done;
  check "page ids in range" true !ok

let lru_behaviour () =
  let g = Ssd_workload.Movies.generate ~n_entries:20 () in
  let t = Pager.layout Pager.Insertion ~page_capacity:4 g in
  (* same page twice in a row: second access hits *)
  let s = Pager.replay t ~buffer_pages:2 [ 0; 0; 0 ] in
  check_int "one fault for repeated page" 1 s.Pager.faults;
  (* sequence touching more pages than the buffer: all faults *)
  let nodes = List.init (Graph.n_nodes g) Fun.id in
  let cold = Pager.replay t ~buffer_pages:1 (nodes @ nodes) in
  check "thrashing with tiny buffer" true (cold.Pager.faults > Pager.n_pages t)

let clustering_matters () =
  (* depth-first walks should fault less under DFS clustering than under
     scattered placement *)
  let g = Ssd_workload.Biodb.generate ~n_taxa:800 () in
  let walks = Pager.random_walks ~seed:1 ~n_walks:200 ~depth:12 g in
  let faults c =
    (Pager.replay (Pager.layout c ~page_capacity:32 g) ~buffer_pages:4 walks).Pager.faults
  in
  check "dfs beats scatter on path workloads" true (faults Pager.Dfs < faults (Pager.Scatter 7))

let properties =
  [
    qtest "encode/decode round-trip" graph (fun g ->
        let data = Codec.encode g in
        let g' = Codec.decode data in
        Graph.n_nodes g = Graph.n_nodes g'
        && Graph.n_edges g = Graph.n_edges g'
        && Ssd.Bisim.equal g g'
        && Bytes.equal data (Codec.encode g'));
    qtest "encoded size monotone-ish in edges" graph (fun g ->
        Codec.encoded_size g >= Graph.n_nodes g);
    qtest "replay faults bounded" (Q.pair graph (Q.int_range 1 4)) (fun (g, buffer) ->
        let t = Pager.layout Pager.Bfs ~page_capacity:4 g in
        let walks = Pager.random_walks ~seed:3 ~n_walks:20 ~depth:6 g in
        let s = Pager.replay t ~buffer_pages:buffer walks in
        s.Pager.faults <= s.Pager.accesses
        && s.Pager.faults >= 1
        && s.Pager.accesses = List.length walks);
    qtest "fuzzed decode round-trips or raises Corrupt" ~count:400 corrupted_encoding
      (fun data ->
        (* Any exception other than Codec.Corrupt escapes and fails the
           property — that is the point. *)
        match Codec.decode data with
        | _ -> true
        | exception Codec.Corrupt _ -> true);
    qtest "layouts are permutations" graph (fun g ->
        List.for_all
          (fun c ->
            let t = Pager.layout c ~page_capacity:3 g in
            let count = Array.make (Pager.n_pages t) 0 in
            for u = 0 to Graph.n_nodes g - 1 do
              count.(Pager.page_of t u) <- count.(Pager.page_of t u) + 1
            done;
            Array.for_all (fun c -> c <= 3) count)
          [ Pager.Insertion; Pager.Bfs; Pager.Dfs; Pager.Scatter 5 ]);
  ]

let tests =
  [
    Alcotest.test_case "codec round-trip figure1" `Quick roundtrip_fig1;
    Alcotest.test_case "file round-trip" `Quick file_roundtrip;
    Alcotest.test_case "corrupt input rejected" `Quick corrupt_input_rejected;
    Alcotest.test_case "corrupt diagnostics" `Quick corrupt_diagnostics;
    Alcotest.test_case "pager rejects nonpositive capacities" `Quick (fun () ->
        let g = Ssd_workload.Movies.figure1 () in
        let is_ssd542 f =
          match f () with
          | exception Ssd_diag.Fail d -> d.Ssd_diag.code = "SSD542"
          | _ -> false
        in
        check "layout capacity" true
          (is_ssd542 (fun () -> Pager.layout Pager.Bfs ~page_capacity:0 g));
        check "replay buffer" true
          (is_ssd542 (fun () ->
               Pager.replay (Pager.layout Pager.Bfs ~page_capacity:4 g) ~buffer_pages:(-1) [ 0 ])));
    Alcotest.test_case "edge-case round-trips" `Quick edge_case_roundtrips;
    Alcotest.test_case "string table shares" `Quick string_table_shares;
    Alcotest.test_case "paging basics" `Quick paging_basics;
    Alcotest.test_case "LRU behaviour" `Quick lru_behaviour;
    Alcotest.test_case "clustering matters" `Quick clustering_matters;
  ]
  @ properties
