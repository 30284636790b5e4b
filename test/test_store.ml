(* The persistent store: superblock and page frames, WAL scan,
   cold-open byte-identity, recovery after an unclean stop or a failed
   commit, the format version, and the stable fsck codes.  The graph
   codec behind the dict/graph segments is tested in [test_storage];
   the seeded crash schedules live in the separate [crash_fuzz]
   executable.  These are the deterministic unit cases. *)

module Graph = Ssd.Graph
module Label = Ssd.Label
module B = Ssd_storage.Bytesio
module Codec = Ssd_storage.Codec
module Disk = Ssd_fault.Disk
module Vfs = Ssd_store.Vfs
module Page = Ssd_store.Page
module Wal = Ssd_store.Wal
module Store = Ssd_store.Store
module Metrics = Ssd_obs.Metrics

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let fig1 () = Ssd_workload.Movies.figure1 ()
let movies n = Ssd_workload.Movies.generate ~seed:7 ~n_entries:n ()

(* ------------------------------------------------------------------ *)
(* Formats                                                             *)
(* ------------------------------------------------------------------ *)

(* The dict and graph segment bytes of a fixed graph, pinned through
   their fingerprint: a codec change that moved any byte of either
   segment would break every existing store and every recorded
   fingerprint. *)
let golden_fingerprint () =
  check_int "Movies(seed 7, 200 entries)" 2448826362 (Store.fingerprint_graph (movies 200))

(* The dict and graph segments as the store writes them: each decodes
   on its own, node identities survive, and re-encoding the decode is
   byte-identical. *)
let seg_roundtrip () =
  let g = fig1 () in
  let dict_b, graph_b = Codec.encode_parts g in
  let dict = Codec.decode_dict dict_b in
  check "dict is the strings in ascending order" true
    (Array.to_list dict = List.sort_uniq compare (Array.to_list dict));
  let g' = Codec.decode_csr ~dict graph_b in
  check_int "nodes" (Graph.n_nodes g) (Graph.n_nodes g');
  check_int "edges" (Graph.n_edges g) (Graph.n_edges g');
  check_int "root" (Graph.root g) (Graph.root g');
  check "same value" true (Ssd.Bisim.equal g g');
  (* Canonical: re-encoding the decode is byte-identical. *)
  let dict_b', graph_b' = Codec.encode_parts g' in
  check "canonical dict bytes" true (Bytes.equal dict_b dict_b');
  check "canonical graph bytes" true (Bytes.equal graph_b graph_b')

let superblock_roundtrip () =
  let sb =
    {
      Page.clean = false;
      next_lsn = 42;
      n_pages = 17;
      path_depth = 5;
      segs =
        [
          { Page.name = "dict"; first_page = 1; byte_len = 100; crc = 0xDEAD };
          { Page.name = "graph"; first_page = 2; byte_len = 999; crc = 0xBEEF };
        ];
    }
  in
  check "superblock round-trip" true (Page.decode_superblock (Page.encode_superblock sb) = sb)

let page_frame () =
  let page_size = 256 in
  let payload = Bytes.of_string "some page payload" in
  let framed = Page.frame ~page_size ~lsn:9 payload in
  check_int "framed to page size" page_size (Bytes.length framed);
  let lsn, payload' = Page.unframe ~page_size framed in
  check_int "lsn survives" 9 lsn;
  check "payload survives" true (Bytes.equal payload payload');
  (* Any flipped bit must be caught by the CRC. *)
  let stomped = Bytes.copy framed in
  Bytes.set stomped 40 (Char.chr (Char.code (Bytes.get stomped 40) lxor 1));
  (match Page.unframe ~page_size stomped with
  | exception B.Corrupt _ -> ()
  | _ -> Alcotest.fail "flipped bit accepted");
  match Page.unframe ~page_size (Bytes.make page_size '\000') with
  | exception B.Corrupt _ -> ()
  | _ -> Alcotest.fail "zero page accepted"

let wal_scan () =
  let sb_page b = Bytes.of_string ("sb" ^ b) in
  let buf = Buffer.create 256 in
  Buffer.add_bytes buf (Wal.encode_header ());
  (* txn 1: two pages + commit; txn 2: one page + commit. *)
  Buffer.add_bytes buf (Wal.encode_frame ~typ:Wal.t_page ~lsn:1 ~arg:3 (Bytes.of_string "p3"));
  Buffer.add_bytes buf (Wal.encode_frame ~typ:Wal.t_page ~lsn:1 ~arg:5 (Bytes.of_string "p5"));
  Buffer.add_bytes buf (Wal.encode_frame ~typ:Wal.t_commit ~lsn:1 ~arg:0 (sb_page "1"));
  Buffer.add_bytes buf (Wal.encode_frame ~typ:Wal.t_page ~lsn:2 ~arg:3 (Bytes.of_string "p3'"));
  Buffer.add_bytes buf (Wal.encode_frame ~typ:Wal.t_commit ~lsn:2 ~arg:0 (sb_page "2"));
  (* an in-flight txn 3 whose commit frame is torn off mid-way; its page
     frame is valid, so it still counts as scanned *)
  let in_flight = Wal.encode_frame ~typ:Wal.t_page ~lsn:3 ~arg:8 (Bytes.of_string "p8") in
  let scanned = Buffer.length buf - Wal.header_size + Bytes.length in_flight in
  Buffer.add_bytes buf in_flight;
  let torn = Wal.encode_frame ~typ:Wal.t_commit ~lsn:3 ~arg:0 (sb_page "3") in
  Buffer.add_bytes buf (Bytes.sub torn 0 (Bytes.length torn - 5));
  let scan = Wal.scan (Buffer.to_bytes buf) in
  check_int "two committed txns" 2 (List.length scan.Wal.txns);
  check_int "valid frames scanned" scanned scan.Wal.scanned_bytes;
  check "tail discarded" true (scan.Wal.torn_bytes > 0);
  check_int "in-flight pages dropped" 1 scan.Wal.in_flight;
  let t1 = List.hd scan.Wal.txns and t2 = List.nth scan.Wal.txns 1 in
  check_int "txn order" 1 t1.Wal.txn_lsn;
  check "txn pages" true
    (List.map fst t1.Wal.pages = [ 3; 5 ] && List.map fst t2.Wal.pages = [ 3 ]);
  check "commit carries the superblock" true (Bytes.equal t2.Wal.sb_page (sb_page "2"))

(* ------------------------------------------------------------------ *)
(* Store lifecycle (fault-free, in-memory VFS)                         *)
(* ------------------------------------------------------------------ *)

let new_mem () = Vfs.mem_create Disk.none

let cold_open () =
  let g = movies 20 in
  let _mem, vfs = new_mem () in
  let st = Store.create ~page_size:512 vfs g in
  let fp = Store.fingerprint st in
  check_int "create fingerprint matches the oracle" (Store.fingerprint_graph g) fp;
  Store.close st;
  let st = Store.open_ vfs in
  check "clean open skips recovery" true (Store.recovery st).Store.was_clean;
  check_int "fingerprint survives" fp (Store.fingerprint st);
  check "graph survives" true (Ssd.Bisim.equal g (Store.graph st));
  (* Indexes come off the checkpointed segments, not a rebuild. *)
  let builds = Metrics.counter "index.value.builds" in
  let before = Metrics.value builds in
  let ix = Store.value_index st in
  check_int "cold open rebuilds nothing" before (Metrics.value builds);
  check "index answers" true
    (Ssd_index.Value_index.find_nodes ix (Label.sym "movie") <> []);
  (* Every checkpointed index segment is byte-identical to a fresh
     canonical build on the same graph. *)
  let oracle = function
    | "value" -> Ssd_index.Value_index.(to_bytes (build g))
    | "text" -> Ssd_index.Text_index.(to_bytes (build g))
    | "path" -> Ssd_index.Path_index.(to_bytes (build ~depth:3 g))
    | "guide" -> Ssd_schema.Dataguide.(to_bytes (build g))
    | _ -> assert false
  in
  List.iter
    (fun name ->
      check (name ^ " segment canonical") true
        (Bytes.equal (Store.index_segment_bytes st name) (oracle name)))
    (Store.indexes st);
  Store.close st

let commit_visibility () =
  let g1 = movies 5 and g2 = movies 9 in
  let _mem, vfs = new_mem () in
  let st = Store.create ~page_size:512 vfs g1 in
  Store.commit st g2;
  check "commit replaces the graph" true (Ssd.Bisim.equal g2 (Store.graph st));
  check_int "fingerprint tracks the commit" (Store.fingerprint_graph g2) (Store.fingerprint st);
  Store.close st;
  let st = Store.open_ vfs in
  check "committed version survives close/open" true (Ssd.Bisim.equal g2 (Store.graph st));
  Store.close st

let kill9_recovery () =
  let g1 = movies 5 and g2 = movies 9 in
  let mem, vfs = new_mem () in
  let st = Store.create ~page_size:512 vfs g1 in
  Store.commit st g2;
  (* kill -9: no close, no checkpoint — reopen from the surviving bytes *)
  let images = Vfs.crash_images mem in
  let _mem2, vfs2 = Vfs.mem_create ~images Disk.none in
  let st2 = Store.open_ vfs2 in
  let r = Store.recovery st2 in
  check "unclean stop needs recovery" true (not r.Store.was_clean);
  check "replays the committed txns" true (r.Store.recovered_txns >= 1);
  check_int "acked commit survives kill -9" (Store.fingerprint_graph g2) (Store.fingerprint st2);
  (* Recovery is idempotent: a second open from the same images agrees. *)
  let _mem3, vfs3 = Vfs.mem_create ~images:(Vfs.crash_images mem) Disk.none in
  let st3 = Store.open_ vfs3 in
  check_int "recovery is deterministic" (Store.fingerprint st2) (Store.fingerprint st3);
  Store.close st2;
  check "close after recovery goes clean" true
    (Store.recovery (Store.open_ vfs2)).Store.was_clean

(* A failed commit — one WAL pwrite or fsync raising an I/O error —
   poisons the store: further commits and checkpoints refuse with
   SSD566, and a reopen without close recovers the last acknowledged
   version with nothing left for fsck to report.  A store that kept
   committing would reuse the failed commit's LSN, and recovery would
   merge the orphaned frames into the next transaction. *)
exception Injected_eio

(* The WAL's [k]th pwrite (fsync) after [arm ()] raises, once; [max_int]
   never fires. *)
let failing_wal vfs ~pwrite_countdown ~fsync_countdown =
  let pw = ref max_int and fs = ref max_int in
  let fire r =
    if !r = 0 then begin
      r := max_int;
      true
    end
    else begin
      if !r <> max_int then decr r;
      false
    end
  in
  let open_file name =
    let f = vfs.Vfs.open_file name in
    if name <> "wal" then f
    else
      {
        f with
        Vfs.pwrite =
          (fun b ~pos ~off ~len ->
            if fire pw then raise Injected_eio else f.Vfs.pwrite b ~pos ~off ~len);
        fsync = (fun () -> if fire fs then raise Injected_eio else f.Vfs.fsync ());
      }
  in
  let arm () =
    pw := pwrite_countdown;
    fs := fsync_countdown
  in
  ({ vfs with Vfs.open_file }, arm)

let poisoned_gauge () = Metrics.gauge_value (Metrics.gauge "store.poisoned")

let expect_ssd566 what f =
  match f () with
  | exception Ssd_diag.Fail d -> Alcotest.(check string) what "SSD566" d.Ssd_diag.code
  | () -> Alcotest.fail (what ^ ": accepted on a poisoned store")

let failed_commit_poisons ~pwrite_countdown ~fsync_countdown () =
  let mem, vfs = new_mem () in
  let vfs, arm = failing_wal vfs ~pwrite_countdown ~fsync_countdown in
  let st = Store.create ~page_size:512 vfs (movies 5) in
  Store.commit st (movies 7);
  let acked = Store.fingerprint_graph (movies 7) in
  arm ();
  (match Store.commit st (movies 9) with
  | exception Injected_eio -> ()
  | () -> Alcotest.fail "the injected I/O error did not surface");
  check "poisoned gauge" true (poisoned_gauge () = 1.);
  check_int "memory keeps the acked version" acked (Store.fingerprint st);
  expect_ssd566 "commit after a failed commit" (fun () -> Store.commit st (movies 9));
  expect_ssd566 "re-commit of the acked graph" (fun () -> Store.commit st (movies 7));
  expect_ssd566 "checkpoint" (fun () -> Store.checkpoint st);
  (* kill -9: reopen the same files without closing. *)
  let st2 = Store.open_ vfs in
  check "reopen clears the gauge" true (poisoned_gauge () = 0.);
  check_int "recovers the last acked version" acked (Store.fingerprint st2);
  let fresh = Store.create (snd (new_mem ())) (movies 7) in
  List.iter
    (fun name ->
      check (name ^ " segment matches a fresh build") true
        (Bytes.equal (Store.index_segment_bytes st2 name) (Store.index_segment_bytes fresh name)))
    (Store.indexes st2);
  Store.commit st2 (movies 9);
  Store.close st2;
  check "fsck finds nothing" true (Store.fsck vfs = []);
  (* Closing the poisoned handle writes nothing. *)
  let ops = Vfs.ops mem in
  Store.close st;
  check_int "poisoned close does no I/O" ops (Vfs.ops mem);
  let st3 = Store.open_ vfs in
  check_int "the post-recovery commit stands" (Store.fingerprint_graph (movies 9))
    (Store.fingerprint st3);
  Store.close st3

(* A checkpoint whose WAL truncate lands but whose fsync raises leaves
   the in-memory log position past the file's end.  The store must be
   poisoned: a commit written there would sit behind a run of zero bytes
   that the WAL scan stops at, so it would be acknowledged and then lost
   on recovery. *)
let failed_checkpoint_poisons () =
  let _mem, vfs = new_mem () in
  let vfs, arm = failing_wal vfs ~pwrite_countdown:max_int ~fsync_countdown:0 in
  let st = Store.create ~page_size:512 vfs (movies 5) in
  Store.commit st (movies 7);
  arm ();
  (match Store.checkpoint st with
  | exception Injected_eio -> ()
  | () -> Alcotest.fail "the injected fsync error did not surface");
  expect_ssd566 "commit after a failed checkpoint" (fun () -> Store.commit st (movies 9));
  (* kill -9: reopen the same files without closing. *)
  let st2 = Store.open_ vfs in
  check_int "recovers the last acked version" (Store.fingerprint_graph (movies 7))
    (Store.fingerprint st2);
  Store.close st2;
  check "fsck finds nothing" true (Store.fsck vfs = [])

(* [close] still releases both files when its checkpoint fails, and a
   second [close] does nothing. *)
let failed_close_releases () =
  let _mem, vfs = new_mem () in
  let vfs, arm = failing_wal vfs ~pwrite_countdown:max_int ~fsync_countdown:1 in
  let closes = ref 0 in
  let counting =
    {
      vfs with
      Vfs.open_file =
        (fun name ->
          let f = vfs.Vfs.open_file name in
          { f with Vfs.close = (fun () -> incr closes; f.Vfs.close ()) });
    }
  in
  let st = Store.create ~page_size:512 counting (movies 5) in
  Store.commit st (movies 7);
  closes := 0;
  (* The clean-flag mini-commit fsyncs the WAL once; the checkpoint's
     WAL fsync is the second. *)
  arm ();
  (match Store.close st with
  | exception Injected_eio -> ()
  | () -> Alcotest.fail "the injected fsync error did not surface");
  check_int "both files released" 2 !closes;
  Store.close st;
  check_int "a second close does nothing" 2 !closes;
  let st2 = Store.open_ vfs in
  check_int "recovers the last acked version" (Store.fingerprint_graph (movies 7))
    (Store.fingerprint st2);
  Store.close st2

let compact_preserves () =
  let g1 = movies 12 and g2 = movies 4 in
  let _mem, vfs = new_mem () in
  let st = Store.create ~page_size:512 vfs g1 in
  Store.commit st g2;
  let fp = Store.fingerprint st in
  let wal_before = Store.wal_size st in
  check "commits grow the wal" true (wal_before > 0);
  Store.compact st;
  check_int "compact preserves content" fp (Store.fingerprint st);
  check_int "compact empties the wal" 0 (Store.wal_size st);
  check "shrinking commit reclaims pages" true (Store.n_pages st > 0);
  Store.close st;
  let st = Store.open_ vfs in
  check_int "compacted store reopens identical" fp (Store.fingerprint st);
  Store.close st

(* ------------------------------------------------------------------ *)
(* fsck: the stable SSD56x codes                                       *)
(* ------------------------------------------------------------------ *)

let images_of_clean_store () =
  let mem, vfs = new_mem () in
  let st = Store.create ~page_size:256 vfs (movies 6) in
  Store.commit st (movies 8);
  Store.close st;
  Vfs.crash_images mem

let fsck_with images = Store.fsck (snd (Vfs.mem_create ~images Disk.none))
let has_code c diags = List.exists (fun d -> d.Ssd_diag.code = c) diags

let mutate images name f =
  List.map (fun (n, b) -> if n = name then (n, f (Bytes.copy b)) else (n, b)) images

let fsck_codes () =
  let images = images_of_clean_store () in
  check "clean store fscks clean" true (fsck_with images = []);
  (* SSD560: bad magic *)
  let bad_magic =
    mutate images "data" (fun b ->
        Bytes.blit_string "XXXX" 0 b 0 4;
        b)
  in
  check "SSD560 bad magic" true (has_code "SSD560" (fsck_with bad_magic));
  (* SSD561: a stomped byte inside page 1's frame *)
  let stomped =
    mutate images "data" (fun b ->
        let off = Page.page_offset ~page_size:256 1 + 37 in
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x10));
        b)
  in
  check "SSD561 crc mismatch" true (has_code "SSD561" (fsck_with stomped));
  (* SSD562: a torn frame left on the wal tail *)
  let torn =
    mutate images "wal" (fun b ->
        let junk = Wal.encode_frame ~typ:Wal.t_page ~lsn:99 ~arg:1 (Bytes.of_string "x") in
        Bytes.cat b (Bytes.sub junk 0 (Bytes.length junk - 3)))
  in
  check "SSD562 torn wal tail" true (has_code "SSD562" (fsck_with torn));
  (* SSD563: the directory points past the end of a truncated file *)
  let truncated = mutate images "data" (fun b -> Bytes.sub b 0 (Bytes.length b - 300)) in
  check "SSD563 dangling pages" true (has_code "SSD563" (fsck_with truncated));
  (* SSD565: store left open (kill -9), recovery pending *)
  let mem, vfs = new_mem () in
  let st = Store.create ~page_size:256 vfs (movies 6) in
  Store.commit st (movies 8);
  let unclean = Vfs.crash_images mem in
  check "SSD565 recovery pending" true (has_code "SSD565" (fsck_with unclean));
  check "fsck is read-only on pending recovery" true
    (Store.fingerprint_graph (movies 8)
    = Store.fingerprint (Store.open_ (snd (Vfs.mem_create ~images:unclean Disk.none))))

(* Format version 1 (the SSD1 graph codec inside the guide segment) is
   not readable: open and fsck both say SSD560. *)
let old_version_rejected () =
  let images = images_of_clean_store () in
  let v1 =
    mutate images "data" (fun b ->
        Bytes.set b 4 '\001';
        b)
  in
  check "fsck: SSD560" true (has_code "SSD560" (fsck_with v1));
  match Store.open_ (snd (Vfs.mem_create ~images:v1 Disk.none)) with
  | exception Ssd_diag.Fail d -> Alcotest.(check string) "open: SSD560" "SSD560" d.Ssd_diag.code
  | _ -> Alcotest.fail "a version-1 store opened"

let tests =
  [
    Alcotest.test_case "segment codec round-trip" `Quick seg_roundtrip;
    Alcotest.test_case "golden dict/graph fingerprint" `Quick golden_fingerprint;
    Alcotest.test_case "superblock round-trip" `Quick superblock_roundtrip;
    Alcotest.test_case "page frame CRC" `Quick page_frame;
    Alcotest.test_case "wal scan and torn tail" `Quick wal_scan;
    Alcotest.test_case "cold open is byte-identical" `Quick cold_open;
    Alcotest.test_case "commit visibility" `Quick commit_visibility;
    Alcotest.test_case "kill -9 recovery" `Quick kill9_recovery;
    Alcotest.test_case "compact preserves content" `Quick compact_preserves;
    Alcotest.test_case "fsck stable codes" `Quick fsck_codes;
    Alcotest.test_case "format version 1 rejected" `Quick old_version_rejected;
    Alcotest.test_case "failed WAL pwrite poisons" `Quick
      (failed_commit_poisons ~pwrite_countdown:1 ~fsync_countdown:max_int);
    Alcotest.test_case "failed WAL fsync poisons" `Quick
      (failed_commit_poisons ~pwrite_countdown:max_int ~fsync_countdown:0);
    Alcotest.test_case "failed checkpoint poisons" `Quick failed_checkpoint_poisons;
    Alcotest.test_case "failed close releases its files" `Quick failed_close_releases;
  ]
