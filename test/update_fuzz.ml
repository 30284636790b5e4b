(* Differential update fuzzer for the incremental-maintenance plane.

   Every seed replays one deterministic schedule of protocol ops against
   an engine over a persistent store: UPDATEs (monotone inserts, grafts,
   deletes, renames), QUERYs (with immediate repeats so the revalidated
   result cache is hit), SUBSCRIBEs/UNSUBSCRIBEs (unql and datalog), and
   — on odd seeds — a kill -9 at a seeded I/O op followed by recovery.

   The oracle is a shadow interpreter with no incremental machinery at
   all: the same Lorel updates applied to a plain graph, every query
   re-evaluated from scratch.  Invariants, checked after every single
   response:

   - a QUERY answer is byte-identical to scratch evaluation on the
     current committed graph — an acked UPDATE is never invisible and a
     stale cache entry is never served;
   - after every acked UPDATE, every live unql subscription's
     last-delivered body equals scratch evaluation on the new graph
     (changed result => a delta frame was pushed; unchanged => silence
     is correct), with densely increasing sequence numbers;
   - a datalog subscription's last-delivered body equals the initial
     body of a freshly registered identical subscription (the fresh one
     re-derives from scratch, the old one advanced semi-naively);
   - after a crash, the recovered store is a committed version no older
     than the last acked UPDATE, its index segments are byte-identical
     to a cold rebuild from the recovered graph, and the schedule's
     remaining ops keep all of the above on the recovered state;
   - a clean close/reopen at the end preserves the fingerprint and the
     cold-rebuild identity of every index segment.

   Replay one failure:  update_fuzz --seed S  *)

module Disk = Ssd_fault.Disk
module Vfs = Ssd_store.Vfs
module Store = Ssd_store.Store
module Engine = Ssd_serve.Engine
module Proto = Ssd_serve.Proto
module Graph = Ssd.Graph

let page_size = 512
let n_ops = 20
let max_subs = 6
let fail fmt = Printf.ksprintf failwith fmt

(* SplitMix64 stream seeded by the fuzzer seed: the only randomness. *)
type rng = { mutable s : int64 }

let rng_make seed = { s = Int64.of_int ((seed * 2) + 1) }

let rand r n =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.to_int (Int64.logxor z (Int64.shift_right_logical z 31)) land max_int mod n

(* ------------------------------------------------------------------ *)
(* The query and update pools                                          *)
(* ------------------------------------------------------------------ *)

(* Mixed footprints on purpose: finite ones exercise the disjointness
   skip and cache revalidation, top ones always re-evaluate. *)
let queries =
  [|
    "select {t: \\T} where {entry.movie.title: \\T} <- DB";
    "select {hit: {}} where {entry.movie.title: _} <- DB";
    "select {z: {}} where {annex.zzz: _} <- DB";
    "select {d: \\D} where {entry.movie.director: \\D} <- DB";
    "select {kind: \\k} where {entry.\\k: _} <- DB";
  |]

let datalog_prog = "reach(?X) :- root(?X). reach(?Y) :- reach(?X), edge(?X, ?L, ?Y)."

(* [k] makes inserted values unique across the schedule. *)
let update_text rng k =
  match rand rng 8 with
  | 0 | 1 ->
    Printf.sprintf "insert DB := {entry: {movie: {title: \"Fuzz%d\", director: \"Dir%d\"}}}" k k
  | 2 -> Printf.sprintf "insert DB := {annex: {zzz: {m: \"Z%d\"}}}" k
  | 3 -> Printf.sprintf "insert DB.entry := {movie: {title: \"Graft%d\"}}" k
  | 4 -> "delete DB.annex"
  | 5 -> "delete DB.entry.movie"
  | 6 -> "rename DB.entry.movie to film"
  | _ -> "rename DB.entry.film to movie"

let render_unql db q = Graph.to_string (Unql.Eval.eval ~db (Unql.Parser.parse q)) ^ "\n"

(* ------------------------------------------------------------------ *)
(* One engine session over a store                                     *)
(* ------------------------------------------------------------------ *)

type sub = {
  sub_id : int;
  sub_q : string; (* query text, or the datalog program *)
  sub_datalog : bool;
  mutable sub_seq : int;
  mutable sub_last : string; (* last delivered body *)
}

type session = {
  engine : Engine.t;
  pushes : string Queue.t;
  mutable subs : sub list;
}

let make_session st =
  let es = Engine.store ~db:(Store.graph st) () in
  Engine.set_persist es (fun g delta -> Store.commit ~delta st g);
  { engine = Engine.create es; pushes = Queue.create (); subs = [] }

let handle s line =
  let r, _ = Engine.handle ~push:(fun f -> Queue.add f s.pushes) ~conn_id:1 s.engine line in
  r

let req verb body = Proto.render_request { Proto.verb; opts = Proto.default_options; body }

let req_datalog body =
  Proto.render_request
    { Proto.verb = Proto.Subscribe;
      opts = { Proto.default_options with Proto.lang = "datalog" };
      body }

(* Fresh-registration oracle: what a brand-new identical subscription
   would deliver right now (scratch derivation inside the engine). *)
let fresh_initial s ~datalog q =
  let r = handle s (if datalog then req_datalog q else req Proto.Subscribe q) in
  if r.Proto.status <> Proto.Complete then
    fail "oracle subscribe failed: %s %s" r.Proto.detail r.Proto.body;
  let r' = handle s (req Proto.Unsubscribe r.Proto.detail) in
  if r'.Proto.status <> Proto.Complete then fail "oracle unsubscribe failed";
  r.Proto.body

(* Drain pushed frames into the subscription records. *)
let drain s =
  let n = ref 0 in
  while not (Queue.is_empty s.pushes) do
    incr n;
    let raw = Queue.pop s.pushes in
    match Proto.parse_response raw 0 with
    | Error _ -> fail "unparsable pushed frame"
    | Ok (r, _) ->
      if r.Proto.status <> Proto.Delta then fail "pushed frame is not a delta";
      let id, seq =
        match String.split_on_char '.' r.Proto.detail with
        | [ id; seq ] -> (int_of_string id, int_of_string seq)
        | _ -> fail "bad delta detail %S" r.Proto.detail
      in
      (match List.find_opt (fun x -> x.sub_id = id) s.subs with
      | None -> fail "delta for unknown subscription %d" id
      | Some x ->
        if seq <> x.sub_seq + 1 then
          fail "subscription %d: push seq %d after %d" id seq x.sub_seq;
        x.sub_seq <- seq;
        x.sub_last <- r.Proto.body)
  done;
  !n

(* After an acked update: no subscription may be left stale. *)
let check_subs s shadow =
  let pushed = drain s in
  if pushed > List.length s.subs then fail "more pushes than live subscriptions";
  List.iter
    (fun x ->
      let expect =
        if x.sub_datalog then fresh_initial s ~datalog:true x.sub_q
        else render_unql shadow x.sub_q
      in
      if not (String.equal x.sub_last expect) then
        fail "stale subscription %d (%s): served body differs from scratch result" x.sub_id
          (if x.sub_datalog then "datalog" else x.sub_q))
    s.subs

let check_query s shadow q =
  let r = handle s (req Proto.Query q) in
  if r.Proto.status <> Proto.Complete then
    fail "query error: %s %s" r.Proto.detail r.Proto.body;
  if not (String.equal r.Proto.body (render_unql shadow q)) then
    fail "stale query answer for %s" q

let cold_segment st g name =
  match name with
  | "value" -> Ssd_index.Value_index.to_bytes (Ssd_index.Value_index.build g)
  | "text" -> Ssd_index.Text_index.to_bytes (Ssd_index.Text_index.build g)
  | "path" ->
    Ssd_index.Path_index.to_bytes
      (Ssd_index.Path_index.build ~depth:(Store.path_depth st) g)
  | "guide" -> Ssd_schema.Dataguide.to_bytes (Ssd_schema.Dataguide.build g)
  | other -> fail "unknown index segment %S" other

let check_segments what st =
  let g = Store.graph st in
  List.iter
    (fun name ->
      if not (Bytes.equal (Store.index_segment_bytes st name) (cold_segment st g name)) then
        fail "%s: index segment %S differs from a cold rebuild" what name)
    (Store.indexes st)

(* ------------------------------------------------------------------ *)
(* One seed                                                            *)
(* ------------------------------------------------------------------ *)

exception Crashed of int (* op index of the update that hit the crash *)

(* Run the op schedule for [seed] against session [s], mirroring every
   acked update into [shadow] and appending every attempted version to
   [chain].  Raises [Crashed] out of the op that hit the planned crash
   point. *)
let run_schedule seed ~from_op s shadow chain acked =
  let rng = rng_make seed in
  (* Burn a fixed slice of the stream per skipped op, so a post-crash
     resume at [from_op] is deterministic in the seed. *)
  for k = 0 to from_op - 1 do
    ignore (rand rng 100);
    ignore (update_text rng k)
  done;
  for k = from_op to n_ops - 1 do
    let pick = rand rng 100 in
    let utext = update_text rng k in
    if pick < 35 then begin
      let q = queries.(rand rng (Array.length queries)) in
      check_query s !shadow q;
      (* immediate repeat: the second answer comes from the cache *)
      if rand rng 2 = 0 then check_query s !shadow q
    end
    else if pick < 70 then begin
      match Lorel.Update.run ~db:!shadow utext with
      | exception _ -> () (* statement invalid against this graph: skip *)
      | shadow' ->
        chain := shadow' :: !chain;
        let r = handle s (req Proto.Update utext) in
        (match r.Proto.status with
        | Proto.Error -> raise (Crashed k)
        | Proto.Complete ->
          acked := List.length !chain - 1;
          shadow := shadow';
          let head =
            Printf.sprintf "updated: %d nodes, %d edges;" (Graph.n_nodes shadow')
              (Graph.n_edges shadow')
          in
          if not (String.length r.Proto.body >= String.length head
                  && String.equal (String.sub r.Proto.body 0 (String.length head)) head)
          then fail "update response %S does not match the shadow graph shape" r.Proto.body;
          check_subs s shadow'
        | _ -> fail "unexpected update status")
    end
    else if pick < 85 && List.length s.subs < max_subs then begin
      let datalog = rand rng 5 = 0 in
      let q = if datalog then datalog_prog else queries.(rand rng (Array.length queries)) in
      let r = handle s (if datalog then req_datalog q else req Proto.Subscribe q) in
      if r.Proto.status <> Proto.Complete then fail "subscribe failed: %s" r.Proto.detail;
      if (not datalog) && not (String.equal r.Proto.body (render_unql !shadow q)) then
        fail "initial subscription result differs from scratch eval";
      s.subs <-
        {
          sub_id = int_of_string r.Proto.detail;
          sub_q = q;
          sub_datalog = datalog;
          sub_seq = 0;
          sub_last = r.Proto.body;
        }
        :: s.subs
    end
    else begin
      match s.subs with
      | [] -> check_query s !shadow queries.(0)
      | subs ->
        let x = List.nth subs (rand rng (List.length subs)) in
        let r = handle s (req Proto.Unsubscribe (string_of_int x.sub_id)) in
        if r.Proto.status <> Proto.Complete then fail "unsubscribe failed";
        s.subs <- List.filter (fun y -> y.sub_id <> x.sub_id) subs
    end
  done

(* Clean close / reopen: fingerprint preserved, segments still cold. *)
let close_and_check vfs st =
  let fp = Store.fingerprint st in
  Store.close st;
  let st2 = Store.open_ vfs in
  if not (Store.recovery st2).Store.was_clean then fail "reopen after clean close recovers";
  if Store.fingerprint st2 <> fp then fail "fingerprint changed across close/reopen";
  check_segments "clean reopen" st2;
  Store.close st2

let base_graph seed = Ssd_workload.Movies.generate ~seed:(7001 + seed) ~n_entries:3 ()

(* Fault-free differential pass; returns the op count of the schedule
   so the crash pass can place its kill -9 inside it. *)
let run_clean seed =
  let mem, vfs = Vfs.mem_create Disk.none in
  let st = Store.create ~page_size ~path_depth:2 vfs (base_graph seed) in
  let ops_create = Vfs.ops mem in
  let s = make_session st in
  let shadow = ref (Store.graph st) in
  let chain = ref [ !shadow ] and acked = ref 0 in
  (match run_schedule seed ~from_op:0 s shadow chain acked with
  | () -> ()
  | exception Crashed _ -> fail "fault-free pass crashed");
  check_segments "fault-free pass" st;
  close_and_check vfs st;
  (ops_create, Vfs.ops mem)

(* Crash pass: same schedule, a crash planned at op [c].  On the crash,
   recover from the surviving images and let the rest of the schedule
   run against the recovered store. *)
let run_crash seed ~crash_at =
  let plan = { Disk.none with Disk.seed; crash_at = Some crash_at } in
  let mem, vfs = Vfs.mem_create plan in
  let st = Store.create ~page_size ~path_depth:2 vfs (base_graph seed) in
  let s = make_session st in
  let shadow = ref (Store.graph st) in
  let chain = ref [ !shadow ] and acked = ref 0 in
  let recover_into ~resume_at =
    let acked_n = !acked in
    let images = Vfs.crash_images mem in
    let _mem2, vfs2 = Vfs.mem_create ~images Disk.none in
    let st2 = Store.open_ vfs2 in
    let fp = Store.fingerprint st2 in
    let versions = List.rev !chain in
    (* No-op updates leave byte-identical consecutive versions, so the
       same fingerprint can occur at several indexes; recovered content
       is the newest of them. *)
    let k =
      let best = ref (-1) in
      List.iteri (fun i g -> if Store.fingerprint_graph g = fp then best := i) versions;
      if !best < 0 then
        fail "recovered fingerprint matches no committed version (acked %d)" acked_n;
      !best
    in
    if k < acked_n then fail "acknowledged update lost: recovered version %d < acked %d" k acked_n;
    check_segments "post-recovery" st2;
    (* resume the remaining schedule on the recovered state *)
    let s2 = make_session st2 in
    let shadow2 = ref (Store.graph st2) in
    let chain2 = ref [ !shadow2 ] and acked2 = ref 0 in
    (match run_schedule seed ~from_op:resume_at s2 shadow2 chain2 acked2 with
    | () -> ()
    | exception Crashed _ -> fail "second crash without a plan");
    check_segments "post-recovery schedule" st2;
    close_and_check vfs2 st2
  in
  match run_schedule seed ~from_op:0 s shadow chain acked with
  | () -> (
    (* the schedule never reached the crash point; the final close or
       checkpoint may still hit it *)
    match close_and_check vfs st with
    | () -> ()
    | exception Vfs.Crash -> recover_into ~resume_at:n_ops)
  | exception Crashed k -> recover_into ~resume_at:(k + 1)

let run_one seed =
  let ops_create, ops_total = run_clean seed in
  if seed land 1 = 1 then begin
    let rng = rng_make (seed lxor 0x5bd1e) in
    let window = max 1 (ops_total - ops_create) in
    run_crash seed ~crash_at:(ops_create + 1 + rand rng window)
  end

(* ------------------------------------------------------------------ *)

let () =
  let seeds = ref 1000 and first = ref 0 and one = ref None in
  let rec parse = function
    | [] -> ()
    | "--seeds" :: n :: rest ->
      seeds := int_of_string n;
      parse rest
    | "--first" :: n :: rest ->
      first := int_of_string n;
      parse rest
    | "--seed" :: s :: rest ->
      one := Some (int_of_string s);
      parse rest
    | a :: _ -> fail "update_fuzz: unknown argument %S (try --seeds N | --first N | --seed S)" a
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run_checked seed =
    try
      run_one seed;
      true
    with e ->
      Printf.eprintf "update_fuzz: FAILED seed=%d: %s\n  replay with: update_fuzz --seed %d\n%!"
        seed (Printexc.to_string e) seed;
      false
  in
  match !one with
  | Some s ->
    Printexc.record_backtrace true;
    if run_checked s then print_endline "update_fuzz: seed passed" else exit 1
  | None ->
    let failures = ref 0 in
    for s = !first to !first + !seeds - 1 do
      if not (run_checked s) then incr failures
    done;
    Printf.printf "update_fuzz: %d seeds, %d failures (%d ops per schedule)\n%!" !seeds
      !failures n_ops;
    if !failures > 0 then exit 1
