(* End-to-end benchmark of `ssdql serve --store`.

   usage: perfbench --workload read-hot|read-cold|write-mix --seed N
                    --seconds S --trace 0|1 [--ssdql PATH]

   One client process and one thread drive the real server binary
   (--workers 2) over at most two Unix-socket connections, A and B, in
   a closed loop: each connection has at most one request outstanding,
   which is how the CLI, `ssdql subscribe` and dashboards use the
   server.  Every answer is checked against a reference computed
   in-process; --trace 1 additionally replays the run in-process with
   spans around each layer (see replay.ml).  The last line of stdout is
   the JSON result; README.md describes the workloads and metrics. *)

module Proto = Ssd_serve.Proto
module J = Ssd.Json

let now_ns = Ssd_obs.Clock.now_ns
let failf = Wire.failf

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let ( // ) = Filename.concat

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (p // e)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let copy_file src dst =
  let buf = Bytes.create (1 lsl 20) in
  In_channel.with_open_bin src (fun ic ->
      Out_channel.with_open_bin dst (fun oc ->
          let rec go () =
            let n = In_channel.input ic buf 0 (Bytes.length buf) in
            if n > 0 then begin
              Out_channel.output oc buf 0 n;
              go ()
            end
          in
          go ()))

(* [durable] fsyncs the copy, so its write-back cannot overlap what is
   timed next. *)
let copy_store ?(durable = false) src dst =
  mkdir_p dst;
  Array.iter
    (fun f ->
      copy_file (src // f) (dst // f);
      if durable then begin
        let fd = Unix.openfile (dst // f) [ Unix.O_RDWR ] 0 in
        Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)
      end)
    (Sys.readdir src)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let median = percentile 0.5
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* The socket run                                                      *)
(* ------------------------------------------------------------------ *)

type run = {
  plan : Plan.t;
  mutable log : Record.t list; (* newest first *)
  mutable next_id : int;
  mutable acked : int; (* inserts acknowledged *)
  mutable sent_updates : int;
  update_sent : float array; (* send time of insert k, 1-based *)
  mutable sub_ids : (int * Plan.req) list;
  pushes : (int, (int * float * string) list) Hashtbl.t; (* newest first *)
}

let on_push run got (r : Proto.response) =
  match List.map int_of_string_opt (String.split_on_char '.' r.Proto.detail) with
  | [ Some sub; Some seq ] ->
    let prev = Option.value ~default:[] (Hashtbl.find_opt run.pushes sub) in
    Hashtbl.replace run.pushes sub ((seq, got, r.Proto.body) :: prev)
  | _ -> failf "delta frame with detail %S" r.Proto.detail

let add_record run ~conn ~req ~phase ~sent ~got ~resp ~lo =
  run.next_id <- run.next_id + 1;
  let r =
    {
      Record.id = run.next_id;
      conn;
      req;
      phase;
      sent;
      got;
      resp;
      lo;
      hi = run.sent_updates;
      version = -1;
      ok = false;
    }
  in
  run.log <- r :: run.log;
  r

(* One request on an idle connection. *)
let call run conn ~conn_no phase req =
  let sent = now_ns () in
  let resp = Wire.rpc ~on_push:(on_push run) conn (Plan.line req) in
  add_record run ~conn:conn_no ~req ~phase ~sent ~got:(now_ns ()) ~resp ~lo:run.acked

let rec select_retry fds timeout =
  match Unix.select fds [] [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_retry fds timeout

(* The closed loop over connections A and B: whenever a connection is
   idle, [next i] gives its next request (None: it stays idle), sent
   after [think i] ns.  Ends when neither connection has a request
   outstanding or waiting to be sent. *)
let closed_loop ?(think = fun _ -> 0.) run (conns : Wire.conn array) ~phase ~next =
  let out = Array.make 2 None and due = Array.make 2 None in
  let plan i =
    match next i with
    | None -> ()
    | Some req -> due.(i) <- Some (req, now_ns () +. think i)
  in
  let send i req =
    let lo = run.acked in
    let sent = now_ns () in
    (match req with
    | Plan.Update _ ->
      run.sent_updates <- run.sent_updates + 1;
      run.update_sent.(run.sent_updates) <- sent
    | _ -> ());
    Wire.send conns.(i) (Plan.line req ^ "\n");
    out.(i) <- Some (req, sent, lo)
  in
  let send_due () =
    for i = 0 to 1 do
      match due.(i) with
      | Some (req, at) when at <= now_ns () ->
        due.(i) <- None;
        send i req
      | _ -> ()
    done
  in
  plan 0;
  plan 1;
  send_due ();
  let busy () = out.(0) <> None || out.(1) <> None || due.(0) <> None || due.(1) <> None in
  while busy () do
    let wait =
      Array.fold_left
        (fun acc d ->
          match d with Some (_, at) -> Float.min acc ((at -. now_ns ()) /. 1e9) | None -> acc)
        120. due
    in
    (match select_retry [ conns.(0).Wire.fd; conns.(1).Wire.fd ] (Float.max 0. wait) with
    | [] -> if wait >= 120. then failf "no answer within 120 s"
    | ready ->
      List.iter
        (fun fd ->
          let i = if fd = conns.(0).Wire.fd then 0 else 1 in
          let frames = Wire.read_frames conns.(i) in
          let got = now_ns () in
          List.iter
            (fun (f : Proto.response) ->
              if f.Proto.status = Proto.Delta then on_push run got f
              else
                match out.(i) with
                | None -> failf "a frame nobody asked for on connection %d" i
                | Some (req, sent, lo) ->
                  out.(i) <- None;
                  (match req with Plan.Update _ -> run.acked <- run.acked + 1 | _ -> ());
                  ignore (add_record run ~conn:i ~req ~phase ~sent ~got ~resp:f ~lo);
                  plan i)
            frames)
        ready);
    send_due ()
  done

(* Wait until every subscription has seen [n] pushes (or 60 s pass:
   missing pushes are then counted by the checks). *)
let await_pushes run (b : Wire.conn) n =
  let deadline = Unix.gettimeofday () +. 60. in
  let have () =
    List.for_all
      (fun (id, _) ->
        List.length (Option.value ~default:[] (Hashtbl.find_opt run.pushes id)) >= n)
      run.sub_ids
  in
  while (not (have ())) && Unix.gettimeofday () < deadline do
    match select_retry [ b.Wire.fd ] 1. with
    | [] -> ()
    | _ ->
      let frames = Wire.read_frames b in
      let got = now_ns () in
      List.iter
        (fun (f : Proto.response) ->
          if f.Proto.status = Proto.Delta then on_push run got f
          else failf "a frame nobody asked for on connection 1")
        frames
  done

let counters_of (r : Record.t) =
  match J.parse r.Record.resp.Proto.body with
  | J.Obj fields -> (
    match List.assoc_opt "counters" fields with
    | Some (J.Obj cs) ->
      List.filter_map (function n, J.Int v -> Some (n, v) | _ -> None) cs
    | _ -> failf "STATS without counters")
  | _ -> failf "STATS is not a JSON object"
  | exception J.Parse_error e -> failf "STATS does not parse: %s" e

(* Counter deltas between two STATS snapshots. *)
let window a b name =
  let get c = Option.value ~default:0 (List.assoc_opt name c) in
  get b - get a

type socket_result = {
  run : run;
  cold_ms : float list;
  recover_ms : float list;
  rss_mb : float;
  main_window : (string * int) list * (string * int) list;
  write_window : (string * int) list * (string * int) list;
  crashed : string; (* the store as kill -9 left it *)
}

(* Cold starts and set-ups allocate fresh memory, whose cost on this
   class of machine drifts over seconds; each is therefore sampled at
   both ends of the run, and the median taken over both groups. *)
let cold_starts = (6, 5) (* at the start, at the end *)
let recoveries = 3

let socket_run ~ssdql ~work ~store ~pristine ~seconds (plan : Plan.t) =
  let run =
    {
      plan;
      log = [];
      next_id = 0;
      acked = 0;
      sent_updates = 0;
      update_sent = Array.make (Plan.n_updates + 1) 0.;
      sub_ids = [];
      pushes = Hashtbl.create 4;
    }
  in
  let sock = work // "s.sock" and log = work // "serve.log" in
  (* A cold start: spawn on a clean store, time the first answer. *)
  let cold_ms = ref [] in
  let cold_start store =
    let t0 = now_ns () in
    let server = Wire.start_server ~ssdql ~store ~sock ~log in
    let a = Wire.connect server in
    let r = call run a ~conn_no:0 Record.Probe plan.Plan.probe in
    cold_ms := ((r.Record.got -. t0) /. 1e6) :: !cold_ms;
    (server, a)
  in
  (* a graceful stop leaves the store clean for the next cold start *)
  let stop (server, a) =
    Wire.close a;
    Wire.kill_server server Sys.sigterm
  in
  for _ = 2 to fst cold_starts do
    stop (cold_start store)
  done;
  let server, a = cold_start store in
  let b = Wire.connect server in
  let conns = [| a; b |] in
  let stats () = counters_of (call run a ~conn_no:0 Record.Stats Plan.Stats) in
  let s0 = stats () in
  (* Read phase (read workloads): warm-up, then [seconds] of reads on
     connection A.  One reader, not two: two concurrent readers on the
     two workers slowed each other down by more than they gained (see
     README), and left no vCPU spare for the client. *)
  let read_start, read_end =
    match plan.Plan.workload with
    | Plan.Write_mix -> (s0, s0)
    | Plan.Read_hot | Plan.Read_cold ->
      (match plan.Plan.workload with
      | Plan.Read_hot ->
        Array.iter
          (fun q -> ignore (call run a ~conn_no:0 Record.Warmup (Plan.Query (Plan.Unql, q))))
          plan.Plan.hot
      | _ ->
        for _ = 1 to 20 do
          ignore (call run a ~conn_no:0 Record.Warmup (plan.Plan.next_read ()))
        done);
      let s1 = stats () in
      let deadline = now_ns () +. (float_of_int seconds *. 1e9) in
      closed_loop run conns ~phase:Record.Read ~next:(fun i ->
          if i = 0 && now_ns () < deadline then Some (plan.Plan.next_read ()) else None);
      (s1, stats ())
  in
  (* Write phase: B holds the two subscriptions and A sends the
     inserts, back to back except in write-mix, where A pauses between
     them and B reads beside them until the last ack. *)
  List.iter
    (fun req ->
      let r = call run b ~conn_no:1 Record.Subscribe req in
      match int_of_string_opt r.Record.resp.Proto.detail with
      | Some id -> run.sub_ids <- run.sub_ids @ [ (id, req) ]
      | None -> ())
    plan.Plan.subs;
  let next_insert = ref 0 in
  closed_loop run conns ~phase:Record.Write ~think:(fun i ->
      if i = 0 && plan.Plan.workload = Plan.Write_mix && !next_insert > 0 then plan.Plan.pause ()
      else 0.) ~next:(fun i ->
      if i = 0 then
        if !next_insert < Plan.n_updates then begin
          incr next_insert;
          Some (Plan.Update plan.Plan.inserts.(!next_insert - 1))
        end
        else None
      else if plan.Plan.workload = Plan.Write_mix && run.acked < Plan.n_updates then
        Some (plan.Plan.next_read ())
      else None);
  await_pushes run b Plan.n_updates;
  let s3 = stats () in
  let rss_mb = Wire.peak_rss_mb server.Wire.pid in
  Wire.close a;
  Wire.close b;
  Wire.kill_server server Sys.sigkill;
  (* Restart after kill -9, each time on a fresh copy of the crashed
     store; the first answer must hold every acknowledged insert. *)
  let recover_ms =
    List.init recoveries (fun i ->
        let dir = work // Printf.sprintf "recover%d" i in
        copy_store ~durable:true store dir;
        let t0 = now_ns () in
        let server = Wire.start_server ~ssdql ~store:dir ~sock ~log in
        let c = Wire.connect server in
        let r = call run c ~conn_no:0 Record.Durability (Plan.Query (Plan.Unql, Plan.q_titles)) in
        let ms = (r.Record.got -. t0) /. 1e6 in
        if i = recoveries - 1 then
          ignore
            (call run c ~conn_no:0 Record.Durability
               (Plan.Query (Plan.Lorel, Plan.lorel_titles)));
        Wire.close c;
        Wire.kill_server server Sys.sigkill;
        rm_rf dir;
        ms)
  in
  let again = work // "cold-again" in
  copy_store ~durable:true pristine again;
  for _ = 1 to snd cold_starts do
    stop (cold_start again)
  done;
  rm_rf again;
  let main_window =
    match plan.Plan.workload with Plan.Write_mix -> (read_end, s3) | _ -> (read_start, read_end)
  in
  {
    run;
    cold_ms = !cold_ms;
    recover_ms;
    rss_mb;
    main_window;
    write_window = (read_end, s3);
    crashed = store;
  }

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

type check = {
  attempted : int;
  failed : int;
  push_ms : float list;
}

let parse_ack body =
  try Scanf.sscanf body "updated: %d nodes, %d edges;" (fun n e -> Some (n, e))
  with Scanf.Scan_failure _ | End_of_file | Failure _ -> None

let check (plan : Plan.t) memo (run : run) =
  let complete (r : Record.t) = r.Record.resp.Proto.status = Proto.Complete in
  let records = List.rev run.log in
  let write_queries = ref [] in
  List.iter
    (fun (r : Record.t) ->
      match (r.Record.phase, r.Record.req) with
      | Record.Stats, _ -> r.Record.ok <- complete r
      | Record.Durability, req ->
        r.Record.version <- Plan.n_updates;
        r.Record.ok <-
          complete r
          && r.Record.resp.Proto.body
             = Plan.expected memo ~version:Plan.n_updates plan.Plan.final req
      | Record.Write, Plan.Update text ->
        let k = r.Record.lo + 1 in
        r.Record.version <- k;
        r.Record.ok <-
          complete r
          && plan.Plan.inserts.(k - 1) = text
          && parse_ack r.Record.resp.Proto.body = Some plan.Plan.versions.(k)
      | Record.Write, (Plan.Query _ as req) -> write_queries := (r, req) :: !write_queries
      | _, req ->
        r.Record.version <- 0;
        r.Record.ok <-
          complete r && r.Record.resp.Proto.body = Plan.expected memo ~version:0 plan.Plan.g0 req)
    records;
  (* Connection B's reads beside the inserts: the answer must equal the
     reference on one of the versions the server could have held. *)
  if !write_queries <> [] then begin
    let graph_at = Plan.roll plan in
    let pending = ref (List.rev !write_queries) in
    for j = 0 to Plan.n_updates do
      let active =
        List.filter (fun ((r : Record.t), _) -> r.Record.lo <= j && j <= r.Record.hi) !pending
      in
      if active <> [] then begin
        let g = graph_at j in
        List.iter
          (fun ((r : Record.t), req) ->
            if complete r && r.Record.resp.Proto.body = Plan.expected memo ~version:j g req
            then begin
              r.Record.ok <- true;
              r.Record.version <- j
            end)
          active;
        pending := List.filter (fun ((r : Record.t), _) -> not r.Record.ok) !pending
      end
    done
  end;
  let n = List.length records in
  let bad = List.length (List.filter (fun (r : Record.t) -> not r.Record.ok) records) in
  (* Pushes: per subscription, sequence numbers 1..n dense and in
     order, and the last body equal to the reference on the final graph. *)
  let push_ms = ref [] and push_bad = ref 0 and push_n = ref 0 in
  List.iter
    (fun (id, req) ->
      let got = List.rev (Option.value ~default:[] (Hashtbl.find_opt run.pushes id)) in
      push_n := !push_n + Plan.n_updates;
      let dense =
        List.length (List.filteri (fun i (seq, _, _) -> seq = i + 1) got)
      in
      let last_ok =
        match List.rev got with
        | (_, _, body) :: _ ->
          body = Plan.expected memo ~version:Plan.n_updates plan.Plan.final req
        | [] -> false
      in
      let extra = if List.length got > Plan.n_updates then 1 else 0 in
      let wrong_last = if last_ok then 0 else 1 in
      push_bad := !push_bad + min Plan.n_updates (Plan.n_updates - dense + extra + wrong_last);
      List.iter
        (fun (seq, at, _) ->
          if seq >= 1 && seq <= Plan.n_updates then
            push_ms := ((at -. run.update_sent.(seq)) /. 1e6) :: !push_ms)
        got)
    run.sub_ids;
  let missing_subs = List.length plan.Plan.subs - List.length run.sub_ids in
  {
    attempted = n + !push_n + (missing_subs * Plan.n_updates);
    failed = bad + !push_bad + (missing_subs * Plan.n_updates);
    push_ms = !push_ms;
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
}

let m name unit_ value = { name; value; unit_ }

let measured_queries (plan : Plan.t) (run : run) =
  List.filter
    (fun (r : Record.t) ->
      Record.is_query r
      &&
      match plan.Plan.workload with
      | Plan.Write_mix -> r.Record.phase = Record.Write
      | _ -> r.Record.phase = Record.Read)
    (List.rev run.log)

let end_to_end ~setup_s (plan : Plan.t) (s : socket_result) (c : check) =
  let qs = measured_queries plan s.run in
  let lat = List.map Record.latency_ms qs in
  let span_s =
    match qs with
    | [] -> 0.
    | first :: _ ->
      let last = List.fold_left (fun acc (r : Record.t) -> max acc r.Record.got) 0. qs in
      (last -. first.Record.sent) /. 1e9
  in
  let acks =
    List.filter_map
      (fun (r : Record.t) ->
        match r.Record.req with
        | Plan.Update _ when r.Record.phase = Record.Write -> Some (Record.latency_ms r)
        | _ -> None)
      (List.rev s.run.log)
  in
  let w0, w1 = s.write_window in
  [
    m "query_p50_ms" "ms" (median lat);
    m "query_p99_ms" "ms" (percentile 0.99 lat);
    m "query_per_s" "1/s" (if span_s > 0. then float_of_int (List.length qs) /. span_s else 0.);
    m "update_ack_p50_ms" "ms" (median acks);
    m "update_ack_p90_ms" "ms" (percentile 0.9 acks);
    m "push_p50_ms" "ms" (median c.push_ms);
    m "wal_bytes_per_update" "B"
      (ratio (window w0 w1 "store.wal_bytes") (List.length acks));
    m "cold_start_ms" "ms" (median s.cold_ms);
    m "recover_start_ms" "ms" (median s.recover_ms);
    m "server_rss_mb" "MB" s.rss_mb;
    m "setup_s" "s" setup_s;
  ]

(* Per-layer metrics: medians of span self time from the traced
   replay, and counts from the server's own counters (STATS deltas over
   the workload's main phase, or over the write phase for the write
   path). *)
let per_layer (plan : Plan.t) (s : socket_result) (o : Replay.outcome) ~overhead_pct =
  let self = Hashtbl.create 32 in
  List.iter
    (fun (sp : Spans.t) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt self sp.Spans.name) in
      Hashtbl.replace self sp.Spans.name (Spans.self_ns sp :: prev))
    (Spans.all ());
  let self_med name scale =
    median (List.map (fun ns -> ns /. scale) (Option.value ~default:[] (Hashtbl.find_opt self name)))
  in
  let ms name = self_med name 1e6 and us name = self_med name 1e3 in
  let m0, m1 = s.main_window and w0, w1 = s.write_window in
  let mw = window m0 m1 and ww = window w0 w1 in
  let qs = measured_queries plan s.run in
  let residual =
    List.filter_map
      (fun (r : Record.t) ->
        Option.map
          (fun ns -> Record.latency_ms r -. (ns /. 1e6))
          (Hashtbl.find_opt o.Replay.request_ns r.Record.id))
      qs
  in
  let bytes_out =
    List.fold_left
      (fun acc (r : Record.t) ->
        acc + String.length (Proto.render_response r.Record.resp))
      0 qs
  in
  let w_bytes, w_fsyncs, w_updates = o.Replay.write_io in
  [
    m "serve.proto_parse_us" "us" (us "serve.proto_parse");
    m "serve.render_ms" "ms" (ms "serve.render");
    m "serve.bytes_out_per_query" "B" (ratio bytes_out (List.length qs));
    m "serve.residual_ms" "ms" (median residual);
    m "serve.residual_p99_ms" "ms" (percentile 0.99 residual);
    m "lint.check_us" "us" (us "lint.check");
    m "unql.parse_us" "us" (us "unql.parse");
    m "unql.eval_ms" "ms" (ms "unql.eval");
    m "unql.edges_per_query" "count"
      (ratio (mw "unql.eval.edges_traversed") (mw "unql.eval.queries"));
    m "lorel.eval_ms" "ms" (ms "lorel.eval");
    m "lorel.edges_per_query" "count"
      (ratio (mw "lorel.eval.edges_traversed") (mw "lorel.eval.queries"));
    m "relstore.edb_ms" "ms" (ms "relstore.edb");
    m "relstore.eval_ms" "ms" (ms "relstore.eval");
    m "relstore.facts_per_query" "count"
      (ratio (mw "datalog.facts_derived") (mw "datalog.eval.programs"));
    m "cache.find_us" "us" (us "cache.find");
    m "cache.hit_ratio" "ratio"
      (ratio (mw "unql.cache.hits") (mw "unql.cache.hits" + mw "unql.cache.misses"));
    m "cache.revalidate_ms" "ms" (ms "cache.revalidate");
    m "cache.kept_ratio" "ratio"
      (ratio (ww "incr.cache.revalidated")
         (ww "incr.cache.revalidated" + ww "incr.cache.dropped"));
    m "update.apply_ms" "ms" (ms "update.apply");
    m "incr.diff_ms" "ms" (ms "incr.diff");
    m "incr.fast_path_ratio" "ratio" (ratio (ww "incr.fast_path") (ww "incr.deltas"));
    m "incr.sub_eval_ms" "ms" (ms "incr.sub_eval");
    m "incr.sub_skip_ratio" "ratio"
      (ratio (ww "incr.sub.skips") (ww "incr.sub.skips" + ww "incr.sub.evals"));
    m "store.commit_ms" "ms" (ms "store.commit");
    m "store.pages_logged_per_update" "count"
      (ratio (ww "store.pages_logged") (ww "store.commits"));
    m "store.open_ms" "ms" (ms "store.open");
    m "store.recover_ms" "ms" (ms "store.recover");
    m "store.recovered_txns" "count" (float_of_int o.Replay.recovered_txns);
    m "vfs.fsyncs_per_update" "count" (ratio w_fsyncs w_updates);
    m "vfs.fsync_ms" "ms" (ms "vfs.fsync");
    m "vfs.write_bytes_per_update" "B" (ratio w_bytes w_updates);
    m "vfs.read_bytes_per_open" "B" (float_of_int o.Replay.open_read_bytes);
    m "trace.overhead_pct" "%" overhead_pct;
  ]

(* ------------------------------------------------------------------ *)
(* The traced replay and its report                                    *)
(* ------------------------------------------------------------------ *)

(* Prefixes replayed: enough for per-operation medians, and short
   enough that a traced run ends well inside its time limit on a busy
   host.  All inserts are always replayed. *)
let replay_reads = 300 (* of the read phase *)
let replay_beside = 600 (* of B's reads beside the inserts *)
let replay_plain = 400 (* requests of the spans-off replay *)

let replay_order (run : run) =
  let records = List.rev run.log in
  let by phase = List.filter (fun (r : Record.t) -> r.Record.phase = phase) records in
  let reads =
    List.filteri (fun i _ -> i < replay_reads) (by Record.Read)
  in
  (* the inserts, and each B read placed after the insert whose version
     it matched *)
  let key (r : Record.t) =
    match r.Record.req with
    | Plan.Update _ -> (r.Record.version, 0, r.Record.sent)
    | _ -> (max 0 r.Record.version, 1, r.Record.sent)
  in
  let kept = Hashtbl.create 1024 in
  List.iteri
    (fun i (r : Record.t) -> if i < replay_beside then Hashtbl.replace kept r.Record.id ())
    (List.filter Record.is_query (by Record.Write));
  let writes =
    List.filter
      (fun (r : Record.t) -> (not (Record.is_query r)) || Hashtbl.mem kept r.Record.id)
      (by Record.Write)
    |> List.sort (fun a b -> compare (key a) (key b))
  in
  by Record.Warmup @ reads @ by Record.Subscribe @ writes @ by Record.Durability

(* Total self time per layer over the given requests, largest first. *)
let layer_shares reqs =
  let tot = Hashtbl.create 16 in
  List.iter
    (fun (sp : Spans.t) ->
      if Hashtbl.mem reqs sp.Spans.req && sp.Spans.name <> "serve.request" then
        Hashtbl.replace tot sp.Spans.name
          (Spans.self_ns sp +. Option.value ~default:0. (Hashtbl.find_opt tot sp.Spans.name)))
    (Spans.all ());
  let all = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tot [] in
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0. all in
  List.sort (fun (_, a) (_, b) -> compare b a) all
  |> List.map (fun (k, v) -> (k, if sum > 0. then 100. *. v /. sum else 0.))

let report_layers title records =
  let ids = Hashtbl.create 64 in
  List.iter (fun (r : Record.t) -> Hashtbl.replace ids r.Record.id ()) records;
  if records <> [] then begin
    let shares = layer_shares ids in
    Printf.printf "# %s: self-time shares over %d replayed requests:" title
      (List.length records);
    List.iteri
      (fun i (k, v) -> if i < 6 then Printf.printf " %s %.1f%%" k v)
      shares;
    print_newline ()
  end

(* The socket run's request log, one JSON object per line. *)
let write_requests path (run : run) =
  let phase = function
    | Record.Probe -> "probe"
    | Record.Warmup -> "warmup"
    | Record.Read -> "read"
    | Record.Subscribe -> "subscribe"
    | Record.Write -> "write"
    | Record.Durability -> "durability"
    | Record.Stats -> "stats"
  in
  let verb = function
    | Plan.Query (l, _) -> "query:" ^ Plan.lang_name l
    | Plan.Update _ -> "update"
    | Plan.Subscribe (l, _) -> "subscribe:" ^ Plan.lang_name l
    | Plan.Stats -> "stats"
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (r : Record.t) ->
          Printf.fprintf oc
            "{\"id\":%d,\"conn\":%d,\"phase\":%S,\"verb\":%S,\"sent_ns\":%.0f,\"got_ns\":%.0f,\"status\":%S,\"bytes\":%d,\"version\":%d,\"ok\":%b}\n"
            r.Record.id r.Record.conn (phase r.Record.phase) (verb r.Record.req) r.Record.sent
            r.Record.got
            (Proto.status_to_string r.Record.resp.Proto.status)
            (String.length r.Record.resp.Proto.body)
            r.Record.version r.Record.ok)
        (List.rev run.log))

(* Socket median against the replay: the replayed request accounts for
   the socket latency up to the residual. *)
let account title (o : Replay.outcome) records =
  if records <> [] then begin
    let socket = List.map Record.latency_ms records in
    let replay =
      List.map (fun (r : Record.t) -> Hashtbl.find o.Replay.request_ns r.Record.id /. 1e6) records
    in
    let residual = List.map2 ( -. ) socket replay in
    let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
    Printf.printf
      "# %s: socket p50 %.3f ms, replayed request p50 %.3f ms, residual p50 %.3f ms; means %.3f = %.3f + %.3f ms\n"
      title (median socket) (median replay) (median residual) (mean socket) (mean replay)
      (mean residual)
  end

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let setup_reps = 3

(* Share of CPU time the hypervisor gave to other guests since [from]
   (the "steal" column of /proc/stat), to tell a noisy host from a slow
   program when reading a run's figures. *)
let cpu_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some l -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' l) with
    | "cpu" :: fields ->
      let v = List.map int_of_string fields in
      let total = List.fold_left ( + ) 0 v in
      (List.nth v 7, total)
    | _ -> (0, 0))
  | None | (exception _) -> (0, 0)

let steal_pct (s0, t0) =
  let s1, t1 = cpu_ticks () in
  if t1 > t0 then 100. *. float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.

let setup_once ~ssdql ~work ~workload ~seed rep =
  let dir = work // Printf.sprintf "setup%d" rep in
  mkdir_p dir;
  let t0 = now_ns () in
  let g = Ssd_workload.Movies.generate ~seed ~n_entries:Plan.n_entries () in
  Ssd_storage.Codec.write_file (dir // "movies.bin") g;
  Wire.run_to_completion
    [| ssdql; "store"; "init"; "--store"; dir // "store"; "-d"; dir // "movies.bin" |];
  (* the reference graph: the store's own content, read from a copy *)
  copy_store (dir // "store") (dir // "ref");
  let st = Ssd_store.Store.open_ (Ssd_store.Vfs.real (dir // "ref")) in
  let g0 = Ssd_store.Store.graph st in
  Ssd_store.Store.close st;
  let plan = Plan.make ~workload ~seed g0 in
  let memo = Plan.refs () in
  Plan.precompute plan memo;
  ((now_ns () -. t0) /. 1e9, dir, plan, memo)

(* The shortest decimal that reads back as [v]. *)
let fmt_value v =
  let rec go p =
    let s = Printf.sprintf "%.*g" p v in
    if p >= 17 || float_of_string s = v then s else go (p + 1)
  in
  go 1

let print_metrics ms =
  List.iter (fun x -> Printf.printf "%s = %s %s\n" x.name (fmt_value x.value) x.unit_) ms

let json_result ~correct ~attempted ~failed ms =
  let metrics =
    String.concat ", "
      (List.map
         (fun x ->
           if not (Float.is_finite x.value) then failf "metric %s is not finite" x.name;
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (fmt_value x.value) x.unit_)
         ms)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed metrics

let main ~ssdql ~workload ~seed ~seconds ~trace =
  let wname = Plan.workload_name workload in
  let work = ".perfbench-work" // Printf.sprintf "%s-%d" wname (Unix.getpid ()) in
  mkdir_p work;
  at_exit (fun () ->
      Wire.kill_all ();
      rm_rf work;
      try Unix.rmdir (Filename.dirname work) with Unix.Unix_error _ -> ());
  (* The first set-up is the one the run uses; two more at the end
     only time themselves (see [cold_starts]). *)
  let ticks0 = cpu_ticks () in
  Gc.compact ();
  let t_first, dir, plan, memo = setup_once ~ssdql ~work ~workload ~seed 0 in
  let store = dir // "store" in
  let pristine = work // "pristine" in
  copy_store store pristine;
  let s = socket_run ~ssdql ~work ~store ~pristine ~seconds plan in
  let setup_times =
    t_first
    :: List.init (setup_reps - 1) (fun i ->
           Gc.compact ();
           let t, d, _, _ = setup_once ~ssdql ~work ~workload ~seed (i + 1) in
           rm_rf d;
           t)
  in
  let setup_s = median setup_times in
  Printf.printf "# setup_s samples: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") setup_times));
  Printf.printf "# cold_start_ms samples: %s\n# recover_start_ms samples: %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.1f") s.cold_ms))
    (String.concat " " (List.map (Printf.sprintf "%.1f") s.recover_ms));
  let c = check plan memo s.run in
  let e2e = end_to_end ~setup_s plan s c in
  let error_rate = ratio c.failed c.attempted in
  Printf.printf "# %s seed %d: %d requests and pushes attempted, %d failed; cpu steal %.1f%%\n"
    wname seed c.attempted c.failed (steal_pct ticks0);
  print_metrics e2e;
  Printf.printf "error_rate = %s ratio\n" (fmt_value error_rate);
  let failed, metrics =
    if not trace then (c.failed, e2e)
    else begin
      let order = replay_order s.run in
      let replay traced order =
        let copy = work // (if traced then "replay-traced" else "replay-plain") in
        let crashed = work // (if traced then "crashed-traced" else "crashed-plain") in
        copy_store ~durable:true pristine copy;
        copy_store ~durable:true s.crashed crashed;
        Gc.compact ();
        let o = Replay.run ~traced ~store_dir:copy ~crashed_dir:crashed order in
        rm_rf copy;
        rm_rf crashed;
        o
      in
      let plain = replay false (List.filteri (fun i _ -> i < replay_plain) order) in
      let traced = replay true order in
      (* per request, so that a stray fsync or GC pause in either run
         does not decide the figure *)
      let overhead_pct =
        100.
        *. median
             (Hashtbl.fold
                (fun id t acc ->
                  match Hashtbl.find_opt plain.Replay.request_ns id with
                  | Some p when p > 0. -> ((t -. p) /. p) :: acc
                  | _ -> acc)
                traced.Replay.request_ns [])
      in
      let out = ".perfbench-out" in
      mkdir_p out;
      Spans.write_jsonl (out // Printf.sprintf "%s-seed%d.spans.jsonl" wname seed);
      write_requests (out // Printf.sprintf "%s-seed%d.requests.jsonl" wname seed) s.run;
      let layers = per_layer plan s traced ~overhead_pct in
      Printf.printf "# replay: %d requests, %d bodies differ from the server's, %d acks differ only in cache kept/dropped counts\n"
        (List.length order) traced.Replay.drift traced.Replay.ack_cache_drift;
      let replayed (r : Record.t) = Hashtbl.mem traced.Replay.request_ns r.Record.id in
      let inserts =
        List.filter
          (fun (r : Record.t) -> match r.Record.req with Plan.Update _ -> true | _ -> false)
          order
      in
      List.iter
        (fun (title, records) ->
          report_layers title records;
          account title traced records)
        [ ("queries", List.filter replayed (measured_queries plan s.run)); ("inserts", inserts) ];
      print_metrics layers;
      (c.failed + traced.Replay.drift, layers)
    end
  in
  print_endline
    (json_result ~correct:(failed = 0) ~attempted:c.attempted ~failed metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let ssdql = ref ("_build" // "default" // "bin" // "ssdql.exe") in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "read-hot|read-cold|write-mix");
      ("--seed", Arg.Set_int seed, "N  seed of the data and the request streams");
      ("--seconds", Arg.Set_int seconds, "S  length of the measured read phase");
      ("--trace", Arg.Set_int trace, "0|1  also run the traced in-process replay");
      ("--ssdql", Arg.Set_string ssdql, "PATH  the ssdql binary");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  match Plan.workload_of_string !workload with
  | None ->
    prerr_endline "perfbench: --workload must be read-hot, read-cold or write-mix";
    exit 2
  | Some workload -> (
    if not (Sys.file_exists !ssdql) then begin
      Printf.eprintf "perfbench: %s not found (build it first: run.py does)\n" !ssdql;
      exit 2
    end;
    let stop _ = exit 3 in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    try main ~ssdql:!ssdql ~workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    with Wire.Failed msg ->
      Printf.eprintf "perfbench: %s\n" msg;
      exit 1)
