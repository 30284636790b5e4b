(* The traced replay: the socket run's requests executed again
   in-process, single-threaded, through the same public functions the
   serve engine calls, with a benchmark span around each call.  This is
   a mirror of [Ssd_serve.Engine]'s QUERY, SUBSCRIBE and UPDATE paths
   (cache on, no budgets, text format); every replayed response body is
   compared with the body the server returned, so the mirror cannot
   drift from the engine unnoticed.  No timer is added inside lib/. *)

module Graph = Ssd.Graph
module Label = Ssd.Label
module Proto = Ssd_serve.Proto
module Store = Ssd_store.Store
module Vfs = Ssd_store.Vfs
module Delta = Ssd_incr.Delta
module Datalog = Relstore.Datalog

let span = Spans.span

(* ------------------------------------------------------------------ *)
(* The VFS under the replay's store, timed and counted                 *)
(* ------------------------------------------------------------------ *)

type io = {
  mutable write_bytes : int;
  mutable fsyncs : int;
  mutable read_bytes : int;
}

let io = { write_bytes = 0; fsyncs = 0; read_bytes = 0 }

let counted_vfs (v : Vfs.t) =
  let open_file name =
    let f = v.Vfs.open_file name in
    {
      f with
      Vfs.pwrite =
        (fun b ~pos ~off ~len ->
          span "vfs.pwrite" (fun () ->
              let n = f.Vfs.pwrite b ~pos ~off ~len in
              io.write_bytes <- io.write_bytes + n;
              n));
      fsync =
        (fun () ->
          span "vfs.fsync" (fun () ->
              f.Vfs.fsync ();
              io.fsyncs <- io.fsyncs + 1));
      pread =
        (fun b ~pos ~off ~len ->
          span "vfs.pread" (fun () ->
              let n = f.Vfs.pread b ~pos ~off ~len in
              io.read_bytes <- io.read_bytes + n;
              n));
    }
  in
  { v with Vfs.open_file }

(* ------------------------------------------------------------------ *)
(* Engine mirror                                                       *)
(* ------------------------------------------------------------------ *)

type sub_kind =
  | Sub_unql of Unql.Ast.expr
  | Sub_datalog of {
      prog : Datalog.program;
      mutable state : Datalog.Incremental.state;
    }

type sub = {
  kind : sub_kind;
  fp : Unql.Footprint.t;
  mutable last : string;
}

type env = {
  mutable db : Graph.t;
  cache : Unql.Cache.t;
  store : Store.t;
  mutable subs : sub list; (* in subscription order *)
  fp_memo : (string, Unql.Footprint.t) Hashtbl.t;
}

let footprint env qtext =
  match Hashtbl.find_opt env.fp_memo qtext with
  | Some fp -> fp
  | None ->
    let fp = Unql.Footprint.of_string qtext in
    Hashtbl.add env.fp_memo qtext fp;
    fp

let render_graph g = Graph.to_string g ^ "\n"

let frame status text = Proto.render_response (Proto.response status text)

let lint lang body =
  span "lint.check" (fun () ->
      let r = Ssd_lint.check_src ~lang body in
      match
        List.find_opt (fun d -> d.Ssd_diag.severity = Ssd_diag.Error) r.Ssd_lint.diags
      with
      | Some d -> raise (Ssd_diag.Fail d)
      | None -> ())

(* UnQL through the shared result cache, as the engine's QUERY does. *)
let unql_cached env q =
  match span "cache.find" (fun () -> Unql.Cache.find env.cache ~db:env.db q) with
  | Some g -> g
  | None ->
    let g = span "unql.eval" (fun () -> Unql.Eval.eval ~db:env.db q) in
    span "cache.add" (fun () -> Unql.Cache.add env.cache ~db:env.db q g);
    g

(* Returns the response body. *)
let query env line =
  let req =
    span "serve.proto_parse" (fun () ->
        match Proto.parse_request line with
        | Ok r -> r
        | Error d -> raise (Ssd_diag.Fail d))
  in
  let body = req.Proto.body in
  let text, wire =
    match req.Proto.opts.Proto.lang with
    | "unql" ->
      lint Ssd_lint.Unql body;
      let q = span "unql.parse" (fun () -> Unql.Parser.parse body) in
      let g = unql_cached env q in
      span "serve.render" (fun () ->
          let text = render_graph g in
          (text, frame Proto.Complete text))
    | "lorel" ->
      lint Ssd_lint.Lorel body;
      let q = span "lorel.parse" (fun () -> Lorel.Parser.parse body) in
      let g = span "lorel.eval" (fun () -> Lorel.Eval.eval ~db:env.db q) in
      span "serve.render" (fun () ->
          let text = render_graph g in
          (text, frame Proto.Complete text))
    | "datalog" ->
      lint Ssd_lint.Datalog body;
      let p = span "datalog.parse" (fun () -> Datalog.parse body) in
      let edb = span "relstore.edb" (fun () -> Relstore.Triple.edb env.db) in
      let res = span "relstore.eval" (fun () -> Datalog.eval ~edb p) in
      span "serve.render" (fun () ->
          let text = Plan.render_datalog res in
          (text, frame Proto.Complete text))
    | other -> invalid_arg ("Replay.query: language " ^ other)
  in
  ignore (Sys.opaque_identity wire);
  text

let subscribe env line =
  let req =
    span "serve.proto_parse" (fun () ->
        match Proto.parse_request line with
        | Ok r -> r
        | Error d -> raise (Ssd_diag.Fail d))
  in
  let body = req.Proto.body in
  let kind, text =
    match req.Proto.opts.Proto.lang with
    | "unql" ->
      lint Ssd_lint.Unql body;
      let q = span "unql.parse" (fun () -> Unql.Parser.parse body) in
      let g = unql_cached env q in
      (Sub_unql q, span "serve.render" (fun () -> render_graph g))
    | _ ->
      lint Ssd_lint.Datalog body;
      let prog = span "datalog.parse" (fun () -> Datalog.parse body) in
      let edb = span "relstore.edb" (fun () -> Relstore.Triple.edb env.db) in
      let state = span "relstore.eval" (fun () -> Datalog.Incremental.prepare ~edb prog) in
      ( Sub_datalog { prog; state },
        span "serve.render" (fun () ->
            Plan.render_datalog_sorted (Datalog.Incremental.result state)) )
  in
  env.subs <- env.subs @ [ { kind; fp = footprint env body; last = text } ];
  text

(* One subscription after a committed update: the new rendering when
   its result changed (Engine.sub_advance). *)
let advance_sub env (d : Delta.t) s =
  match s.kind with
  | Sub_unql q ->
    let g =
      match Unql.Cache.find env.cache ~db:env.db q with
      | Some g -> g
      | None ->
        let g = Unql.Eval.eval ~db:env.db q in
        Unql.Cache.add env.cache ~db:env.db q g;
        g
    in
    let text = render_graph g in
    if text = s.last then None else Some text
  | Sub_datalog ds ->
    if Delta.monotone d && not d.Delta.new_has_eps then begin
      let triples =
        List.filter_map
          (fun (e : Delta.edge) ->
            match e.Delta.lab with
            | Graph.Eps -> None
            | Graph.Lab l -> Some [ Label.Int e.Delta.src; l; Label.Int e.Delta.dst ])
          d.Delta.added
      in
      match Datalog.Incremental.advance ds.state ~edb_delta:[ ("edge", triples) ] with
      | [] -> None
      | _ ->
        let text = Plan.render_datalog_sorted (Datalog.Incremental.result ds.state) in
        if text = s.last then None else Some text
    end
    else begin
      ds.state <-
        Datalog.Incremental.prepare ~edb:(Relstore.Triple.edb env.db) ds.prog;
      let text = Plan.render_datalog_sorted (Datalog.Incremental.result ds.state) in
      if text = s.last then None else Some text
    end

(* Returns the ack body and the pushed frame bodies. *)
let update env line =
  let req =
    span "serve.proto_parse" (fun () ->
        match Proto.parse_request line with
        | Ok r -> r
        | Error d -> raise (Ssd_diag.Fail d))
  in
  let old_db = env.db in
  let db' = span "update.apply" (fun () -> Lorel.Update.run ~db:old_db req.Proto.body) in
  span "store.commit" (fun () -> Store.commit env.store db');
  let d = span "incr.diff" (fun () -> Delta.diff old_db db') in
  let labels = Delta.touched_labels d in
  let kept, dropped =
    span "cache.revalidate" (fun () ->
        Unql.Cache.revalidate env.cache ~old_db ~new_db:db' ~keep:(fun qtext ->
            Unql.Footprint.disjoint (footprint env qtext) labels))
  in
  env.db <- db';
  let pushes =
    List.filter_map
      (fun s ->
        if Unql.Footprint.disjoint s.fp labels then None
        else
          span "incr.sub_eval" (fun () ->
              match advance_sub env d s with
              | None -> None
              | Some text ->
                s.last <- text;
                Some text))
      env.subs
  in
  let ack =
    span "serve.render_ack" (fun () ->
        Printf.sprintf
          "updated: %d nodes, %d edges; cache %d kept %d invalidated; %d deltas pushed\n"
          (Graph.n_nodes db') (Graph.n_edges db') kept dropped (List.length pushes))
  in
  (ack, pushes)

(* ------------------------------------------------------------------ *)
(* Running a replay                                                    *)
(* ------------------------------------------------------------------ *)

type outcome = {
  request_ns : (int, float) Hashtbl.t; (* record id -> serve.request duration *)
  drift : int; (* replayed bodies that differ from the server's *)
  ack_cache_drift : int; (* acks that differ only in cache kept/dropped counts *)
  open_read_bytes : int;
  write_io : int * int * int; (* pwrite bytes, fsyncs, updates during the write phase *)
  recovered_txns : int;
}

(* "updated: N nodes, E edges; cache K kept D invalidated; P deltas
   pushed" without the cache counts, which depend on how connection B's
   cache fills raced the updates on the server. *)
let ack_shape s =
  match String.split_on_char ';' s with
  | [ counts; _cache; pushed ] -> Some (counts, pushed)
  | _ -> None

(* [store_dir] holds a clean copy of the initial store, [crashed_dir]
   a copy of the store as kill -9 left it. *)
let run ~traced ~store_dir ~crashed_dir (records : Record.t list) =
  Spans.reset ~enabled:traced;
  io.write_bytes <- 0;
  io.fsyncs <- 0;
  io.read_bytes <- 0;
  let store = span "store.open" (fun () -> Store.open_ (counted_vfs (Vfs.real store_dir))) in
  let open_read_bytes = io.read_bytes in
  let env =
    {
      db = Store.graph store;
      cache = Unql.Cache.create ~capacity:128 ();
      store;
      subs = [];
      fp_memo = Hashtbl.create 64;
    }
  in
  let request_ns = Hashtbl.create 1024 in
  let drift = ref 0 and ack_cache_drift = ref 0 in
  let w_bytes0 = ref 0 and w_fsyncs0 = ref 0 and n_updates = ref 0 in
  List.iter
    (fun (r : Record.t) ->
      let line = Plan.line r.Record.req in
      let t_req = Ssd_obs.Clock.now_ns () in
      Spans.in_request r.Record.id (fun () ->
          span "serve.request" (fun () ->
              match r.Record.req with
              | Plan.Query _ ->
                if query env line <> r.Record.resp.Proto.body then incr drift
              | Plan.Subscribe _ ->
                if subscribe env line <> r.Record.resp.Proto.body then incr drift
              | Plan.Update _ ->
                if !n_updates = 0 then begin
                  w_bytes0 := io.write_bytes;
                  w_fsyncs0 := io.fsyncs
                end;
                incr n_updates;
                let ack, _pushes = update env line in
                let server = r.Record.resp.Proto.body in
                if ack <> server then
                  if ack_shape ack <> None && ack_shape ack = ack_shape server then
                    incr ack_cache_drift
                  else incr drift
              | Plan.Stats -> ()));
      Hashtbl.replace request_ns r.Record.id (Ssd_obs.Clock.now_ns () -. t_req))
    records;
  let write_io = (io.write_bytes - !w_bytes0, io.fsyncs - !w_fsyncs0, !n_updates) in
  Store.close store;
  let crashed =
    span "store.recover" (fun () -> Store.open_ (counted_vfs (Vfs.real crashed_dir)))
  in
  let recovered_txns = (Store.recovery crashed).Store.recovered_txns in
  Store.close crashed;
  {
    request_ns;
    drift = !drift;
    ack_cache_drift = !ack_cache_drift;
    open_read_bytes;
    write_io;
    recovered_txns;
  }
