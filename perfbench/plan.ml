(* Workload generation and reference answers.

   Everything here is a function of the seed: the movie database, the
   literal pools drawn from it, the query streams and the inserts.  The
   server only ever sees the store built from the generated data and
   the request lines built here.

   Query costs must not depend on the seed, only on the workload: the
   mix of query templates is fixed per workload and the seed picks the
   literals, so two seeds give the same cost distribution over
   statistically equal databases. *)

module Graph = Ssd.Graph
module Label = Ssd.Label
module Prng = Ssd_workload.Prng

type lang =
  | Unql
  | Lorel
  | Datalog

let lang_name = function Unql -> "unql" | Lorel -> "lorel" | Datalog -> "datalog"

type req =
  | Query of lang * string
  | Update of string
  | Subscribe of lang * string
  | Stats

let options_token = function
  | Unql -> "-"
  | Lorel -> "lang=lorel"
  | Datalog -> "lang=datalog"

let line = function
  | Query (l, text) -> Printf.sprintf "QUERY %s %s" (options_token l) text
  | Update text -> "UPDATE - " ^ text
  | Subscribe (l, text) -> Printf.sprintf "SUBSCRIBE %s %s" (options_token l) text
  | Stats -> "STATS"

(* ------------------------------------------------------------------ *)
(* Sizes                                                               *)
(* ------------------------------------------------------------------ *)

let n_entries = 1000
let hot_texts = 64

(* Inserts per run.  Fixed, because the WAL grows by a full page diff
   per insert and is never checkpointed while serving: recovery time
   depends on this count.  100 acks give ten samples beyond the p90. *)
let n_updates = 100

(* In write-mix, connection A pauses between an insert's ack and the
   next insert, uniform in [pause_min_ns, pause_max_ns).  Back to back,
   inserts hold the store lock almost all the time: B then completes
   about one read per insert, lock-stepped with the insert cycle, too
   few for a p99 and with a median that flips between waiting one
   insert and waiting two.  With the pause B reads in the gaps, and the
   reads that collide with an insert form the tail.  A gap about as
   long as an insert keeps B's read rate from swinging with the insert
   time. *)
let pause_min_ns = 50e6
let pause_max_ns = 150e6

(* ------------------------------------------------------------------ *)
(* Literal pools, read off the generated database                      *)
(* ------------------------------------------------------------------ *)

type pools = {
  titles : string array;
  years : int array;
  actors : string array;
  directors : string array;
}

let pools_of g =
  let titles = ref [] and years = ref [] and actors = ref [] and directors = ref [] in
  let succ n name =
    List.filter_map
      (fun (l, v) -> if Label.equal l (Label.sym name) then Some v else None)
      (Graph.labeled_succ g n)
  in
  let leaves n = List.map fst (Graph.labeled_succ g n) in
  let rec cast_names n =
    List.concat_map
      (fun (l, v) ->
        match l with
        | Label.Str s -> [ s ]
        | Label.Sym _ -> cast_names v
        | _ -> [])
      (Graph.labeled_succ g n)
  in
  List.iter
    (fun e ->
      List.iter
        (fun m ->
          List.iter
            (fun t ->
              List.iter (function Label.Str s -> titles := s :: !titles | _ -> ()) (leaves t))
            (succ m "title");
          List.iter
            (fun y ->
              List.iter (function Label.Int i -> years := i :: !years | _ -> ()) (leaves y))
            (succ m "year");
          List.iter
            (fun d ->
              List.iter
                (function Label.Str s -> directors := s :: !directors | _ -> ())
                (leaves d))
            (succ m "director");
          List.iter (fun c -> actors := cast_names c @ !actors) (succ m "cast"))
        (succ e "movie"))
    (succ (Graph.root g) "entry");
  let uniq l = Array.of_list (List.sort_uniq compare l) in
  {
    titles = uniq !titles;
    years = uniq !years;
    actors = uniq !actors;
    directors = uniq !directors;
  }

(* ------------------------------------------------------------------ *)
(* Query templates                                                     *)
(* ------------------------------------------------------------------ *)

let str s = Label.to_string (Label.Str s)

(* The title listing: the hot set's one large answer, the subscription
   query and the durability check. *)
let q_titles = "select {t: \\T} where {entry.movie.title: \\T} <- DB"
let lorel_titles = "select X.title from DB.entry.movie X"

let datalog_titles =
  "t(?T) :- root(?R), edge(?R, entry, ?E), edge(?E, movie, ?M), edge(?M, title, ?N), \
   edge(?N, ?T, ?L)."

type template =
  | By_year
  | By_actor
  | By_director
  | By_title

let unql_query p rng = function
  | By_year ->
    Printf.sprintf
      "select {t: \\T} where {<entry.movie>: \\m} <- DB, {year.%d} <- m, {title: \\T} <- m"
      (Prng.choose rng (Array.to_list p.years))
  | By_actor ->
    Printf.sprintf
      "select {t: \\T} where {<entry.movie>: \\m} <- DB, {<cast._*.%s>} <- m, {title: \\T} <- m"
      (str p.actors.(Prng.int rng (Array.length p.actors)))
  | By_director ->
    Printf.sprintf
      "select {t: \\T} where {<entry.movie>: \\m} <- DB, {director.%s} <- m, {title: \\T} <- m"
      (str p.directors.(Prng.int rng (Array.length p.directors)))
  | By_title ->
    Printf.sprintf
      "select {y: \\Y} where {<entry.movie>: \\m} <- DB, {title.%s} <- m, {year: \\Y} <- m"
      (str p.titles.(Prng.int rng (Array.length p.titles)))

let lorel_query p rng = function
  | By_year ->
    Printf.sprintf "select X.title from DB.entry.movie X where X.year = %d"
      (Prng.choose rng (Array.to_list p.years))
  | By_actor ->
    Printf.sprintf "select X.title from DB.entry.movie X where X.cast.# = %s"
      (str p.actors.(Prng.int rng (Array.length p.actors)))
  | By_director ->
    Printf.sprintf "select X.title from DB.entry.movie X where X.director = %s"
      (str p.directors.(Prng.int rng (Array.length p.directors)))
  | By_title ->
    Printf.sprintf "select X.year from DB.entry.movie X where X.title = %s"
      (str p.titles.(Prng.int rng (Array.length p.titles)))

let datalog_by_year p rng =
  Printf.sprintf
    "t(?T) :- root(?R), edge(?R, entry, ?E), edge(?E, movie, ?M), edge(?M, year, ?Y), \
     edge(?Y, %d, ?Z), edge(?M, title, ?N), edge(?N, ?T, ?L)."
    (Prng.choose rng (Array.to_list p.years))

(* ------------------------------------------------------------------ *)
(* Streams                                                             *)
(* ------------------------------------------------------------------ *)

let all_templates = [| By_year; By_actor; By_director; By_title |]

(* The hot set: [hot_texts] distinct UnQL texts.  Rank 4 is the full
   title listing (a fixed rank, so its share of traffic is the same for
   every seed); the other ranks cycle through the four templates. *)
let hot_set p rng =
  let seen = Hashtbl.create 64 in
  Array.init hot_texts (fun i ->
      if i = 4 then q_titles
      else
        let rec fresh () =
          let q = unql_query p rng all_templates.(i mod 4) in
          if Hashtbl.mem seen q || q = q_titles then fresh ()
          else begin
            Hashtbl.add seen q ();
            q
          end
        in
        fresh ())

(* Zipf(1) over ranks: P(i) proportional to 1/(i+1). *)
let zipf_sampler n rng =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (i + 1));
    cdf.(i) <- !acc
  done;
  let total = !acc in
  fun () ->
    let u = Prng.float rng *. total in
    let rec find lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then find (mid + 1) hi else find lo mid
    in
    find 0 (n - 1)

(* The cold mix: the four UnQL and the four Lorel templates at weight 2
   each, one datalog template at weight 1 (each datalog query rebuilds
   the triple EDB and costs several UnQL queries).  Literals are uniform
   over every title, year, actor and director in the database:
   thousands of distinct texts against a 128-entry result cache. *)
let cold_query p rng =
  match Prng.int rng 17 with
  | k when k < 8 -> Query (Unql, unql_query p rng all_templates.(k / 2))
  | k when k < 16 -> Query (Lorel, lorel_query p rng all_templates.((k - 8) / 2))
  | _ -> Query (Datalog, datalog_by_year p rng)

let insert rng ~seed k =
  Printf.sprintf "insert DB := {entry: {movie: {title: %s, year: %d}}}"
    (str (Printf.sprintf "Bench %d-%d" seed k))
    (2000 + Prng.int rng 30)

(* ------------------------------------------------------------------ *)
(* The plan of one run                                                 *)
(* ------------------------------------------------------------------ *)

type workload =
  | Read_hot
  | Read_cold
  | Write_mix

let workload_name = function
  | Read_hot -> "read-hot"
  | Read_cold -> "read-cold"
  | Write_mix -> "write-mix"

let workload_of_string s =
  List.find_opt (fun w -> workload_name w = s) [ Read_hot; Read_cold; Write_mix ]

type t = {
  workload : workload;
  g0 : Graph.t; (* the graph the store holds after init *)
  hot : string array;
  next_read : unit -> req; (* the read stream: hot or cold *)
  pause : unit -> float; (* ns connection A waits before its next insert in write-mix *)
  probe : req; (* the cold-start query *)
  subs : req list; (* SUBSCRIBE requests held by connection B *)
  inserts : string array; (* the UPDATE texts, in order *)
  versions : (int * int) array; (* (nodes, edges) after k inserts, k = 0..n *)
  final : Graph.t; (* the graph after every insert *)
}

let make ~workload ~seed g0 =
  let rng = Prng.create ~seed:(seed * 7919 + 17) in
  let p = pools_of g0 in
  let hot = hot_set p rng in
  let zipf = zipf_sampler hot_texts rng in
  let next_read =
    match workload with
    | Read_hot | Write_mix -> fun () -> Query (Unql, hot.(zipf ()))
    | Read_cold -> fun () -> cold_query p rng
  in
  let probe = Query (Unql, unql_query p rng By_title) in
  let inserts = Array.init n_updates (fun k -> insert rng ~seed (k + 1)) in
  let versions = Array.make (n_updates + 1) (0, 0) in
  versions.(0) <- (Graph.n_nodes g0, Graph.n_edges g0);
  let final = ref g0 in
  Array.iteri
    (fun k text ->
      final := Lorel.Update.run ~db:!final text;
      versions.(k + 1) <- (Graph.n_nodes !final, Graph.n_edges !final))
    inserts;
  {
    workload;
    g0;
    hot;
    next_read;
    pause = (fun () -> pause_min_ns +. (Prng.float rng *. (pause_max_ns -. pause_min_ns)));
    probe;
    subs = [ Subscribe (Unql, q_titles); Subscribe (Datalog, datalog_titles) ];
    inserts;
    versions;
    final = !final;
  }

(* The graph after [k] inserts, recomputed from [g0]: versions are
   needed only while checking connection B's answers in write-mix, one
   at a time and in order, so they are rolled forward, not kept. *)
let roll t =
  let cur = ref t.g0 and k = ref 0 in
  fun target ->
    if target < !k then begin
      cur := t.g0;
      k := 0
    end;
    while !k < target do
      cur := Lorel.Update.run ~db:!cur t.inserts.(!k);
      incr k
    done;
    !cur

(* ------------------------------------------------------------------ *)
(* Reference answers: the evaluators called directly, rendered as the  *)
(* server renders text results                                         *)
(* ------------------------------------------------------------------ *)

let render_datalog results =
  let buf = Buffer.create 256 in
  List.iter
    (fun (pred, tuples) ->
      Buffer.add_string buf (Printf.sprintf "%s: %d tuples\n" pred (List.length tuples));
      List.iter
        (fun tuple ->
          Buffer.add_string buf
            (Printf.sprintf "  %s(%s)\n" pred
               (String.concat ", " (List.map Label.to_string tuple))))
        tuples)
    results;
  Buffer.contents buf

(* Subscription frames sort predicates and tuples (see Engine). *)
let render_datalog_sorted results =
  render_datalog
    (results
    |> List.map (fun (p, ts) -> (p, List.sort_uniq compare ts))
    |> List.sort compare)

let reference db = function
  | Query (Unql, text) -> Graph.to_string (Unql.Eval.eval ~db (Unql.Parser.parse text)) ^ "\n"
  | Query (Lorel, text) ->
    Graph.to_string (Lorel.Eval.eval ~db (Lorel.Parser.parse text)) ^ "\n"
  | Query (Datalog, text) ->
    render_datalog
      (Relstore.Datalog.eval ~edb:(Relstore.Triple.edb db) (Relstore.Datalog.parse text))
  | Subscribe (Unql, text) ->
    Graph.to_string (Unql.Eval.eval ~db (Unql.Parser.parse text)) ^ "\n"
  | Subscribe (_, text) ->
    render_datalog_sorted
      (Relstore.Datalog.eval ~edb:(Relstore.Triple.edb db) (Relstore.Datalog.parse text))
  | Update _ | Stats -> invalid_arg "Plan.reference: not a query"

(* Memoized references, keyed by (version, request line). *)
type refs = (int * string, string) Hashtbl.t

let refs () : refs = Hashtbl.create 256

let expected (memo : refs) ~version db r =
  let key = (version, line r) in
  match Hashtbl.find_opt memo key with
  | Some s -> s
  | None ->
    let s = reference db r in
    Hashtbl.add memo key s;
    s

(* The reference answers set-up computes up front: the hot set and the
   subscriptions on the initial graph, the durability checks on the
   final one. *)
let precompute t memo =
  if t.workload <> Read_cold then
    Array.iter (fun q -> ignore (expected memo ~version:0 t.g0 (Query (Unql, q)))) t.hot;
  ignore (expected memo ~version:0 t.g0 t.probe);
  List.iter (fun s -> ignore (expected memo ~version:0 t.g0 s)) t.subs;
  List.iter
    (fun r -> ignore (expected memo ~version:n_updates t.final r))
    (Query (Unql, q_titles) :: Query (Lorel, lorel_titles) :: t.subs)
