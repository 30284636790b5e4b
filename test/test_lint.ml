(* The static analyzer: one golden case per diagnostic code, the
   soundness property the hygiene pass promises (a query that lints with
   zero errors evaluates without raising), and semantics preservation of
   lint-informed dead-path pruning. *)

module Q = QCheck2.Gen
module A = Unql.Ast
module L = Ssd_lint
module Diag = Ssd_diag
module Graph = Ssd.Graph
module Label = Ssd.Label
module Regex = Ssd_automata.Regex

let figure1 = Ssd_workload.Movies.figure1 ()

(* One node with a self-loop: the smallest cyclic database. *)
let loop_db =
  let b = Graph.Builder.create () in
  let n = Graph.Builder.add_node b in
  Graph.Builder.set_root b n;
  Graph.Builder.add_edge b n (Label.sym "a") n;
  Graph.Builder.finish b

let unql ?db src = L.check_src ~lang:L.Unql ?db src
let lorel ?db src = L.check_src ~lang:L.Lorel ?db src
let datalog src = L.check_src ~lang:L.Datalog src

let codes r = List.map (fun (d : Diag.t) -> d.Diag.code) r.L.diags

let expect code r =
  Alcotest.(check bool)
    (Printf.sprintf "reports %s (got: %s)" code (String.concat "," (codes r)))
    true
    (List.mem code (codes r))

(* ------------------------------------------------------------------ *)
(* Golden cases                                                        *)
(* ------------------------------------------------------------------ *)

let test_syntax () =
  expect "SSD001" (unql "select where");
  expect "SSD002" (lorel "select");
  expect "SSD003" (datalog "p(?X :-")

let test_paths () =
  expect "SSD101" (unql ~db:figure1 {|select {r: \t} where {zzz: \t} <- DB|});
  expect "SSD102" (unql ~db:figure1 {|select {r: \t} where {entry.movie.zzz: \t} <- DB|});
  (* a literally-void regex is not expressible in the concrete syntax;
     check the AST-level analysis *)
  let q =
    A.Select
      ( A.Tree [ (A.Llit (Label.sym "r"), A.Var "t") ],
        [ A.Gen (A.Pedges [ ([ A.Sregex (Regex.Void, None) ], A.Pbind "t") ], A.Db) ] )
  in
  let r = L.Unql_lint.check q in
  Alcotest.(check bool) "reports SSD103" true
    (List.exists (fun (d : Diag.t) -> d.Diag.code = "SSD103") r.L.Unql_lint.diags)

let test_datalog_safety () =
  expect "SSD201" (datalog "bad(?X) :- edge(?A, ?B, ?C).");
  expect "SSD202" (datalog "q(?X) :- root(?X). p(?X) :- root(?X), not q(?Z).");
  expect "SSD203" (datalog "p(?X) :- root(?X), ?Z > 3.");
  expect "SSD210" (datalog "p(?X) :- root(?X). p(?Y) :- edge(?X, ?L, ?Y), not p(?X).");
  expect "SSD211" (datalog "p(?X) :- nosuch(?X).");
  expect "SSD212" (datalog "p(?X) :- edge(?X, ?Y).")

let test_unql_hygiene () =
  expect "SSD301" (unql {|select {r: {}} where {a: \t} <- DB|});
  expect "SSD302" (unql {|select {r: \t} where {a: \t} <- DB, {b: \t} <- DB|});
  expect "SSD303" (unql {|select {r: u} where {a: \t} <- DB|});
  expect "SSD304" (unql {|select {r: {}} where {a: \t} <- DB, t = movie|});
  expect "SSD304" (unql {|select {r: \u} where {a: \t} <- DB, {\t.b: \u} <- DB|});
  expect "SSD305" (unql "f(DB)");
  expect "SSD306" (unql "let sfun f({a: t}) = f(DB) in f(DB)");
  expect "SSD307" (unql "let sfun f({a: t}) = x in f(DB)");
  expect "SSD308" (unql "let sfun f({<a*>: t}) = {} in f(DB)");
  expect "SSD309" (unql "let sfun f({a: t}) = let sfun f({b: u}) = {} in {} in f(DB)");
  expect "SSD310" (unql ~db:loop_db {|let sfun f({\l: t}) = {l: f(t)} in f(DB)|});
  (* ... but re-emitting on acyclic data is fine: no warning.
     (figure1 itself is cyclic — movies and actors reference each other —
     so build a little tree.) *)
  let tree_db = Ssd.Syntax.parse_graph "{a: {b: {}}}" in
  let r = unql ~db:tree_db {|let sfun f({\l: t}) = {l: f(t)} in f(DB)|} in
  Alcotest.(check bool) "no SSD310 on a tree" false (List.mem "SSD310" (codes r))

let test_uncal_markers () =
  let module U = Unql.Uncal in
  let d311 = L.check_uncal (U.label (Label.sym "a") (U.mark "y")) in
  Alcotest.(check bool) "SSD311" true
    (List.exists (fun (d : Diag.t) -> d.Diag.code = "SSD311") d311);
  let d312 = L.check_uncal (U.rename_inputs (fun _ -> "z") U.empty) in
  Alcotest.(check bool) "SSD312" true
    (List.exists (fun (d : Diag.t) -> d.Diag.code = "SSD312") d312);
  Alcotest.(check int) "empty is clean" 0 (List.length (L.check_uncal U.empty))

let test_lorel () =
  expect "SSD401" (lorel "select X.a from DB.b Y");
  expect "SSD402" (lorel ~db:figure1 "select X.title from DB.entry.zzz X");
  expect "SSD403" (lorel "select X.title from DB.entry X, DB.entry X")

(* Cardinality / cost codes (SSD25x): one golden case per code, each on
   the smallest database that triggers it. *)
let card_codes (c : L.Card.t) = List.map (fun (d : Diag.t) -> d.Diag.code) c.L.Card.diags

let expect_card code c =
  Alcotest.(check bool)
    (Printf.sprintf "reports %s (got: %s)" code (String.concat "," (card_codes c)))
    true
    (List.mem code (card_codes c))

let reject_card code c =
  Alcotest.(check bool)
    (Printf.sprintf "no %s (got: %s)" code (String.concat "," (card_codes c)))
    false
    (List.mem code (card_codes c))

let tree_db = Ssd.Syntax.parse_graph "{a: {b: {}}}"

let test_cardinality () =
  let ann g = Ssd_schema.Annotated.build g in
  let cost ?declared ~lang db src =
    ignore declared;
    L.check_cost ~lang ~annotated:(ann db) ?declared src
  in
  (* SSD250: statically empty — a path the DataGuide proves dead *)
  expect_card "SSD250"
    (cost ~lang:L.Unql figure1 {|select {r: \t} where {entry.zzz: \t} <- DB|});
  expect_card "SSD250" (cost ~lang:L.Lorel tree_db "select X from DB.zzz X");
  expect_card "SSD250"
    (cost ~lang:L.Datalog Graph.empty "p(?X) :- edge(?X, ?L, ?Y).");
  (* SSD251: always singleton *)
  expect_card "SSD251"
    (cost ~lang:L.Unql tree_db {|select {r: \t} where {a.b: \t} <- DB|});
  expect_card "SSD251" (cost ~lang:L.Lorel tree_db "select X.b from DB.a X");
  (* SSD252: the syntactic conjunct order builds a cross product *)
  let movies = Ssd_workload.Movies.generate ~seed:42 ~n_entries:30 () in
  expect_card "SSD252"
    (cost ~lang:L.Unql movies
       {|select {r: u} where {\a: \t} <- DB, {<_*.zzz>: \u} <- DB|});
  expect_card "SSD252"
    (cost ~lang:L.Datalog movies "p(?X) :- edge(?X, ?L, ?Y), root(?X).");
  (* ... and the planned order is cheaper than the syntactic one *)
  let c =
    cost ~lang:L.Unql movies {|select {r: u} where {\a: \t} <- DB, {<_*.zzz>: \u} <- DB|}
  in
  Alcotest.(check bool) "planned < syntax" true
    (c.L.Card.cost_planned < c.L.Card.cost_syntax);
  (* SSD253: recursion over a cyclic region *)
  expect_card "SSD253"
    (cost ~lang:L.Unql loop_db {|select {r: \t} where {<a*>: \t} <- DB|});
  expect_card "SSD253" (cost ~lang:L.Lorel loop_db "select X from DB.# X");
  (* ... but recursion over a tree is bounded *)
  reject_card "SSD253"
    (cost ~lang:L.Unql tree_db {|select {r: \t} where {<a*>: \t} <- DB|})

let test_result_schema () =
  let ann = Ssd_schema.Annotated.build tree_db in
  let q = Unql.Parser.parse {|select {r: \t} where {a: \t} <- DB|} in
  (* the select grafts the guide region below "a" under label r: {r: {b: {}}} *)
  let good = Ssd_schema.Gschema.parse "{r: {b: {}}}" in
  reject_card "SSD254" (L.Card.check_unql ann ~declared:good q);
  let bad = Ssd_schema.Gschema.parse "{r: {c: #int}}" in
  expect_card "SSD254" (L.Card.check_unql ann ~declared:bad q)

(* Runtime codes: the typed exceptions carry the same codes the registry
   documents. *)
let test_runtime_codes () =
  let code_of f = try ignore (f ()); "none" with Diag.Fail d -> d.Diag.code in
  Alcotest.(check string) "SSD520" "SSD520"
    (code_of (fun () -> Relstore.Relation.create [ "a"; "a" ]));
  Alcotest.(check string) "SSD530" "SSD530"
    (code_of (fun () ->
         Unql.Views.(define ~name:"v" "DB" (define ~name:"v" "DB" empty))));
  let runtime_code f = try ignore (f ()); "none" with
    | Unql.Eval.Runtime_error d -> d.Diag.code
  in
  Alcotest.(check string) "SSD303 at runtime" "SSD303"
    (runtime_code (fun () -> Unql.Eval.eval ~db:figure1 (A.Var "u")))

let test_registry () =
  List.iter
    (fun (code, _, _) ->
      Alcotest.(check bool) (code ^ " described") true (Diag.describe code <> None))
    Diag.codes;
  (* every code this suite exercises is registered *)
  List.iter
    (fun c -> Alcotest.(check bool) (c ^ " registered") true (Diag.describe c <> None))
    [ "SSD101"; "SSD210"; "SSD310"; "SSD403"; "SSD530" ]

let test_report_plumbing () =
  let r = unql ~db:figure1 {|select {t: \T} where {entry.movie.title: \T} <- DB|} in
  Alcotest.(check int) "no diags" 0 (List.length r.L.diags);
  Alcotest.(check int) "one path" 1 r.L.paths_checked;
  Alcotest.(check bool) "title reachable" true
    (List.mem (Label.sym "title") r.L.reachable_labels);
  (* the fingerprint is the cache's: a following cache lookup can reuse it *)
  let q = Unql.Parser.parse {|select {t: \T} where {entry.movie.title: \T} <- DB|} in
  Alcotest.(check bool) "fingerprint matches cache" true
    (r.L.fingerprint = Some (Unql.Cache.query_fingerprint q))

let test_schema_target () =
  let schema = Ssd_schema.Gschema.parse "{entry: {movie: {title: #string}}}" in
  let r =
    L.check_src ~lang:L.Unql ~target:(L.Schema schema)
      {|select {r: \t} where {entry.movie.year: \t} <- DB|}
  in
  expect "SSD102" r;
  let ok =
    L.check_src ~lang:L.Unql ~target:(L.Schema schema)
      {|select {r: \t} where {entry.movie.title: \t} <- DB|}
  in
  Alcotest.(check int) "live under schema" 0 ok.L.dead_paths;
  (* Regex generators go through the query-NFA × schema product. *)
  let live_regex =
    L.check_src ~lang:L.Unql ~target:(L.Schema schema)
      {|select {r: \t} where {<entry._*.title>: \t} <- DB|}
  in
  Alcotest.(check int) "regex live under schema" 0 live_regex.L.dead_paths;
  let dead_regex =
    L.check_src ~lang:L.Unql ~target:(L.Schema schema)
      {|select {r: \t} where {<entry.(movie)*.year>: \t} <- DB|}
  in
  expect "SSD101" dead_regex;
  Alcotest.(check int) "regex dead under schema" 1 dead_regex.L.dead_paths

let test_prune () =
  let guide = Ssd_schema.Dataguide.build figure1 in
  let q =
    Unql.Parser.parse
      {|select {r: \t} where {entry.movie.zzz: \t} <- DB|}
  in
  let q', n = L.prune (L.Guide guide) q in
  Alcotest.(check int) "one select pruned" 1 n;
  Alcotest.(check bool) "result empty" true
    (Ssd.Bisim.equal (Unql.Eval.eval ~db:figure1 q') Graph.empty)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let unql_errors (r : L.Unql_lint.report) = Diag.count Diag.Error r.L.Unql_lint.diags

let print_pair (g, q) =
  Printf.sprintf "query: %s\ndb: %s" (Unql.Pretty.expr_to_string q) (Graph.to_string g)

let props =
  [
    Gen.qtest "lint-clean queries do not raise (figure1)" ~count:150
      ~print:(fun q -> Unql.Pretty.expr_to_string q)
      Gen.unql_query
      (fun q ->
        let r = L.Unql_lint.check ~db:figure1 q in
        unql_errors r > 0
        ||
        match Unql.Eval.eval ~db:figure1 q with
        | _ -> true
        | exception (Unql.Eval.Runtime_error _ | A.Ill_formed _) -> false);
    Gen.qtest "lint-clean queries do not raise (random graphs)" ~count:150
      ~print:print_pair
      (Q.pair Gen.graph Gen.unql_query)
      (fun (g, q) ->
        let r = L.Unql_lint.check ~db:g q in
        unql_errors r > 0
        ||
        match Unql.Eval.eval ~db:g q with
        | _ -> true
        | exception (Unql.Eval.Runtime_error _ | A.Ill_formed _) -> false);
    Gen.qtest "prune preserves semantics" ~count:100 ~print:print_pair
      (Q.pair Gen.graph Gen.unql_query)
      (fun (g, q) ->
        let guide = Ssd_schema.Dataguide.build g in
        let q', _ = L.prune (L.Guide guide) q in
        Ssd.Bisim.equal (Unql.Eval.eval ~db:g q) (Unql.Eval.eval ~db:g q'));
    (* The soundness contract of the estimator: for recursion-free
       queries the static estimate upper-bounds the actual number of
       result bindings (each environment emits exactly one top-level
       edge of the generated queries' head, so edges = environments). *)
    Gen.qtest "estimate upper-bounds actual (recursion-free)" ~count:150
      ~print:print_pair
      (Q.pair Gen.graph Gen.unql_query_norec)
      (fun (g, q) ->
        let r = L.Unql_lint.check ~db:g q in
        unql_errors r > 0
        ||
        let card = L.Card.check_unql (Ssd_schema.Annotated.build g) q in
        match card.L.Card.est_total with
        | None -> true
        | Some est ->
          let result = Unql.Eval.eval ~db:g q in
          let actual = List.length (Graph.labeled_succ result (Graph.root result)) in
          est >= float_of_int actual);
  ]

let tests =
  [
    Alcotest.test_case "syntax codes" `Quick test_syntax;
    Alcotest.test_case "path satisfiability codes" `Quick test_paths;
    Alcotest.test_case "datalog safety codes" `Quick test_datalog_safety;
    Alcotest.test_case "unql hygiene codes" `Quick test_unql_hygiene;
    Alcotest.test_case "uncal marker codes" `Quick test_uncal_markers;
    Alcotest.test_case "lorel codes" `Quick test_lorel;
    Alcotest.test_case "cardinality codes" `Quick test_cardinality;
    Alcotest.test_case "result-schema subsumption" `Quick test_result_schema;
    Alcotest.test_case "runtime exception codes" `Quick test_runtime_codes;
    Alcotest.test_case "code registry is total" `Quick test_registry;
    Alcotest.test_case "report plumbing" `Quick test_report_plumbing;
    Alcotest.test_case "schema-automaton target" `Quick test_schema_target;
    Alcotest.test_case "dead-path pruning" `Quick test_prune;
  ]
  @ props
