(* Static analysis of UnQL queries: binder hygiene (SSD30x) and path
   satisfiability against a DataGuide or graph schema (SSD10x).

   Hygiene is an abstract interpretation of the evaluator's environment
   discipline: we track, per name, whether it is tree-bound or
   label-bound, and flag exactly the situations in which {!Unql.Eval}
   would raise — so a query with zero lint errors cannot reach any of
   the evaluator's typed failures (property-tested).

   Path satisfiability follows Buneman §4 / the RPQ-emptiness view of
   Angles et al.: each generator anchored at [DB] is a concatenation of
   one-step (or regex) automata; we advance a frontier of summary nodes
   (DataGuide nodes, or schema nodes under predicate compatibility)
   through the product and report the step at which the frontier — and
   with it the product automaton — becomes empty. *)

module A = Unql.Ast
module P = Unql.Parser
module Diag = Ssd_diag
module Graph = Ssd.Graph
module Label = Ssd.Label
module Regex = Ssd_automata.Regex
module Lpred = Ssd_automata.Lpred
module Nfa = Ssd_automata.Nfa
module Product = Ssd_automata.Product
module Dataguide = Ssd_schema.Dataguide
module Gschema = Ssd_schema.Gschema
module SMap = Map.Make (String)
module SSet = Set.Make (String)

type target =
  | Guide of Dataguide.t
  | Schema of Gschema.t

type report = {
  diags : Diag.t list;
  paths_checked : int;
  dead_paths : int;
  reachable_labels : Label.t list;
}

(* ------------------------------------------------------------------ *)
(* Walker state                                                        *)
(* ------------------------------------------------------------------ *)

type kind =
  | Tree
  | Lab

type env = {
  vars : kind SMap.t;
  funs : SSet.t;
}

type st = {
  mutable diags : Diag.t list;
  marks : (P.mark_kind * int * int) array;
  msrc : string;
  mutable next_mark : int;
  mutable marks_ok : bool;
  target : target option;
  cyclic : bool; (* is the database known to be cyclic? gates SSD310 *)
  mutable paths_checked : int;
  mutable dead_paths : int;
  mutable labels : Label.t list;
}

let push st d = st.diags <- d :: st.diags

let diag st ?span sev ~code fmt =
  Printf.ksprintf (fun msg -> push st (Diag.make ?span sev ~code msg)) fmt

(* Marks were recorded in parse order; the walker visits pattern steps
   and binders in the same order, so each occurrence pops the next mark.
   A kind mismatch means the two orders diverged (defensive: should not
   happen) — spans are disabled rather than misattributed. *)
let take_mark st kind =
  if (not st.marks_ok) || st.next_mark >= Array.length st.marks then None
  else begin
    let k, a, b = st.marks.(st.next_mark) in
    if k = kind then begin
      st.next_mark <- st.next_mark + 1;
      Some (Diag.span_of_offsets st.msrc a b)
    end
    else begin
      st.marks_ok <- false;
      None
    end
  end

let underscored x = String.length x > 0 && x.[0] = '_'

(* ------------------------------------------------------------------ *)
(* Use/bind counting (for SSD301 unused binders)                       *)
(* ------------------------------------------------------------------ *)

let bump tbl x = Hashtbl.replace tbl x (1 + Option.value ~default:0 (Hashtbl.find_opt tbl x))

let get tbl x = Option.value ~default:0 (Hashtbl.find_opt tbl x)

(* References and binder occurrences inside one select (recursively,
   nested scopes included — over-approximating "used", so a warning is
   only issued for a name no occurrence could possibly refer to). *)
let use_counts e =
  let uses = Hashtbl.create 16 and binds = Hashtbl.create 16 in
  let label_use = function
    | A.Lname x -> bump uses x
    | A.Llit _ -> ()
  in
  let atom_use = function
    | A.Aname x -> bump uses x
    | A.Alit _ -> ()
  in
  let rec expr = function
    | A.Empty | A.Db -> ()
    | A.Var x -> bump uses x
    | A.Tree es ->
      List.iter
        (fun (le, e) ->
          label_use le;
          expr e)
        es
    | A.Union (a, b) ->
      expr a;
      expr b
    | A.Select (h, cls) ->
      expr h;
      List.iter clause cls
    | A.If (c, a, b) ->
      cond c;
      expr a;
      expr b
    | A.Let (x, a, b) ->
      bump binds x;
      expr a;
      expr b
    | A.Letsfun (d, e) ->
      List.iter case d.A.cases;
      expr e
    | A.App (_, a) -> expr a
  and clause = function
    | A.Gen (p, e) ->
      pat p;
      expr e
    | A.Where c -> cond c
  and pat = function
    | A.Pbind x -> bump binds x
    | A.Pany -> ()
    | A.Pedges es ->
      List.iter
        (fun (steps, sub) ->
          List.iter step steps;
          pat sub)
        es
  and step = function
    | A.Slit le -> label_use le
    | A.Sbind x -> bump binds x
    | A.Spred _ -> ()
    | A.Sregex (_, Some p) -> bump binds p
    | A.Sregex (_, None) -> ()
  and case c =
    (match c.A.cstep with
     | A.Sbind x -> bump binds x
     | _ -> ());
    expr c.A.cbody
  and cond = function
    | A.Ccmp (_, a, b) ->
      atom_use a;
      atom_use b
    | A.Cistype (_, a) | A.Cstarts (a, _) | A.Ccontains (a, _) -> atom_use a
    | A.Cempty e -> expr e
    | A.Cequal (a, b) ->
      expr a;
      expr b
    | A.Cnot c -> cond c
    | A.Cand (a, b) | A.Cor (a, b) ->
      cond a;
      cond b
  in
  expr e;
  (uses, binds)

(* ------------------------------------------------------------------ *)
(* Frontier stepping (path satisfiability)                             *)
(* ------------------------------------------------------------------ *)

(* The regex a step denotes for the product, under the current binding
   kinds: a bare name is an exact symbol unless it is (or may be) a
   label variable, in which case its value is unknown — Any keeps the
   check sound. *)
let step_regex env = function
  | A.Slit (A.Llit l) -> Regex.Atom (Lpred.Exact l)
  | A.Slit (A.Lname x) -> (
    match SMap.find_opt x env.vars with
    | Some Lab -> Regex.Atom Lpred.Any
    | Some Tree | None -> Regex.Atom (Lpred.Exact (Label.Sym x)))
  | A.Sbind _ -> Regex.Atom Lpred.Any
  | A.Spred p -> Regex.Atom p
  | A.Sregex (r, _) -> r

(* Query-NFA × schema product, transitions gated by predicate
   compatibility (both sides are predicates). *)
let schema_reach sch nfa ~starts =
  Product.accepted
    (Product.search ~succ:(Gschema.succ sch) ~matches:Lpred.compatible nfa ~starts)

let start_frontier = function
  | Guide g -> [ Graph.root (Dataguide.graph g) ]
  | Schema s -> [ Gschema.root s ]

let advance st target frontier re =
  match target with
  | Guide g ->
    let nodes, crossed = Product.reach (Dataguide.graph g) (Nfa.of_regex re) ~starts:frontier in
    st.labels <- crossed @ st.labels;
    nodes
  | Schema s -> (
    match re with
    | Regex.Atom p -> Gschema.step s frontier p
    | re -> schema_reach s (Nfa.of_regex re) ~starts:frontier)

(* ------------------------------------------------------------------ *)
(* The walker                                                          *)
(* ------------------------------------------------------------------ *)

(* Select-scoped bookkeeping for binder warnings. *)
type scope = {
  uses : (string, int) Hashtbl.t;
  binds : (string, int) Hashtbl.t;
  mutable warned : SSet.t; (* names already warned unused in this scope *)
}

let check_label st env ?span = function
  | A.Llit _ -> ()
  | A.Lname x -> (
    match SMap.find_opt x env.vars with
    | Some Tree ->
      diag st ?span Diag.Error ~code:"SSD304" "tree variable %s used in label position" x
    | Some Lab | None -> ())

let check_atom st env = function
  | A.Alit _ -> ()
  | A.Aname x -> (
    match SMap.find_opt x env.vars with
    | Some Tree ->
      diag st Diag.Error ~code:"SSD304" "tree variable %s used in a condition" x
    | Some Lab | None -> ())

(* Introduce a fresh (non-join) binding of [x]: unused / shadow
   warnings, then extend the environment. *)
let bind_fresh st env scope ?span x kind =
  if not (underscored x) then begin
    (match scope with
     | Some sc when get sc.uses x = 0 && get sc.binds x = 1 && not (SSet.mem x sc.warned) ->
       sc.warned <- SSet.add x sc.warned;
       diag st ?span Diag.Warning ~code:"SSD301" "binder %s is never used" x
     | _ -> ());
    if SMap.mem x env.vars then
      diag st ?span Diag.Warning ~code:"SSD302" "binding of %s shadows an earlier binding"
        x
  end;
  { env with vars = SMap.add x kind env.vars }

(* The binder kinds a clause list will have established once all its
   generators ran — the select head is checked under this environment
   (it is evaluated after the clauses, but parsed before them). *)
let clause_kinds env clauses =
  let rec pat vars = function
    | A.Pbind x -> SMap.add x Tree vars
    | A.Pany -> vars
    | A.Pedges es ->
      List.fold_left
        (fun vars (steps, sub) ->
          let vars =
            List.fold_left
              (fun vars -> function
                | A.Sbind x ->
                  if SMap.find_opt x vars = Some Tree then vars else SMap.add x Lab vars
                | A.Sregex (_, Some p) -> SMap.add p Tree vars
                | A.Slit _ | A.Spred _ | A.Sregex (_, None) -> vars)
              vars steps
          in
          pat vars sub)
        vars es
  in
  List.fold_left
    (fun vars -> function
      | A.Gen (p, _) -> pat vars p
      | A.Where _ -> vars)
    env.vars clauses

let rec walk_expr st env e =
  match e with
  | A.Empty | A.Db -> ()
  | A.Var x ->
    if not (SMap.mem x env.vars) then
      diag st Diag.Error ~code:"SSD303" "unbound tree variable %s" x
  | A.Tree entries ->
    List.iter
      (fun (le, e) ->
        check_label st env le;
        walk_expr st env e)
      entries
  | A.Union (a, b) ->
    walk_expr st env a;
    walk_expr st env b
  | A.Select (head, clauses) -> walk_select st env head clauses
  | A.If (c, a, b) ->
    walk_cond st env c;
    walk_expr st env a;
    walk_expr st env b
  | A.Let (x, a, b) ->
    walk_expr st env a;
    let env = bind_fresh st env None x Tree in
    walk_expr st env b
  | A.Letsfun (def, body) ->
    walk_sfun st env def;
    walk_expr st { env with funs = SSet.add def.A.fname env.funs } body
  | A.App (f, arg) ->
    if not (SSet.mem f env.funs) then
      diag st Diag.Error ~code:"SSD305" "application of unknown function %s" f;
    walk_expr st env arg

and walk_select st env head clauses =
  let uses, binds = use_counts (A.Select (head, clauses)) in
  let scope = Some { uses; binds; warned = SSet.empty } in
  (* Head first: that is parse (and mark) order.  It is evaluated under
     the bindings the clauses will have established. *)
  walk_expr st { env with vars = clause_kinds env clauses } head;
  let cur = ref env in
  List.iter
    (fun clause ->
      match clause with
      | A.Gen (p, e) ->
        let frontier =
          match st.target, e with
          | Some t, A.Db -> Some (start_frontier t)
          | _ -> None
        in
        let env' = walk_pattern st !cur scope frontier p in
        walk_expr st !cur e;
        cur := env'
      | A.Where c -> walk_cond st !cur c)
    clauses

(* Walk a pattern: consume its marks in parse order, do the binder
   checks, and — when a frontier is live — advance it step by step,
   reporting the first step at which it empties. *)
and walk_pattern st env scope frontier p =
  match p with
  | A.Pany -> env
  | A.Pbind x ->
    let span = take_mark st P.Mbind in
    bind_fresh st env scope ?span x Tree
  | A.Pedges entries ->
    List.fold_left
      (fun env (steps, sub) ->
        if frontier <> None then st.paths_checked <- st.paths_checked + 1;
        let env, frontier = walk_steps st env scope frontier 0 steps in
        walk_pattern st env scope frontier sub)
      env entries

and walk_steps st env scope frontier idx = function
  | [] -> (env, frontier)
  | step :: rest ->
    let span = take_mark st P.Mstep in
    (* hygiene, per step form *)
    let env =
      match step with
      | A.Slit le ->
        check_label st env ?span le;
        env
      | A.Sbind x -> (
        match SMap.find_opt x env.vars with
        | Some Tree ->
          diag st ?span Diag.Error ~code:"SSD304"
            "variable %s bound as both tree and label" x;
          { env with vars = SMap.add x Lab env.vars }
        | Some Lab -> env (* a join: constrains, binds nothing new *)
        | None -> bind_fresh st env scope ?span x Lab)
      | A.Spred _ -> env
      | A.Sregex (r, binder) ->
        if Regex.is_void r then
          diag st ?span Diag.Warning ~code:"SSD103"
            "path expression matches no word (contains Void)";
        (match binder with
         | Some p -> bind_fresh st env scope ?span p Tree
         | None -> env)
    in
    (* frontier advance *)
    let frontier =
      match frontier, st.target with
      | Some nodes, Some target ->
        let next = advance st target nodes (step_regex env step) in
        if next = [] then begin
          st.dead_paths <- st.dead_paths + 1;
          let code = if idx = 0 then "SSD101" else "SSD102" in
          let what = if idx = 0 then "dead path" else "partially dead path" in
          diag st ?span Diag.Warning ~code
            "%s: no database path can match this generator past step %d (product with \
             the %s is empty)"
            what (idx + 1)
            (match target with Guide _ -> "DataGuide" | Schema _ -> "schema");
          None (* stop checking, keep consuming marks *)
        end
        else Some next
      | _ -> None
    in
    walk_steps st env scope frontier (idx + 1) rest

and walk_sfun st env def =
  (* Structural restrictions, reusing the evaluator's own check — its
     Ill_formed now carries the matching diagnostic (SSD306/308/309). *)
  (match A.check_sfun def with
   | () -> ()
   | exception A.Ill_formed d -> push st d);
  (* Closed bodies (SSD307), as the evaluator enforces. *)
  List.iter
    (fun c ->
      let allowed =
        c.A.ctree
        ::
        (match c.A.cstep with
         | A.Sbind x -> [ x ]
         | A.Slit _ | A.Spred _ | A.Sregex _ -> [])
      in
      List.iter
        (fun v ->
          if not (List.mem v allowed) then
            diag st Diag.Error ~code:"SSD307" "sfun %s: body mentions free tree variable %s"
              def.A.fname v)
        (A.free_tree_vars c.A.cbody))
    def.A.cases;
  (* Conservative cyclic-result warning (SSD310): a case that re-emits
     the edge it matched around a recursive call copies every cycle of
     the input into the result, so tree extraction will not terminate.
     Only meaningful when the database is known cyclic. *)
  if st.cyclic then
    List.iter
      (fun c ->
        if case_reemits def.A.fname c then
          diag st Diag.Warning ~code:"SSD310"
            "sfun %s re-emits its matched edge around the recursive call; on this \
             cyclic database the result is cyclic (tree extraction would not terminate)"
            def.A.fname)
      def.A.cases;
  (* Case bodies, under the case environment. *)
  let funs = SSet.add def.A.fname env.funs in
  List.iter
    (fun c ->
      let span = take_mark st P.Mstep in
      ignore span;
      let vars =
        match c.A.cstep with
        | A.Sbind x -> SMap.add x Lab (SMap.add c.A.ctree Tree SMap.empty)
        | _ -> SMap.add c.A.ctree Tree SMap.empty
      in
      walk_expr st { vars; funs } c.A.cbody)
    def.A.cases

(* Does a case body contain {l: ... f(T) ...} where l re-emits the label
   the case matched? *)
and case_reemits fname c =
  let reemitting_label le =
    match c.A.cstep, le with
    | A.Slit (A.Llit l), A.Llit l' -> Label.equal l l'
    | A.Slit (A.Lname x), A.Lname y | A.Sbind x, A.Lname y -> x = y
    | _ -> false
  in
  let rec calls_rec = function
    | A.App (f, _) -> f = fname
    | A.Empty | A.Db | A.Var _ -> false
    | A.Tree es -> List.exists (fun (_, e) -> calls_rec e) es
    | A.Union (a, b) | A.Let (_, a, b) -> calls_rec a || calls_rec b
    | A.Select (h, cls) ->
      calls_rec h
      || List.exists (function A.Gen (_, e) -> calls_rec e | A.Where _ -> false) cls
    | A.If (_, a, b) -> calls_rec a || calls_rec b
    | A.Letsfun (_, e) -> calls_rec e
  in
  let rec scan = function
    | A.Tree es ->
      List.exists (fun (le, sub) -> (reemitting_label le && calls_rec sub) || scan sub) es
    | A.Empty | A.Db | A.Var _ -> false
    | A.Union (a, b) | A.Let (_, a, b) -> scan a || scan b
    | A.Select (h, cls) ->
      scan h || List.exists (function A.Gen (_, e) -> scan e | A.Where _ -> false) cls
    | A.If (_, a, b) -> scan a || scan b
    | A.Letsfun (_, e) -> scan e
    | A.App (_, a) -> scan a
  in
  scan c.A.cbody

and walk_cond st env = function
  | A.Ccmp (_, a, b) ->
    check_atom st env a;
    check_atom st env b
  | A.Cistype (_, a) | A.Cstarts (a, _) | A.Ccontains (a, _) -> check_atom st env a
  | A.Cempty e -> walk_expr st env e
  | A.Cequal (a, b) ->
    walk_expr st env a;
    walk_expr st env b
  | A.Cnot c -> walk_cond st env c
  | A.Cand (a, b) | A.Cor (a, b) ->
    walk_cond st env a;
    walk_cond st env b

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let graph_cyclic g = not (Graph.is_acyclic g)

let check ?db ?target ?marks ?(defined = []) e =
  let cyclic =
    match db, target with
    | Some g, _ -> graph_cyclic g
    | None, Some (Guide g) -> graph_cyclic (Dataguide.graph g)
    | None, _ -> false
  in
  let marks_arr, msrc =
    match marks with
    | Some m -> (m.P.items, m.P.msrc)
    | None -> ([||], "")
  in
  let st =
    {
      diags = [];
      marks = marks_arr;
      msrc;
      next_mark = 0;
      marks_ok = Array.length marks_arr > 0;
      target;
      cyclic;
      paths_checked = 0;
      dead_paths = 0;
      labels = [];
    }
  in
  let vars =
    List.fold_left (fun m x -> SMap.add x Tree m) SMap.empty defined
  in
  walk_expr st { vars; funs = SSet.empty } e;
  {
    diags = Diag.sort (List.rev st.diags);
    paths_checked = st.paths_checked;
    dead_paths = st.dead_paths;
    reachable_labels = List.sort_uniq Label.compare st.labels;
  }

(* ------------------------------------------------------------------ *)
(* Lint-informed pruning                                               *)
(* ------------------------------------------------------------------ *)

(* Names that occur as label binders anywhere in the query: a bare name
   step may refer to one of these, in which case its value is statically
   unknown (Any).  Collected once — sound wherever the name is actually
   bound. *)
let sbind_names e =
  let acc = ref SSet.empty in
  let rec expr = function
    | A.Empty | A.Db | A.Var _ -> ()
    | A.Tree es -> List.iter (fun (_, e) -> expr e) es
    | A.Union (a, b) | A.Let (_, a, b) ->
      expr a;
      expr b
    | A.Select (h, cls) ->
      expr h;
      List.iter (function A.Gen (p, e) -> pat p; expr e | A.Where c -> cond c) cls
    | A.If (c, a, b) ->
      cond c;
      expr a;
      expr b
    | A.Letsfun (d, e) ->
      List.iter
        (fun c ->
          (match c.A.cstep with A.Sbind x -> acc := SSet.add x !acc | _ -> ());
          expr c.A.cbody)
        d.A.cases;
      expr e
    | A.App (_, a) -> expr a
  and pat = function
    | A.Pbind _ | A.Pany -> ()
    | A.Pedges es ->
      List.iter
        (fun (steps, sub) ->
          List.iter (function A.Sbind x -> acc := SSet.add x !acc | _ -> ()) steps;
          pat sub)
        es
  and cond = function
    | A.Ccmp _ | A.Cistype _ | A.Cstarts _ | A.Ccontains _ -> ()
    | A.Cempty e -> expr e
    | A.Cequal (a, b) ->
      expr a;
      expr b
    | A.Cnot c -> cond c
    | A.Cand (a, b) | A.Cor (a, b) ->
      cond a;
      cond b
  in
  expr e;
  !acc

let prune target q =
  let sbinds = sbind_names q in
  let dummy = { vars = SMap.empty; funs = SSet.empty } in
  let step_re = function
    | A.Slit (A.Lname x) when SSet.mem x sbinds -> Regex.Atom Lpred.Any
    | s -> step_regex dummy s
  in
  (* no-op state for [advance]'s label accounting *)
  let st =
    {
      diags = [];
      marks = [||];
      msrc = "";
      next_mark = 0;
      marks_ok = false;
      target = Some target;
      cyclic = false;
      paths_checked = 0;
      dead_paths = 0;
      labels = [];
    }
  in
  let rec entry_dead frontier (steps, sub) =
    let rec go frontier = function
      | [] -> Some frontier
      | s :: rest -> (
        match advance st target frontier (step_re s) with
        | [] -> None
        | next -> go next rest)
    in
    match go frontier steps with
    | None -> true
    | Some frontier -> pattern_dead frontier sub
  and pattern_dead frontier = function
    | A.Pbind _ | A.Pany -> false
    | A.Pedges entries -> List.exists (entry_dead frontier) entries
  in
  let count = ref 0 in
  let rec expr e =
    match e with
    | A.Empty | A.Db | A.Var _ -> e
    | A.Tree es -> A.Tree (List.map (fun (le, e) -> (le, expr e)) es)
    | A.Union (a, b) -> A.Union (expr a, expr b)
    | A.Select (head, clauses) ->
      let dead =
        List.exists
          (function
            | A.Gen (p, A.Db) -> pattern_dead (start_frontier target) p
            | A.Gen _ | A.Where _ -> false)
          clauses
      in
      if dead then begin
        incr count;
        A.Empty
      end
      else
        A.Select
          ( expr head,
            List.map
              (function
                | A.Gen (p, e) -> A.Gen (p, expr e)
                | A.Where c -> A.Where (cond c))
              clauses )
    | A.If (c, a, b) -> A.If (cond c, expr a, expr b)
    | A.Let (x, a, b) -> A.Let (x, expr a, expr b)
    | A.Letsfun (d, e) ->
      A.Letsfun
        ({ d with A.cases = List.map (fun c -> { c with A.cbody = expr c.A.cbody }) d.A.cases },
         expr e)
    | A.App (f, a) -> A.App (f, expr a)
  and cond c =
    match c with
    | A.Ccmp _ | A.Cistype _ | A.Cstarts _ | A.Ccontains _ -> c
    | A.Cempty e -> A.Cempty (expr e)
    | A.Cequal (a, b) -> A.Cequal (expr a, expr b)
    | A.Cnot c -> A.Cnot (cond c)
    | A.Cand (a, b) -> A.Cand (cond a, cond b)
    | A.Cor (a, b) -> A.Cor (cond a, cond b)
  in
  let q' = expr q in
  (q', !count)
