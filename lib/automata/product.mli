(** Regular path queries: product traversal of a data graph with an
    automaton.

    This is the standard evaluation strategy for the arbitrary-depth path
    constraints of section 3: explore the reachable pairs (graph node,
    automaton state); a node is an answer iff some reachable pair with it
    is accepting.  Termination on cyclic data is by memoizing the pair
    set — the same idea that makes structural recursion well-defined on
    cycles.

    {!search} is the one (node, NFA state) product search in the code
    base.  It is generic over the successor relation, so the same
    traversal runs over a {!Ssd.Graph.t} (the wrappers below), over
    UnQL's evaluation store and over a graph schema (the lint pass, with
    {!Lpred.compatible} as the edge test).  {!accepting_nodes_dfa} and
    {!accepting_nodes_deriv} are reference evaluators for tests and
    benchmarks. *)

(** The outcome of a {!search}: every reached (node, state) pair with
    the pair and edge it was first discovered from, each accepted node
    with its first accepting pair in BFS order, and the number of pairs
    expanded.  ['e] is the edge type of the searched graph. *)
type 'e search

(** [search ?budget ~succ ~matches nfa ~starts] runs the product of the
    graph given by [succ] (a node's outgoing [(edge, target)] list) with
    [nfa], starting every node of [starts] in the closed start set; an
    NFA move guarded by [p] crosses edge [e] iff [matches p e].

    The search is a level-synchronous BFS: each level's expansion runs
    across the {!Ssd_par.Pool} default pool, and the merge runs on the
    calling domain in frontier order, so it discovers the same pairs
    with the same parents as a FIFO queue loop, for every jobs value.
    [succ] and [matches] must therefore be safe to call from worker
    domains; [succ] is not called for pairs whose state has no moves.

    With [budget], one {!Ssd.Budget.step} is taken per frontier item on
    the calling domain, before the level is expanded, and the search
    stops at the first denial.  Only expanded pairs can accept, so the
    answer is then a lower bound, and identical for every jobs value. *)
val search :
  ?budget:Ssd.Budget.t ->
  succ:(int -> ('e * int) list) ->
  matches:(Lpred.t -> 'e -> bool) ->
  Nfa.t ->
  starts:int list ->
  'e search

(** The accepted nodes, sorted. *)
val accepted : 'e search -> int list

(** [path_to s u] is the edge word from a start node to accepted node
    [u] along first-discovery parents, ending in [u]'s first accepting
    pair — the path a FIFO search reaches first; [None] if [u] is not
    accepted. *)
val path_to : 'e search -> int -> 'e list option

(** Pairs expanded (one budget step each). *)
val expanded : 'e search -> int

(** [iter_reached f s] calls [f node state] on every reached pair, in no
    particular order.  Without a budget every reached pair was expanded;
    with one, the pairs past the budget cut are reached but not
    expanded. *)
val iter_reached : (int -> int -> unit) -> 'e search -> unit

(** Nodes of [g] reachable from the root along a path whose label word the
    NFA accepts.  Sorted, duplicate-free. *)
val accepting_nodes : Ssd.Graph.t -> Nfa.t -> int list

(** Same, starting the automaton at each node of [starts] (used by
    decomposed evaluation). *)
val accepting_nodes_from : Ssd.Graph.t -> Nfa.t -> starts:int list -> int list

(** Like {!accepting_nodes_from}, but also return the sorted set of
    labels on edges the live product crosses — the statically-reachable
    label set of the path expression against this graph (used by the
    lint pass and guide-informed pruning). *)
val reach :
  Ssd.Graph.t -> Nfa.t -> starts:int list -> int list * Ssd.Label.t list

(** [witness g nfa node] is the accepted label path from the root to
    [node] that a breadth-first search finds first, if any — the answer
    to "where in the database ...?" browsing queries. *)
val witness : Ssd.Graph.t -> Nfa.t -> int -> Ssd.Label.t list option

(** Baseline evaluator for the benchmarks: memoized search over (node,
    regex-derivative) pairs, no precompiled automaton.  Same answers as
    {!accepting_nodes} (property-tested). *)
val accepting_nodes_deriv : Ssd.Graph.t -> Regex.t -> int list

(** Deterministic product: (node, DFA state) pairs — at most one state per
    node per path prefix class, so the pair space is the smallest of the
    three evaluators.  The DFA must have been built over (a superset of)
    the graph's label alphabet; labels outside it reject, which matches
    NFA semantics whenever the alphabet is complete (property-tested). *)
val accepting_nodes_dfa : Ssd.Graph.t -> Dfa.t -> int list

(** The label alphabet of a graph (sorted), for {!Dfa.of_nfa}. *)
val alphabet : Ssd.Graph.t -> Ssd.Label.t list
