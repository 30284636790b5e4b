module Graph = Ssd.Graph
module Pool = Ssd_par.Pool
module Budget = Ssd.Budget

module Tbl = Hashtbl.Make (Int)

(* A (node, state) pair is the int [u * n_states + q]. *)
type 'e origin =
  | Start
  | From of int * 'e (* the pair it was first discovered from, the edge *)

type 'e search = {
  n_states : int;
  parent : 'e origin Tbl.t; (* every reached pair *)
  first_accepting : int Tbl.t; (* accepted node -> its first accepting pair *)
  expanded : int;
}

(* Level-synchronous BFS over (node, NFA state) pairs, ε-closures applied
   eagerly: expand the whole frontier, then merge the discovered pairs,
   then go on with the next level.  A FIFO queue processes pairs in
   exactly level order, so this visits the same pairs — with the same
   first-discovery parents — as the classic queue loop; but the frontier
   expansion is pure (successor/NFA reads only), so it runs across the
   domain pool.  Budget steps and the merge happen on the calling domain
   in frontier order: one step per frontier item, before any expansion,
   stopping at the first denial.  The expanded set, the discovered set
   and every parent are therefore independent of scheduling and of the
   jobs count, even when the budget runs out. *)
let search ?budget ~succ ~matches nfa ~starts =
  let n_states = nfa.Nfa.n in
  let closures = Nfa.closures nfa in
  let parent = Tbl.create 64 in
  let first_accepting = Tbl.create 16 in
  let next = ref [] in
  let push k origin =
    if not (Tbl.mem parent k) then begin
      Tbl.add parent k origin;
      next := k :: !next
    end
  in
  let start_states = Nfa.start_set nfa in
  List.iter (fun u -> List.iter (fun q -> push ((u * n_states) + q) Start) start_states) starts;
  let expanded = ref 0 in
  let running = ref true in
  while !running && !next <> [] do
    let level = Array.of_list (List.rev !next) in
    next := [];
    let n = Array.length level in
    let taken =
      match budget with
      | None -> n
      | Some b ->
        let k = ref 0 in
        while !k < n && Budget.step b do
          incr k
        done;
        !k
    in
    if taken < n then running := false;
    expanded := !expanded + taken;
    (* Item [i]'s successor pairs, in (edge-outer, move-inner) order. *)
    let succs =
      Pool.map_range taken (fun i ->
          match nfa.Nfa.trans.(level.(i) mod n_states) with
          | [] -> []
          | moves ->
            List.concat_map
              (fun (e, v) ->
                List.concat_map
                  (fun (p, q') ->
                    if matches p e then
                      List.map (fun q'' -> ((v * n_states) + q'', e)) closures.(q')
                    else [])
                  moves)
              (succ (level.(i) / n_states)))
    in
    for i = 0 to taken - 1 do
      let k = level.(i) in
      let u = k / n_states in
      if nfa.Nfa.accept.(k mod n_states) && not (Tbl.mem first_accepting u) then
        Tbl.add first_accepting u k;
      List.iter (fun (k', e) -> push k' (From (k, e))) succs.(i)
    done
  done;
  { n_states; parent; first_accepting; expanded = !expanded }

let expanded s = s.expanded

let accepted s = Tbl.fold (fun u _ acc -> u :: acc) s.first_accepting [] |> List.sort compare

let path_to s u =
  let rec unwind k acc =
    match Tbl.find s.parent k with
    | Start -> acc
    | From (k', e) -> unwind k' (e :: acc)
  in
  Option.map (fun k -> unwind k []) (Tbl.find_opt s.first_accepting u)

let iter_reached f s = Tbl.iter (fun k _ -> f (k / s.n_states) (k mod s.n_states)) s.parent

let graph_search g nfa ~starts =
  search ~succ:(Graph.labeled_succ g) ~matches:Lpred.matches nfa ~starts

let accepting_nodes_from g nfa ~starts = accepted (graph_search g nfa ~starts)

let accepting_nodes g nfa = accepting_nodes_from g nfa ~starts:[ Graph.root g ]

(* The crossed labels are collected after the search: every reached pair
   was expanded (no budget), so a label is crossed iff some reached
   pair's state has a move that accepts it on one of the node's edges. *)
let reach g nfa ~starts =
  let s = graph_search g nfa ~starts in
  let labels = Hashtbl.create 32 in
  iter_reached
    (fun u q ->
      match nfa.Nfa.trans.(q) with
      | [] -> ()
      | moves ->
        List.iter
          (fun (l, _) ->
            if List.exists (fun (p, _) -> Lpred.matches p l) moves then
              Hashtbl.replace labels l ())
          (Graph.labeled_succ g u))
    s;
  ( accepted s,
    Hashtbl.fold (fun l () acc -> l :: acc) labels [] |> List.sort_uniq Ssd.Label.compare )

let witness g nfa target = path_to (graph_search g nfa ~starts:[ Graph.root g ]) target

let alphabet g =
  Graph.fold_labeled_edges (fun acc _ l _ -> l :: acc) [] g
  |> List.sort_uniq Ssd.Label.compare

let accepting_nodes_dfa g dfa =
  let seen = Hashtbl.create 256 in
  let answers = Hashtbl.create 64 in
  let queue = Queue.create () in
  let push u s =
    if not (Hashtbl.mem seen (u, s)) then begin
      Hashtbl.add seen (u, s) ();
      Queue.push (u, s) queue
    end
  in
  push (Graph.root g) (Dfa.start dfa);
  while not (Queue.is_empty queue) do
    let u, s = Queue.pop queue in
    if Dfa.is_accept dfa s then Hashtbl.replace answers u ();
    List.iter
      (fun (l, v) ->
        match Dfa.step dfa s l with
        | Some s' -> push v s'
        | None -> ())
      (Graph.labeled_succ g u)
  done;
  Hashtbl.fold (fun u () acc -> u :: acc) answers [] |> List.sort_uniq compare

let accepting_nodes_deriv g r =
  (* Memoized search over (node, derivative) pairs.  The derivative space
     of a regex is finite up to the similarity rules applied by the smart
     constructors, so this terminates on cyclic graphs. *)
  let seen = Hashtbl.create 256 in
  let answers = Hashtbl.create 64 in
  let rec go u r =
    if r <> Regex.Void && not (Hashtbl.mem seen (u, r)) then begin
      Hashtbl.add seen (u, r) ();
      if Regex.nullable r then Hashtbl.replace answers u ();
      List.iter (fun (l, v) -> go v (Regex.deriv r l)) (Graph.labeled_succ g u)
    end
  in
  go (Graph.root g) r;
  Hashtbl.fold (fun u () acc -> u :: acc) answers [] |> List.sort_uniq compare
