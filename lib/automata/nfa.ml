type t = {
  n : int;
  start : int;
  accept : bool array;
  eps : int list array;
  trans : (Lpred.t * int) list array;
  closures : int list array;
}

(* Thompson construction.  Fragments are (entry, exit) state pairs; exits
   have no outgoing transitions, so fragments compose by ε-wiring. *)

type builder = {
  mutable next : int;
  mutable beps : (int * int) list;
  mutable btrans : (int * Lpred.t * int) list;
}

let fresh b =
  let s = b.next in
  b.next <- b.next + 1;
  s

let wire b u v = b.beps <- (u, v) :: b.beps
let guard b u p v = b.btrans <- (u, p, v) :: b.btrans

let rec compile b = function
  | Regex.Void ->
    let i = fresh b and o = fresh b in
    (i, o)
  | Regex.Eps ->
    let i = fresh b and o = fresh b in
    wire b i o;
    (i, o)
  | Regex.Atom p ->
    let i = fresh b and o = fresh b in
    guard b i p o;
    (i, o)
  | Regex.Seq (r1, r2) ->
    let i1, o1 = compile b r1 in
    let i2, o2 = compile b r2 in
    wire b o1 i2;
    (i1, o2)
  | Regex.Alt (r1, r2) ->
    let i = fresh b and o = fresh b in
    let i1, o1 = compile b r1 in
    let i2, o2 = compile b r2 in
    wire b i i1;
    wire b i i2;
    wire b o1 o;
    wire b o2 o;
    (i, o)
  | Regex.Star r ->
    let i = fresh b and o = fresh b in
    let ri, ro = compile b r in
    wire b i ri;
    wire b i o;
    wire b ro ri;
    wire b ro o;
    (i, o)
  | Regex.Plus r -> compile b (Regex.Seq (r, Regex.Star r))
  | Regex.Opt r -> compile b (Regex.Alt (r, Regex.Eps))

let closure_of ~n eps states =
  let seen = Array.make n false in
  let rec go s =
    if not seen.(s) then begin
      seen.(s) <- true;
      List.iter go eps.(s)
    end
  in
  List.iter go states;
  let out = ref [] in
  for s = n - 1 downto 0 do
    if seen.(s) then out := s :: !out
  done;
  !out

let of_regex r =
  let b = { next = 0; beps = []; btrans = [] } in
  let start, final = compile b r in
  let n = b.next in
  let eps = Array.make n [] in
  List.iter (fun (u, v) -> eps.(u) <- v :: eps.(u)) b.beps;
  let trans = Array.make n [] in
  List.iter (fun (u, p, v) -> trans.(u) <- (p, v) :: trans.(u)) b.btrans;
  let accept = Array.make n false in
  accept.(final) <- true;
  let closures = Array.init n (fun q -> closure_of ~n eps [ q ]) in
  { n; start; accept; eps; trans; closures }

let of_string s = of_regex (Regex.parse s)

let eps_closure nfa states = closure_of ~n:nfa.n nfa.eps states

let closures nfa = nfa.closures

let start_set nfa = nfa.closures.(nfa.start)

let step nfa states l =
  let targets =
    List.concat_map
      (fun s ->
        List.filter_map (fun (p, t) -> if Lpred.matches p l then Some t else None) nfa.trans.(s))
      states
  in
  eps_closure nfa targets

let accepts nfa states = List.exists (fun s -> nfa.accept.(s)) states

let matches nfa word = accepts nfa (List.fold_left (step nfa) (start_set nfa) word)
