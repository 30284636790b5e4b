(** Nondeterministic finite automata over label predicates.

    Built from {!Regex.t} by Thompson's construction.  Because transition
    guards are predicates rather than letters, the automaton is executable
    on any label without fixing an alphabet; {!Dfa} fixes one when a
    deterministic machine is needed. *)

type t = private {
  n : int; (** number of states, ids [0..n-1] *)
  start : int;
  accept : bool array;
  eps : int list array; (** ε-transitions *)
  trans : (Lpred.t * int) list array; (** guarded transitions *)
  closures : int list array; (** per-state ε-closures, see {!closures} *)
}

val of_regex : Regex.t -> t

(** Convenience: [of_string s = of_regex (Regex.parse s)]. *)
val of_string : string -> t

(** ε-closure of a set of states; result sorted and duplicate-free. *)
val eps_closure : t -> int list -> int list

(** Per-state ε-closures, computed once by {!of_regex}: [(closures
    nfa).(q)] is [eps_closure nfa [q]].  Product traversals index this
    rather than recomputing closures per transition. *)
val closures : t -> int list array

(** The closed start set. *)
val start_set : t -> int list

(** One label step from a closed set, result closed. *)
val step : t -> int list -> Ssd.Label.t -> int list

(** Does the closed set contain an accepting state? *)
val accepts : t -> int list -> bool

(** Word membership; agrees with {!Regex.matches} (property-tested). *)
val matches : t -> Ssd.Label.t list -> bool
