(* One request as the socket run saw it: what was sent, on which
   connection, when, and what came back.  The log of these is what the
   checks read and what the traced replay re-executes. *)

type phase =
  | Probe (* the cold-start query of a fresh server *)
  | Warmup
  | Read (* the measured read phase *)
  | Subscribe
  | Write (* the inserts, and connection B's queries beside them *)
  | Durability (* the checks after kill -9 and restart *)
  | Stats

type t = {
  id : int;
  conn : int; (* 0 = connection A, 1 = connection B *)
  req : Plan.req;
  phase : phase;
  sent : float; (* ns, monotonic *)
  got : float;
  resp : Ssd_serve.Proto.response;
  (* the database versions (inserts applied) this answer may reflect *)
  lo : int;
  hi : int;
  mutable version : int; (* the version it matched; -1 if none *)
  mutable ok : bool;
}

let latency_ms r = (r.got -. r.sent) /. 1e6

let is_query r = match r.req with Plan.Query _ -> true | _ -> false
