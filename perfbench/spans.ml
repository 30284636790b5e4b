(* In-memory span recorder for the traced replay.

   A span has a name, start and end (monotonic ns), the id of the span
   that caused it and the id of the request it belongs to.  Spans nest
   strictly (the replay is single-threaded), so a span's self time is
   its duration minus the summed durations of its direct children.
   Nothing is written until [write_jsonl] at exit; with recording off,
   [span] is a plain call, which is how the overhead run is made. *)

type t = {
  id : int;
  name : string;
  parent : int; (* 0 = root *)
  req : int; (* request id, -1 = outside any request *)
  t0 : float;
  mutable t1 : float;
  mutable child_ns : float;
}

let on = ref false
let recorded : t list ref = ref []
let stack : t list ref = ref []
let next_id = ref 0
let current_req = ref (-1)

let reset ~enabled =
  on := enabled;
  recorded := [];
  stack := [];
  next_id := 0;
  current_req := -1

let span name f =
  if not !on then f ()
  else begin
    incr next_id;
    let parent = match !stack with p :: _ -> p.id | [] -> 0 in
    let s =
      {
        id = !next_id;
        name;
        parent;
        req = !current_req;
        t0 = Ssd_obs.Clock.now_ns ();
        t1 = 0.;
        child_ns = 0.;
      }
    in
    stack := s :: !stack;
    let finish () =
      s.t1 <- Ssd_obs.Clock.now_ns ();
      stack := List.tl !stack;
      (match !stack with p :: _ -> p.child_ns <- p.child_ns +. (s.t1 -. s.t0) | [] -> ());
      recorded := s :: !recorded
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Run [f] as request [req]: its spans carry that id. *)
let in_request req f =
  current_req := req;
  Fun.protect ~finally:(fun () -> current_req := -1) f

let duration_ns s = s.t1 -. s.t0
let self_ns s = duration_ns s -. s.child_ns
let all () = List.rev !recorded

let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"start_ns\":%.0f,\"end_ns\":%.0f,\"self_ns\":%.0f}\n"
        s.id s.name s.parent s.req s.t0 s.t1 (self_ns s))
    (all ());
  close_out oc
