(* The socket side: spawning `ssdql serve --store`, connecting, and
   reading SSDQL1 frames off a connection. *)

module Proto = Ssd_serve.Proto

let now_ns = Ssd_obs.Clock.now_ns

exception Failed of string

let failf fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

(* ------------------------------------------------------------------ *)
(* Child processes                                                     *)
(* ------------------------------------------------------------------ *)

(* Every child this process starts, so exit can stop and reap them. *)
let children : int list ref = ref []

let reap pid =
  children := List.filter (( <> ) pid) !children;
  let rec go () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap pid))
    !children

(* stdout is discarded, stderr appended to [stderr]. *)
let spawn ?(stderr = "/dev/null") argv =
  let out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let err = Unix.openfile stderr [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid = Unix.create_process argv.(0) argv Unix.stdin out err in
  Unix.close out;
  Unix.close err;
  children := pid :: !children;
  pid

let run_to_completion argv =
  match reap (spawn argv) with
  | Unix.WEXITED 0 -> ()
  | _ -> failf "%s failed" (String.concat " " (Array.to_list argv))

(* ------------------------------------------------------------------ *)
(* The server                                                          *)
(* ------------------------------------------------------------------ *)

type server = {
  pid : int;
  sock : string;
}

let start_server ~ssdql ~store ~sock ~log =
  let pid =
    spawn ~stderr:log
      [| ssdql; "serve"; "--store"; store; "--socket"; sock; "--workers"; "2" |]
  in
  { pid; sock }

let kill_server s signal =
  (try Unix.kill s.pid signal with Unix.Unix_error _ -> ());
  ignore (reap s.pid)

(* Peak resident set of a live process, in MB (VmHWM). *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> failf "no VmHWM for pid %d" pid
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t; (* received bytes not yet parsed into frames *)
  chunk : Bytes.t;
  mutable closed : bool;
}

(* Connect, retrying while the server is still starting; fails if the
   server process exits or [timeout] passes. *)
let connect ?(timeout = 60.) server =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX server.sock) with
    | () -> { fd; buf = Buffer.create 65536; chunk = Bytes.create 65536; closed = false }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] server.pid with
      | 0, _ -> ()
      | _ ->
        children := List.filter (( <> ) server.pid) !children;
        failf "ssdql serve exited before accepting connections");
      if Unix.gettimeofday () -. t0 > timeout then failf "ssdql serve did not start";
      Unix.sleepf 0.0005;
      go ()
  in
  go ()

let close c =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let send c s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write c.fd b off (n - off)) in
  go 0

(* Frames already complete in the buffer.  A malformed frame or a
   closed connection raises: the caller counts it as a failure. *)
let parse_frames c =
  let s = Buffer.contents c.buf in
  let rec go pos acc =
    match Proto.parse_response s pos with
    | Ok (r, pos') -> go pos' (r :: acc)
    | Error `Incomplete -> (pos, List.rev acc)
    | Error (`Malformed why) -> failf "malformed frame: %s" why
  in
  let pos, frames = go 0 [] in
  if pos > 0 then begin
    Buffer.clear c.buf;
    Buffer.add_substring c.buf s pos (String.length s - pos)
  end;
  frames

(* One read's worth of bytes, then the frames it completed. *)
let read_frames c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> failf "connection closed by the server"
  | n ->
    Buffer.add_subbytes c.buf c.chunk 0 n;
    parse_frames c
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* Blocking request/response on an otherwise idle connection; pushes
   that arrive meanwhile are handed to [on_push]. *)
let rpc ?(on_push = fun _ _ -> ()) c line =
  send c (line ^ "\n");
  let rec wait () =
    let frames = read_frames c in
    let now = now_ns () in
    let rec take = function
      | [] -> wait ()
      | (r : Proto.response) :: rest ->
        if r.Proto.status = Proto.Delta then begin
          on_push now r;
          take rest
        end
        else begin
          List.iter
            (fun (f : Proto.response) ->
              if f.Proto.status = Proto.Delta then on_push now f
              else failf "unexpected frame after a response")
            rest;
          r
        end
    in
    take frames
  in
  wait ()
