type severity =
  | Error
  | Warning
  | Note

type span = {
  line : int;
  col : int;
  stop_line : int;
  stop_col : int;
  text : string;
}

type t = {
  code : string;
  severity : severity;
  span : span option;
  message : string;
}

exception Fail of t

let make ?span severity ~code message = { code; severity; span; message }

let error ?span ~code fmt =
  Printf.ksprintf (fun message -> raise (Fail (make ?span Error ~code message))) fmt

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let line_col src off =
  let off = max 0 (min off (String.length src)) in
  let line = ref 1 and bol = ref 0 in
  for i = 0 to off - 1 do
    if src.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  (!line, off - !bol + 1)

let span_of_offsets src start stop =
  let start = max 0 (min start (String.length src)) in
  let stop = max start (min stop (String.length src)) in
  let line, col = line_col src start in
  let stop_line, stop_col = line_col src stop in
  { line; col; stop_line; stop_col; text = String.sub src start (stop - start) }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Note -> "note"

let span_to_string s =
  if s.line = s.stop_line then Printf.sprintf "%d:%d-%d" s.line s.col s.stop_col
  else Printf.sprintf "%d:%d-%d:%d" s.line s.col s.stop_line s.stop_col

let to_string d =
  let where = match d.span with None -> "" | Some s -> span_to_string s ^ ": " in
  let near =
    match d.span with
    | Some s when s.text <> "" && String.length s.text <= 40 ->
      Printf.sprintf "  (near %S)" s.text
    | _ -> ""
  in
  Printf.sprintf "%s[%s] %s%s%s" (severity_to_string d.severity) d.code where d.message
    near

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 32 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json d =
  let span_json =
    match d.span with
    | None -> "null"
    | Some s ->
      Printf.sprintf
        {|{"line": %d, "col": %d, "stop_line": %d, "stop_col": %d, "text": "%s"}|}
        s.line s.col s.stop_line s.stop_col (json_escape s.text)
  in
  Printf.sprintf {|{"code": "%s", "severity": "%s", "span": %s, "message": "%s"}|}
    (json_escape d.code)
    (severity_to_string d.severity)
    span_json (json_escape d.message)

let severity_rank = function
  | Error -> 0
  | Warning -> 1
  | Note -> 2

let sort ds =
  List.stable_sort
    (fun a b ->
      let c = compare (severity_rank a.severity) (severity_rank b.severity) in
      if c <> 0 then c
      else
        let pos d = match d.span with None -> (max_int, max_int) | Some s -> (s.line, s.col) in
        compare (pos a) (pos b))
    ds

let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)

let render ds =
  let ds = sort ds in
  let body = List.map to_string ds in
  let summary =
    Printf.sprintf "%d error(s), %d warning(s)" (count Error ds) (count Warning ds)
  in
  String.concat "\n" (body @ [ summary ]) ^ "\n"

let render_json ds =
  let ds = sort ds in
  Printf.sprintf {|{"diagnostics": [%s], "errors": %d, "warnings": %d}|}
    (String.concat ", " (List.map to_json ds))
    (count Error ds) (count Warning ds)

(* ------------------------------------------------------------------ *)
(* The code registry                                                   *)
(* ------------------------------------------------------------------ *)

let codes =
  [
    ("SSD001", Error, "syntax error in an UnQL query");
    ("SSD002", Error, "syntax error in a Lorel query");
    ("SSD003", Error, "syntax error in a datalog program");
    ("SSD101", Warning, "dead path: no database path from the root can match");
    ("SSD102", Warning, "partially dead path: matching becomes impossible at a later step");
    ("SSD103", Warning, "void path expression: the regex matches no label word at all");
    ("SSD201", Error, "datalog: head variable not bound by a positive body literal");
    ("SSD202", Error, "datalog: variable in a negated literal not positively bound");
    ("SSD203", Error, "datalog: variable in a comparison not positively bound");
    ("SSD210", Error, "datalog: program is not stratifiable (negation through recursion)");
    ("SSD211", Warning, "datalog: predicate used but never defined (and not extensional)");
    ("SSD212", Warning, "datalog: predicate used with inconsistent arities");
    ("SSD213", Error, "datalog: incremental maintenance requires a negation-free program");
    ("SSD250", Warning, "cardinality: result is statically empty (estimate 0)");
    ("SSD251", Note, "cardinality: select is always singleton (estimate <= 1)");
    ("SSD252", Warning, "cardinality: conjunct order builds a cross product (cheaper order exists)");
    ("SSD253", Warning, "cardinality: unbounded recursion over a cyclic region under a step budget");
    ("SSD254", Warning, "cardinality: inferred result schema not subsumed by the declared schema");
    ("SSD301", Warning, "unused binder: variable is bound but never referenced");
    ("SSD302", Warning, "shadowed binding: an enclosing binding of the same name is hidden");
    ("SSD303", Error, "unbound tree variable");
    ("SSD304", Error, "conflicting label/tree use of one variable");
    ("SSD305", Error, "application of an unknown function");
    ("SSD306", Error, "recursive sfun call must apply to the case's tree variable");
    ("SSD307", Error, "sfun body mentions a free tree variable");
    ("SSD308", Error, "regular path expressions are not allowed in sfun case steps");
    ("SSD309", Error, "sfun shadows an enclosing sfun of the same name");
    ("SSD310", Warning, "structural recursion re-emits its traversal edge on cyclic input");
    ("SSD311", Warning, "UnCAL marker used (as output) but never defined (as input)");
    ("SSD312", Warning, "UnCAL marker defined (as input) but never used (as output)");
    ("SSD401", Error, "Lorel: unbound range variable");
    ("SSD402", Warning, "Lorel: dead path against the DataGuide");
    ("SSD403", Warning, "Lorel: duplicate range variable shadows an earlier one");
    ("SSD520", Error, "relational store: arity or attribute mismatch");
    ("SSD521", Error, "triple codec: malformed edge/root relation");
    ("SSD530", Error, "views: duplicate view definition");
    ("SSD540", Error, "distributed evaluation: partition must have a positive site count");
    ("SSD541", Error, "fault plan: malformed fault specification");
    ("SSD542", Error, "storage pager: page or buffer capacity must be positive");
    ("SSD550", Error, "serve: malformed request frame");
    ("SSD551", Error, "serve: request frame exceeds the size limit");
    ("SSD552", Error, "serve: unknown or malformed request option");
    ("SSD553", Error, "serve: request failed during parsing or evaluation");
    ("SSD554", Warning, "serve: server overloaded, request shed (retry later)");
    ("SSD555", Error, "serve: unsupported verb or query language");
    ("SSD560", Error, "store: bad magic or format version");
    ("SSD561", Error, "store: page or segment CRC mismatch");
    ("SSD562", Warning, "store: torn or uncommitted WAL tail");
    ("SSD563", Error, "store: dangling page reference");
    ("SSD564", Error, "store: malformed segment");
    ("SSD565", Note, "store: recovery pending (not closed cleanly)");
    ("SSD566", Error, "store: a previous commit failed; reopen to recover");
  ]

let describe code =
  List.find_map (fun (c, _, d) -> if c = code then Some d else None) codes

let () =
  Printexc.register_printer (function
    | Fail d -> Some (to_string d)
    | _ -> None)
