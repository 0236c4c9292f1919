(* Minimal JSON emission — the toolkit deliberately has no JSON
   dependency (Planner.explain_json uses this escaper too).

   Escaping covers the full non-printable range on BOTH sides: control
   characters below 0x20 and every byte at or above 0x7F.  Span and
   peer names come from document labels, which are attacker-supplied
   in hostile workloads — emitting raw high bytes would let a label
   smuggle invalid UTF-8 (or terminal escape sequences, for the table
   renderers) into exporter output.  Bytes >= 0x80 are escaped as
   their Latin-1 code points, keeping the output pure ASCII. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 || Char.code c >= 0x7F ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* The same range, for plain-terminal output (axmlctl tables): control
   and non-ASCII bytes become  \xNN  so hostile labels cannot inject
   terminal escape sequences. *)
let sanitize s =
  if
    String.for_all (fun c -> Char.code c >= 0x20 && Char.code c < 0x7F) s
  then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if Char.code c >= 0x20 && Char.code c < 0x7F then Buffer.add_char buf c
        else Buffer.add_string buf (Printf.sprintf "\\x%02x" (Char.code c)))
      s;
    Buffer.contents buf
  end

(* JSON numbers must not be [nan]/[inf]; timestamps and durations are
   finite by construction but durations of still-open spans are -1. *)
let num f = if Float.is_finite f then Printf.sprintf "%.3f" f else "0"

let args_json extra args =
  let field (k, v) = Printf.sprintf {|"%s":"%s"|} (json_escape k) (json_escape v) in
  String.concat "," (List.map field (extra @ args))

(* --- Chrome trace_event ------------------------------------------ *)

(* One process row per distinct peer, in order of first appearance;
   timestamps are microseconds. *)
let chrome_trace (events : Trace.event list) =
  let peers = ref [] in
  let pid_of peer =
    match List.assoc_opt peer !peers with
    | Some pid -> pid
    | None ->
        let pid = List.length !peers + 1 in
        peers := !peers @ [ (peer, pid) ];
        pid
  in
  let event_json (e : Trace.event) =
    let pid = pid_of e.Trace.peer in
    let args =
      args_json
        ([
           ("span", string_of_int e.Trace.id);
           ( "parent",
             match e.Trace.parent with Some p -> string_of_int p | None -> ""
           );
           ("corr", string_of_int e.Trace.corr);
         ]
        @ if e.Trace.op >= 0 then [ ("op", string_of_int e.Trace.op) ] else [])
        e.Trace.args
    in
    match e.Trace.kind with
    | Trace.Span ->
        Printf.sprintf
          {|{"name":"%s","cat":"%s","ph":"X","pid":%d,"tid":1,"ts":%s,"dur":%s,"args":{%s}}|}
          (json_escape e.Trace.name) (json_escape e.Trace.cat) pid
          (num (e.Trace.ts_ms *. 1000.0))
          (num (Float.max 0.0 e.Trace.dur_ms *. 1000.0))
          args
    | Trace.Instant ->
        Printf.sprintf
          {|{"name":"%s","cat":"%s","ph":"i","s":"t","pid":%d,"tid":1,"ts":%s,"args":{%s}}|}
          (json_escape e.Trace.name) (json_escape e.Trace.cat) pid
          (num (e.Trace.ts_ms *. 1000.0))
          args
  in
  let spans = List.map event_json events in
  let metadata =
    List.map
      (fun (peer, pid) ->
        Printf.sprintf
          {|{"name":"process_name","ph":"M","pid":%d,"args":{"name":"%s"}}|}
          pid (json_escape peer))
      !peers
  in
  Printf.sprintf {|{"traceEvents":[%s]}|} (String.concat ",\n" (metadata @ spans))

(* --- JSONL -------------------------------------------------------- *)

let jsonl (events : Trace.event list) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (e : Trace.event) ->
      Buffer.add_string buf
        (Printf.sprintf
           {|{"id":%d,"parent":%s,"corr":%d,"kind":"%s","name":"%s","cat":"%s","peer":"%s","ts_ms":%s,"dur_ms":%s|}
           e.Trace.id
           (match e.Trace.parent with
           | Some p -> string_of_int p
           | None -> "null")
           e.Trace.corr
           (match e.Trace.kind with Trace.Span -> "span" | Trace.Instant -> "instant")
           (json_escape e.Trace.name) (json_escape e.Trace.cat)
           (json_escape e.Trace.peer) (num e.Trace.ts_ms) (num e.Trace.dur_ms));
      if e.Trace.op >= 0 then
        Buffer.add_string buf (Printf.sprintf {|,"op":%d|} e.Trace.op);
      if e.Trace.args <> [] then begin
        Buffer.add_string buf {|,"args":{|};
        Buffer.add_string buf (args_json [] e.Trace.args);
        Buffer.add_char buf '}'
      end;
      Buffer.add_string buf "}\n")
    events;
  Buffer.contents buf

(* --- Metrics ------------------------------------------------------ *)

let metrics_json m =
  let entry (e : Metrics.entry) =
    let key =
      Printf.sprintf {|"peer":"%s","subsystem":"%s","name":"%s"|}
        (json_escape e.Metrics.peer)
        (json_escape e.Metrics.subsystem)
        (json_escape e.Metrics.name)
    in
    match e.Metrics.sample with
    | Metrics.Count n -> Printf.sprintf {|{%s,"kind":"counter","count":%d}|} key n
    | Metrics.Value { value; max_value } ->
        Printf.sprintf {|{%s,"kind":"gauge","value":%s,"max":%s}|} key (num value)
          (num max_value)
    | Metrics.Dist { count; sum; buckets } ->
        let bs =
          buckets
          |> List.map (fun (bound, n) ->
                 Printf.sprintf {|{"le":%s,"count":%d}|}
                   (if Float.is_finite bound then Printf.sprintf "%g" bound
                    else {|"inf"|})
                   n)
          |> String.concat ","
        in
        Printf.sprintf {|{%s,"kind":"histogram","count":%d,"sum":%s,"buckets":[%s]}|}
          key count (num sum) bs
  in
  Printf.sprintf "[%s]"
    (String.concat ",\n" (List.map entry (Metrics.snapshot m)))
