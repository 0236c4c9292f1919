(* Self-test of the benchmark: tiny shapes of the three workloads go
   through bench.exe — the same code and oracles as a real run — twice
   untraced (the first with the oracle) and once traced, each in a
   fresh process.  Every answer must pass its oracle and the
   deterministic metrics (virtual latencies, completion, bytes, counts,
   answer digests) must repeat exactly. *)

let bench =
  let b = Sys.argv.(1) in
  if Filename.is_implicit b then Filename.concat Filename.current_dir_name b else b

let run args =
  let ic = Unix.open_process_args_in bench (Array.of_list (bench :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> String.trim out
  | _ -> failwith ("bench.exe failed: " ^ String.concat " " args)

(* The flat ["deterministic": {...}] object of a bench.exe result. *)
let field_obj name line =
  let key = Printf.sprintf "%S: {" name in
  let klen = String.length key in
  let rec find i =
    if i + klen > String.length line then failwith ("no " ^ name ^ " in " ^ line)
    else if String.sub line i klen = key then i + klen
    else find (i + 1)
  in
  let start = find 0 in
  String.sub line start (String.index_from line start '}' - start)

let contains line s =
  let n = String.length s in
  let rec go i = i + n <= String.length line && (String.sub line i n = s || go (i + 1)) in
  go 0

let () =
  let failures = ref 0 in
  List.iter
    (fun w ->
      let base = [ "--workload"; w; "--seed"; "3"; "--shape"; "tiny" ] in
      let first = run (base @ [ "--oracle" ]) in
      let again = run base in
      let traced = run (base @ [ "--trace" ]) in
      let det = field_obj "deterministic" first in
      let check what ok =
        if not ok then begin
          incr failures;
          Printf.printf "FAIL %s: %s\n" w what
        end
      in
      check "oracle" (contains first "\"failed\": 0,");
      check "untraced repeat" (det = field_obj "deterministic" again);
      check "traced repeat" (det = field_obj "deterministic" traced);
      check "attribution" (contains traced "\"attribution_sane\": true"))
    [ "crowd"; "hotspot"; "query" ];
  if !failures > 0 then exit 1
