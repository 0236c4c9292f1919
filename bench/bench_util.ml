(* Shared infrastructure for the experiment harness: plain-text table
   rendering, standard system builders and the hard-check gate. *)

open Axml

let section title =
  let bar = String.make (String.length title + 4) '=' in
  Printf.printf "\n%s\n| %s |\n%s\n" bar title bar

(* Render a table with left-aligned first column and right-aligned
   numeric columns. *)
let table ~headers rows =
  let cols = List.length headers in
  let widths = Array.make cols 0 in
  List.iteri
    (fun i h -> widths.(i) <- max widths.(i) (String.length h))
    headers;
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> if i < cols then widths.(i) <- max widths.(i) (String.length cell))
        row)
    rows;
  let print_row cells =
    List.iteri
      (fun i cell ->
        if i = 0 then Printf.printf "  %-*s" widths.(i) cell
        else Printf.printf "  %*s" widths.(i) cell)
      cells;
    print_newline ()
  in
  print_row headers;
  print_row (List.map (fun w -> String.make w '-') (Array.to_list widths));
  List.iter print_row rows

let fmt_bytes b =
  if b >= 1_000_000 then Printf.sprintf "%.1fMB" (float_of_int b /. 1e6)
  else if b >= 10_000 then Printf.sprintf "%.1fkB" (float_of_int b /. 1e3)
  else Printf.sprintf "%dB" b

let fmt_ms = Printf.sprintf "%.1f"
let fmt_ratio = Printf.sprintf "%.1fx"

let p1 = Net.Peer_id.of_string "p1"
let p2 = Net.Peer_id.of_string "p2"
let p3 = Net.Peer_id.of_string "p3"

let default_link = Net.Link.make ~latency_ms:10.0 ~bandwidth_bytes_per_ms:100.0

let mesh_system ?(peers = [ p1; p2; p3 ]) ?(link = default_link) () =
  Runtime.System.create (Net.Topology.full_mesh ~link peers)

(* A system with a synthetic catalog of [items] at p2. *)
let catalog_system ~items ~selectivity ?(payload_bytes = 64) ~seed () =
  let sys = mesh_system () in
  let rng = Workload.Rng.create ~seed in
  let g = Runtime.System.gen_of sys p2 in
  let catalog =
    Workload.Xml_gen.catalog ~gen:g ~rng ~items ~selectivity ~payload_bytes ()
  in
  Runtime.System.add_document sys p2 ~name:"cat" catalog;
  (sys, Xml.Tree.byte_size catalog)

let run_plan sys plan = Runtime.Exec.run_to_quiescence sys ~ctx:p1 plan

(* The hard checks of every experiment: a failure prints a "!!" line
   and makes bench/main.exe exit non-zero.  "~~" lines are advisory
   wall-clock notes. *)
let hard_failures = ref 0

let gate ok msg =
  if not ok then begin
    incr hard_failures;
    Printf.printf "  !! %s\n" msg
  end

let check_same label a b =
  gate (Xml.Canonical.equal_forest a b) (label ^ ": result mismatch")
