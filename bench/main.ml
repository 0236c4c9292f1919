(* Experiment harness: the tables E1-E24 (Experiments.all) — the rows
   and series EXPERIMENTS.md records, regenerated from the simulator.

   Every table:           dune exec bench/main.exe
   E17 only:              dune exec bench/main.exe -- --e17 [--smoke]
   E18 only:              dune exec bench/main.exe -- --e18 [--smoke]
   E19 only:              dune exec bench/main.exe -- --e19 [--smoke]
   E20 only:              dune exec bench/main.exe -- --e20 [--smoke]
   E21 only:              dune exec bench/main.exe -- --e21 [--smoke]
   E22 only:              dune exec bench/main.exe -- --e22 [--smoke]
   E23 only:              dune exec bench/main.exe -- --e23 [--smoke]
   E24 only:              dune exec bench/main.exe -- --e24 [--smoke]

   E17-E24 each write a BENCH_E<n>.json artifact to the current
   directory, then regenerate BENCH_summary.json — a uniform
   {schema_version, experiments: {E17: ..., ...}} envelope embedding
   every artifact present; --smoke shrinks them to CI size.  The exit
   status is non-zero when any hard ("!!") check failed. *)

let () =
  let args = Array.to_list Sys.argv in
  let smoke = List.mem "--smoke" args in
  let single =
    [
      ("--e17", Experiments.e17); ("--e18", Experiments.e18);
      ("--e19", Experiments.e19); ("--e20", Experiments.e20);
      ("--e21", Experiments.e21); ("--e22", Experiments.e22);
      ("--e23", Experiments.e23); ("--e24", Experiments.e24);
    ]
  in
  (match List.find_opt (fun (flag, _) -> List.mem flag args) single with
  | Some (_, e) -> e ~smoke ()
  | None ->
      print_endline "AXML framework experiment harness (see EXPERIMENTS.md)";
      List.iter (fun e -> e ()) Experiments.all);
  print_newline ();
  if !Bench_util.hard_failures > 0 then begin
    Printf.eprintf "%d hard check(s) failed (the !! lines above)\n"
      !Bench_util.hard_failures;
    exit 1
  end
