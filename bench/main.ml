(* Benchmark harness.

   Two layers:
   1. the experiment tables E1-E10 (Experiments.all) — the rows and
      series EXPERIMENTS.md records, regenerated from the simulator;
   2. one Bechamel micro-benchmark per experiment (plus substrate
      kernels), measuring the wall-clock cost of a representative
      kernel of that experiment.

   Run everything:        dune exec bench/main.exe
   Tables only:           dune exec bench/main.exe -- --tables
   Micro-benchmarks only: dune exec bench/main.exe -- --micro
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
   every artifact present; --smoke shrinks them to CI size. *)

open Axml
open Bench_util
module Expr = Algebra.Expr

(* --- Bechamel micro-benchmarks ---------------------------------- *)

let catalog_xml =
  let rng = Workload.Rng.create ~seed:123 in
  let g = Xml.Node_id.Gen.create ~namespace:"bench" in
  Xml.Serializer.to_string
    (Workload.Xml_gen.catalog ~gen:g ~rng ~items:300 ~selectivity:0.1 ())

let parsed_catalog =
  Xml.Parser.parse_exn
    ~gen:(Xml.Node_id.Gen.create ~namespace:"bench2")
    catalog_xml

let sel_query = Workload.Xml_gen.selection_query ()

(* E1 kernel: run the pushed-selection plan end to end on a small
   system. *)
let bench_e1 () =
  let sys, _ = catalog_system ~items:100 ~selectivity:0.1 ~seed:1 () in
  let naive = Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "cat" ~at:"p2" ] in
  let plan =
    match Algebra.Rewrite.r11_push_selection naive with
    | [ r ] -> r.result
    | _ -> assert false
  in
  ignore (run_plan sys plan)

let bench_e2 () =
  let sys = mesh_system () in
  let rng = Workload.Rng.create ~seed:2 in
  let g = Runtime.System.gen_of sys p1 in
  Runtime.System.add_document sys p1 ~name:"cat"
    (Workload.Xml_gen.catalog ~gen:g ~rng ~items:100 ~selectivity:0.1 ());
  let plan =
    Expr.Query_app
      {
        query = Expr.Q_send { dest = p2; q = Expr.Q_val { q = sel_query; at = p1 } };
        args = [ Expr.send_to_peer p2 (Expr.doc "cat" ~at:"p1") ];
        at = p2;
      }
  in
  ignore (run_plan sys plan)

let bench_e3 () =
  let sys = mesh_system () in
  List.iteri
    (fun i p ->
      let rng = Workload.Rng.create ~seed:(30 + i) in
      let g = Runtime.System.gen_of sys p in
      Runtime.System.add_document sys p ~name:"cat"
        (Workload.Xml_gen.catalog ~gen:g ~rng ~items:60 ~selectivity:0.1 ()))
    [ p2; p3 ];
  let pushed_sub peer =
    Expr.Query_app
      {
        query = Expr.Q_send { dest = peer; q = Expr.Q_val { q = sel_query; at = p1 } };
        args = [ Expr.doc "cat" ~at:(Net.Peer_id.to_string peer) ];
        at = peer;
      }
  in
  let head =
    Query.Parser.parse_exn
      "query(2) for $a in $0, $b in $1 return <pair>{$a}{$b}</pair>"
  in
  ignore
    (run_plan sys
       (Expr.Query_app
          {
            query = Expr.Q_val { q = head; at = p1 };
            args = [ pushed_sub p2; pushed_sub p3 ];
            at = p1;
          }))

let bench_e4 () =
  let sys, _ = catalog_system ~items:100 ~selectivity:0.1 ~seed:4 () in
  let relayed =
    Expr.Send
      {
        dest = Expr.To_peer p1;
        expr = Expr.Send { dest = Expr.To_peer p3; expr = Expr.doc "cat" ~at:"p2" };
      }
  in
  ignore (run_plan sys relayed)

let bench_e5 () =
  let sys, _ = catalog_system ~items:100 ~selectivity:0.1 ~seed:5 () in
  let fetch = Expr.send_to_peer p1 (Expr.doc "cat" ~at:"p2") in
  let join =
    Query.Parser.parse_exn
      {|query(2) for $x in $0//item, $y in $1//item where attr($x, "category") = "wanted" and attr($y, "category") = "wanted" return <pair/>|}
  in
  let twice = Expr.query_at join ~at:p1 ~args:[ fetch; fetch ] in
  let shared =
    match Algebra.Rewrite.r13_share ~fresh:(fun () -> "_tmp_b") twice with
    | r :: _ -> r.result
    | [] -> assert false
  in
  ignore (run_plan sys shared)

let bench_e9 () =
  let g = Xml.Node_id.Gen.create ~namespace:"b9" in
  let state = Query.Incremental.create sel_query in
  let rng = Workload.Rng.create ~seed:9 in
  for _ = 1 to 8 do
    let t =
      Workload.Xml_gen.catalog ~gen:g ~rng ~items:10 ~selectivity:0.2 ()
    in
    ignore (Query.Incremental.push ~gen:g state ~input:0 t)
  done

let bench_e10 () =
  let env =
    Algebra.Cost.default_env ~doc_bytes:(fun _ -> 16_384)
      (Net.Topology.full_mesh ~link:default_link [ p1; p2; p3 ])
  in
  let naive = Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "cat" ~at:"p2" ] in
  ignore
    (Algebra.Optimizer.optimize ~env ~ctx:p1
       (Algebra.Optimizer.Exhaustive { depth = 2 })
       naive)

let bench_e15 () =
  let env =
    Algebra.Cost.default_env ~doc_bytes:(fun _ -> 16_384)
      (Net.Topology.full_mesh ~link:default_link [ p1; p2; p3 ])
  in
  let naive = Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "cat" ~at:"p2" ] in
  ignore
    (Algebra.Planner.plan ~env ~ctx:p1
       (Algebra.Optimizer.Best_first { max_expansions = 16 })
       naive)

let micro_tests =
  let open Bechamel in
  let t name f = Test.make ~name (Staged.stage f) in
  [
    (* Substrate kernels. *)
    t "xml.parse 300-item catalog" (fun () ->
        ignore
          (Xml.Parser.parse_exn
             ~gen:(Xml.Node_id.Gen.create ~namespace:"k")
             catalog_xml));
    t "xml.serialize 300-item catalog" (fun () ->
        ignore (Xml.Serializer.to_string parsed_catalog));
    t "xml.canonicalize 300-item catalog" (fun () ->
        ignore (Xml.Canonical.fingerprint parsed_catalog));
    t "query.eval selection over catalog" (fun () ->
        ignore
          (Query.Eval.eval
             ~gen:(Xml.Node_id.Gen.create ~namespace:"k2")
             sel_query
             [ [ parsed_catalog ] ]));
    (* One kernel per experiment table. *)
    t "E1 pushed-selection plan" bench_e1;
    t "E2 delegated evaluation" bench_e2;
    t "E3 distributed composition" bench_e3;
    t "E4 relayed transfer" bench_e4;
    t "E5 shared transfer" bench_e5;
    t "E6 sc activation" (fun () ->
        let sys = mesh_system () in
        Runtime.System.add_service sys p2
          (Doc.Service.declarative ~name:"find" sel_query);
        let sc =
          Doc.Sc.make ~provider:(Doc.Names.At p2) ~service:"find"
            [ [ Xml.Tree.copy ~gen:(Runtime.System.gen_of sys p1) parsed_catalog ] ]
        in
        ignore (run_plan sys (Expr.sc sc ~at:p1)));
    t "E7 push query over sc" (fun () ->
        let sys = mesh_system () in
        Runtime.System.add_service sys p2
          (Doc.Service.declarative ~name:"find" sel_query);
        let probe = Query.Parser.parse_exn "query(1) for $h in $0 return <n/>" in
        let plan =
          Expr.Query_app
            {
              query = Expr.Q_val { q = probe; at = p1 };
              args =
                [
                  Expr.Sc
                    {
                      sc =
                        Doc.Sc.make ~provider:(Doc.Names.At p2) ~service:"find"
                          [
                            [
                              Xml.Tree.copy
                                ~gen:(Runtime.System.gen_of sys p1)
                                parsed_catalog;
                            ];
                          ];
                      at = p1;
                    };
                ];
              at = p1;
            }
        in
        let pushed =
          match Algebra.Rewrite.r16_push_query_over_sc plan with
          | [ r ] -> r.result
          | _ -> assert false
        in
        ignore (run_plan sys pushed));
    t "E8 pick-policy resolution" (fun () ->
        let sys, _ = catalog_system ~items:50 ~selectivity:0.1 ~seed:8 () in
        Runtime.System.register_doc_class sys ~class_name:"m"
          (Doc.Names.Doc_ref.at_peer "cat" ~peer:"p2");
        ignore (run_plan sys (Expr.doc_any "m")));
    t "E9 incremental push x8" bench_e9;
    t "E10 exhaustive optimizer" bench_e10;
    t "E15 best-first planner" bench_e15;
    t "expr.fingerprint naive plan" (fun () ->
        ignore
          (Algebra.Expr.fingerprint
             (Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "cat" ~at:"p2" ])));
  ]

let run_micro () =
  let open Bechamel in
  section "Bechamel micro-benchmarks (monotonic clock per run)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
  in
  let rows =
    List.filter_map
      (fun test ->
        let results =
          Benchmark.all cfg [ instance ]
            (Test.make_grouped ~name:"" ~fmt:"%s%s" [ test ])
        in
        let analyzed = Analyze.all ols instance results in
        Hashtbl.fold
          (fun name ols_result acc ->
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] ->
                Some
                  [
                    name;
                    (if est >= 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
                     else if est >= 1e3 then Printf.sprintf "%.1f us" (est /. 1e3)
                     else Printf.sprintf "%.0f ns" est);
                  ]
            | _ -> acc)
          analyzed None)
      micro_tests
  in
  table ~headers:[ "kernel"; "time/run" ] rows

let () =
  let args = Array.to_list Sys.argv in
  let tables_only = List.mem "--tables" args in
  let micro_only = List.mem "--micro" args in
  let e17_only = List.mem "--e17" args in
  let e18_only = List.mem "--e18" args in
  let e19_only = List.mem "--e19" args in
  let e20_only = List.mem "--e20" args in
  let e21_only = List.mem "--e21" args in
  let e22_only = List.mem "--e22" args in
  let e23_only = List.mem "--e23" args in
  let e24_only = List.mem "--e24" args in
  let smoke = List.mem "--smoke" args in
  if e17_only then Experiments.e17 ~smoke ()
  else if e18_only then Experiments.e18 ~smoke ()
  else if e19_only then Experiments.e19 ~smoke ()
  else if e20_only then Experiments.e20 ~smoke ()
  else if e21_only then Experiments.e21 ~smoke ()
  else if e22_only then Experiments.e22 ~smoke ()
  else if e23_only then Experiments.e23 ~smoke ()
  else if e24_only then Experiments.e24 ~smoke ()
  else begin
    if not micro_only then begin
      print_endline "AXML framework experiment harness (see EXPERIMENTS.md)";
      List.iter (fun e -> e ()) Experiments.all
    end;
    if not tables_only then run_micro ()
  end;
  print_newline ()
