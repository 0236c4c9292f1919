(* axmlctl — command-line front end to the distributed AXML framework.

   Sub-commands:
     parse      parse an XML file and pretty-print it
     query      run a query over XML documents
     rules      list the rewrites applicable to a serialized plan
     optimize   optimize a serialized plan under the cost model
     explain    run the unified planner and print its explain record
     demo       run the Example-1 demonstration end to end
     trace      run the traced Example-1 and export spans + metrics
     chaos      run the reference plans under seeded faults
     scale      run the flash-crowd scenario and print tier traffic
     place      hotspot scenario, static vs adaptive placement arms
     cache      overlap workload, semantic result cache off vs on
     top        flash-crowd under windowed telemetry; per-peer table *)

open Cmdliner
open Axml

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline msg;
      exit 1

(* --- parse ----------------------------------------------------- *)

let parse_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"XML file")
  in
  let keep_ws =
    Arg.(value & flag & info [ "keep-whitespace" ] ~doc:"Keep whitespace-only text nodes")
  in
  let run file keep_ws =
    let gen = Xml.Node_id.Gen.create ~namespace:"cli" in
    match Xml.Parser.parse ~keep_ws ~gen (read_file file) with
    | Ok t ->
        print_string (Xml.Serializer.to_string_pretty t);
        Format.printf "@.; %d nodes, %d bytes, depth %d@." (Xml.Tree.size t)
          (Xml.Tree.byte_size t) (Xml.Tree.depth t)
    | Error e ->
        Format.eprintf "%a@." Xml.Parser.pp_error e;
        exit 1
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse an XML file and pretty-print it")
    Term.(const run $ file $ keep_ws)

(* --- query ----------------------------------------------------- *)

let query_cmd =
  let qarg =
    Arg.(
      required
      & opt (some string) None
      & info [ "q"; "query" ] ~docv:"QUERY" ~doc:"Query text (see README for syntax)")
  in
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"Input documents")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "EXPLAIN ANALYZE: run the query on a synthetic distributed \
             system (a driver peer plus one peer per input document) under \
             the per-operator profiler, and print planner cost estimates \
             next to the observed per-operator costs.  Exits non-zero if \
             the per-operator sim times fail to sum to the root span")
  in
  (* The profiled path re-creates the query as a distributed plan: each
     input file becomes a document installed on its own peer of a
     synthetic mesh, so the operator table shows real transfer and
     delivery costs, not a local evaluation. *)
  let run_profile qtext files =
    let q =
      match Query.Parser.parse qtext with
      | Ok q -> q
      | Error e ->
          Format.eprintf "%a@." Query.Parser.pp_error e;
          exit 1
    in
    if Query.Ast.arity q <> List.length files then begin
      Format.eprintf "query expects %d input(s), %d file(s) given@."
        (Query.Ast.arity q) (List.length files);
      exit 1
    end;
    let driver = Net.Peer_id.of_string "p1" in
    let holders =
      List.mapi
        (fun i _ -> Net.Peer_id.of_string (Printf.sprintf "p%d" (i + 2)))
        files
    in
    let topo =
      Net.Topology.full_mesh
        ~link:(Net.Link.make ~latency_ms:10.0 ~bandwidth_bytes_per_ms:100.0)
        (driver :: holders)
    in
    let sys = Runtime.System.create topo in
    Obs.Metrics.set_enabled Obs.Metrics.default true;
    Obs.Metrics.reset Obs.Metrics.default;
    let args =
      List.mapi
        (fun i (f, p) ->
          let gen = Runtime.System.gen_of sys p in
          match Xml.Parser.parse ~gen (read_file f) with
          | Ok t ->
              let name = Printf.sprintf "in%d" (i + 1) in
              Runtime.System.add_document sys p ~name t;
              Algebra.Expr.doc name ~at:(Net.Peer_id.to_string p)
          | Error e ->
              Format.eprintf "%s: %a@." f Xml.Parser.pp_error e;
              exit 1)
        (List.combine files holders)
    in
    let plan = Algebra.Expr.query_at q ~at:driver ~args in
    let { Runtime.Exec.outcome; report } =
      Runtime.Exec.run_profiled sys ~ctx:driver plan
    in
    List.iter
      (fun t -> print_string (Xml.Serializer.to_string_pretty t))
      outcome.Runtime.Exec.results;
    Format.printf "; %d result(s), %.1f sim ms, %d bytes on the wire@.@."
      (List.length outcome.Runtime.Exec.results)
      outcome.Runtime.Exec.elapsed_ms outcome.Runtime.Exec.stats.Net.Stats.bytes;
    Format.printf "%a@." Runtime.Profiler.pp_report report;
    if not (Runtime.Profiler.sums_to_root report) then exit 1
  in
  let run qtext profile files =
    if profile then run_profile qtext files
    else begin
      let gen = Xml.Node_id.Gen.create ~namespace:"cli" in
      let q =
        match Query.Parser.parse qtext with
        | Ok q -> q
        | Error e ->
            Format.eprintf "%a@." Query.Parser.pp_error e;
            exit 1
      in
      if Query.Ast.arity q <> List.length files then begin
        Format.eprintf "query expects %d input(s), %d file(s) given@."
          (Query.Ast.arity q) (List.length files);
        exit 1
      end;
      let inputs =
        List.map
          (fun f ->
            match Xml.Parser.parse_forest ~gen (read_file f) with
            | Ok forest -> forest
            | Error e ->
                Format.eprintf "%s: %a@." f Xml.Parser.pp_error e;
                exit 1)
          files
      in
      let out = Query.Compile.eval ~gen q inputs in
      List.iter (fun t -> print_string (Xml.Serializer.to_string_pretty t)) out;
      Format.printf "; %d result(s)@." (List.length out)
    end
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Evaluate a query over XML documents")
    Term.(const run $ qarg $ profile $ files)

(* --- shared plan options --------------------------------------- *)

let plan_arg =
  Arg.(
    required & pos 0 (some file) None
    & info [] ~docv:"PLAN" ~doc:"Serialized expression (see Expr_xml)")

let peers_arg =
  Arg.(
    value
    & opt (list string) [ "p1"; "p2"; "p3" ]
    & info [ "peers" ] ~docv:"PEERS" ~doc:"Peer identifiers of the system")

let ctx_arg =
  Arg.(
    value & opt string "p1"
    & info [ "ctx" ] ~docv:"PEER" ~doc:"Driver peer (eval@ctx)")

let load_plan path = or_die (Algebra.Expr_xml.of_xml_string (read_file path))

(* --- rules ------------------------------------------------------ *)

let rules_cmd =
  let run plan peers =
    let e = load_plan plan in
    let peers = List.map Net.Peer_id.of_string peers in
    let n = ref 0 in
    let fresh () =
      incr n;
      Printf.sprintf "_tmp_cli%d" !n
    in
    let rewrites = Algebra.Rewrite.everywhere ~peers ~fresh e in
    Format.printf "plan: %a@.%d rewrite(s):@." Algebra.Expr.pp e
      (List.length rewrites);
    List.iter
      (fun (r : Algebra.Rewrite.rewrite) ->
        Format.printf "  %a@." Algebra.Rewrite.pp_rewrite r)
      rewrites
  in
  Cmd.v
    (Cmd.info "rules" ~doc:"List rewrites applicable to a plan")
    Term.(const run $ plan_arg $ peers_arg)

(* --- optimize / explain ------------------------------------------ *)

(* The runtime's search ([Exec.default_strategy]); only its budget is
   a knob, so by default the plan printed is the plan [run_optimized]
   executes. *)
let strategy_arg =
  let expansions =
    Arg.(
      value
      & opt
          (some
             ~none:(Algebra.Optimizer.strategy_name Runtime.Exec.default_strategy)
             int)
          None
      & info [ "expansions" ] ~docv:"N" ~doc:"Best-first expansion budget")
  in
  let strategy = function
    | None -> Runtime.Exec.default_strategy
    | Some n -> Algebra.Optimizer.Best_first { max_expansions = n }
  in
  Term.(const strategy $ expansions)

let latency_arg =
  Arg.(value & opt float 10.0 & info [ "latency" ] ~doc:"Mesh latency (ms)")

let bandwidth_arg =
  Arg.(
    value & opt float 100.0 & info [ "bandwidth" ] ~doc:"Mesh bandwidth (B/ms)")

let doc_bytes_arg =
  Arg.(
    value & opt int 16384
    & info [ "doc-bytes" ] ~doc:"Assumed size of referenced documents")

(* The synthetic mesh always covers the peers the plan itself
   mentions — a plan referencing a peer missing from --peers would
   otherwise crash the cost model's link lookup. *)
let mesh_env ~plan ~peers ~latency ~bandwidth ~doc_bytes =
  let peer_ids =
    List.fold_left
      (fun acc p -> if List.exists (Net.Peer_id.equal p) acc then acc else acc @ [ p ])
      (List.map Net.Peer_id.of_string peers)
      (Algebra.Expr.peers plan)
  in
  let topo =
    Net.Topology.full_mesh
      ~link:(Net.Link.make ~latency_ms:latency ~bandwidth_bytes_per_ms:bandwidth)
      peer_ids
  in
  Algebra.Cost.default_env ~doc_bytes:(fun _ -> doc_bytes) topo

let optimize_cmd =
  let run plan peers ctx strategy latency bandwidth doc_bytes =
    let e = load_plan plan in
    let env = mesh_env ~plan:e ~peers:(ctx :: peers) ~latency ~bandwidth ~doc_bytes in
    let result =
      Algebra.Optimizer.optimize ~env ~ctx:(Net.Peer_id.of_string ctx) strategy e
    in
    Format.printf "%a@." Algebra.Optimizer.pp_result result;
    print_endline "; serialized best plan:";
    print_endline (Algebra.Expr_xml.to_xml_string result.plan)
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Optimize a serialized plan")
    Term.(
      const run $ plan_arg $ peers_arg $ ctx_arg $ strategy_arg $ latency_arg
      $ bandwidth_arg $ doc_bytes_arg)

let explain_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the explain record as a JSON object")
  in
  let run plan peers ctx strategy latency bandwidth doc_bytes json =
    let e = load_plan plan in
    let env = mesh_env ~plan:e ~peers:(ctx :: peers) ~latency ~bandwidth ~doc_bytes in
    let result =
      Algebra.Planner.plan ~env ~ctx:(Net.Peer_id.of_string ctx) strategy e
    in
    if json then print_endline (Algebra.Planner.explain_json result)
    else Format.printf "%a@." Algebra.Planner.pp_result result
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Run the unified planner (rewrite search + per-site query \
          optimization) and print its explain record")
    Term.(
      const run $ plan_arg $ peers_arg $ ctx_arg $ strategy_arg $ latency_arg
      $ bandwidth_arg $ doc_bytes_arg $ json)

(* --- demo -------------------------------------------------------- *)

let demo_cmd =
  let items =
    Arg.(value & opt int 200 & info [ "items" ] ~doc:"Catalog items")
  in
  let selectivity =
    Arg.(value & opt float 0.05 & info [ "selectivity" ] ~doc:"Matching fraction")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the message trace of the optimized run")
  in
  let run items selectivity trace =
    let p1 = Net.Peer_id.of_string "p1" and p2 = Net.Peer_id.of_string "p2" in
    let topo =
      Net.Topology.full_mesh
        ~link:(Net.Link.make ~latency_ms:10.0 ~bandwidth_bytes_per_ms:100.0)
        [ p1; p2 ]
    in
    let build () =
      let sys = Runtime.System.create topo in
      let rng = Workload.Rng.create ~seed:2026 in
      let g = Runtime.System.gen_of sys p2 in
      Runtime.System.add_document sys p2 ~name:"cat"
        (Workload.Xml_gen.catalog ~gen:g ~rng ~items ~selectivity ());
      sys
    in
    let q = Workload.Xml_gen.selection_query () in
    let naive =
      Algebra.Expr.query_at q ~at:p1 ~args:[ Algebra.Expr.doc "cat" ~at:"p2" ]
    in
    let warn_truncated label (out : Runtime.Exec.outcome) =
      if out.termination = `Budget_exhausted then
        Format.eprintf
          "warning: %s run hit the event budget after %d events — results \
           are truncated@."
          label out.events
    in
    let out1 = Runtime.Exec.run_to_quiescence (build ()) ~ctx:p1 naive in
    warn_truncated "naive" out1;
    Format.printf "naive:  %6d bytes  %5.1f ms  %d results@." out1.stats.bytes
      out1.elapsed_ms (List.length out1.results);
    match Algebra.Rewrite.r11_push_selection naive with
    | [ r ] ->
        let sys2 = build () in
        if trace then
          Net.Stats.set_tracing (Net.Sim.stats (Runtime.System.sim sys2)) true;
        let out2 = Runtime.Exec.run_to_quiescence ~reset_stats:false sys2 ~ctx:p1 r.result in
        warn_truncated "pushed" out2;
        Format.printf "pushed: %6d bytes  %5.1f ms  %d results@."
          out2.stats.bytes out2.elapsed_ms
          (List.length out2.results);
        Format.printf "same answers: %b; bytes ratio: %.1fx@."
          (Xml.Canonical.equal_forest out1.results out2.results)
          (float_of_int out1.stats.bytes /. float_of_int (max 1 out2.stats.bytes));
        if trace then begin
          Format.printf "@.message trace of the pushed plan:@.";
          List.iter
            (fun e -> Format.printf "  %a@." Net.Stats.pp_trace_entry e)
            (Net.Stats.trace (Net.Sim.stats (Runtime.System.sim sys2)))
        end
    | _ -> prerr_endline "selection not pushable?"
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run the Example-1 (pushing selections) demo")
    Term.(const run $ items $ selectivity $ trace)

(* --- trace ------------------------------------------------------- *)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let trace_cmd =
  let items =
    Arg.(value & opt int 200 & info [ "items" ] ~doc:"Catalog items")
  in
  let selectivity =
    Arg.(value & opt float 0.05 & info [ "selectivity" ] ~doc:"Matching fraction")
  in
  let out =
    Arg.(
      value & opt string "trace.json"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Trace output file")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ]) `Chrome
      & info [ "format" ] ~docv:"chrome|jsonl"
          ~doc:
            "Trace format: $(b,chrome) is the trace_event JSON loadable in \
             Perfetto / chrome://tracing, $(b,jsonl) is one event object per \
             line")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Also write the metrics registry as a JSON array")
  in
  let flush_ms =
    Arg.(
      value & opt float 0.0
      & info [ "flush-ms" ] ~docv:"MS"
          ~doc:
            "Coalescing window of the Reliable transport; a positive value \
             runs Example-1 on it")
  in
  let ack_delay =
    Arg.(
      value & opt float 0.0
      & info [ "ack-delay" ] ~docv:"MS"
          ~doc:
            "Standalone-ack deferral of the Reliable transport; a positive \
             value runs Example-1 on it")
  in
  let run items selectivity out format metrics_out flush_ms ack_delay =
    (* Example-1 (pushing selections), instrumented: the naive plan and
       the planner's plan run back to back under tracing + metrics, and
       every span of one run carries that run's correlation id. *)
    Obs.Trace.set_enabled true;
    Obs.Trace.clear ();
    Obs.Metrics.set_enabled Obs.Metrics.default true;
    Obs.Metrics.reset Obs.Metrics.default;
    let p1 = Net.Peer_id.of_string "p1" and p2 = Net.Peer_id.of_string "p2" in
    let topo =
      Net.Topology.full_mesh
        ~link:(Net.Link.make ~latency_ms:10.0 ~bandwidth_bytes_per_ms:100.0)
        [ p1; p2 ]
    in
    let build () =
      (* Either knob implies the Reliable transport: both shape only the
         sequenced protocol. *)
      let sys =
        if flush_ms > 0.0 || ack_delay > 0.0 then
          Runtime.System.create ~transport:Runtime.System.Reliable ~flush_ms
            ~ack_delay_ms:ack_delay topo
        else Runtime.System.create topo
      in
      let rng = Workload.Rng.create ~seed:2026 in
      let g = Runtime.System.gen_of sys p2 in
      Runtime.System.add_document sys p2 ~name:"cat"
        (Workload.Xml_gen.catalog ~gen:g ~rng ~items ~selectivity ());
      sys
    in
    let q = Workload.Xml_gen.selection_query () in
    let naive =
      Algebra.Expr.query_at q ~at:p1 ~args:[ Algebra.Expr.doc "cat" ~at:"p2" ]
    in
    let out_naive = Runtime.Exec.run_to_quiescence (build ()) ~ctx:p1 naive in
    let _planned, out_planned = Runtime.Exec.run_optimized (build ()) ~ctx:p1 naive in
    Format.printf "naive:   %6d bytes  %5.1f ms  %d results@."
      out_naive.stats.bytes out_naive.elapsed_ms
      (List.length out_naive.results);
    Format.printf "planned: %6d bytes  %5.1f ms  %d results@."
      out_planned.stats.bytes out_planned.elapsed_ms
      (List.length out_planned.results);
    let events = Obs.Trace.events () in
    write_file out
      (match format with
      | `Chrome -> Obs.Exporter.chrome_trace events
      | `Jsonl -> Obs.Exporter.jsonl events);
    Format.printf "wrote %d trace events to %s@." (List.length events) out;
    Option.iter
      (fun path ->
        write_file path (Obs.Exporter.metrics_json Obs.Metrics.default);
        Format.printf "wrote metrics to %s@." path)
      metrics_out;
    Format.printf "@.%a@." Obs.Metrics.pp_table Obs.Metrics.default;
    (* Cross-checks: the metrics registry must agree byte-for-byte with
       the simulator's own accounting, and at least one correlation id
       must span several peers (a cross-peer causal chain). *)
    let metric_bytes =
      int_of_float (Obs.Metrics.total Obs.Metrics.default ~subsystem:"net" "bytes_sent")
    in
    let stats_bytes = out_naive.stats.bytes + out_planned.stats.bytes in
    Format.printf "bytes: metrics %d, stats %d — %s@." metric_bytes stats_bytes
      (if metric_bytes = stats_bytes then "agree" else "DISAGREE");
    let cross_peer_corr =
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun (e : Obs.Trace.event) ->
          if e.corr <> 0 then begin
            let peers =
              Option.value ~default:[] (Hashtbl.find_opt tbl e.corr)
            in
            if not (List.mem e.peer peers) then
              Hashtbl.replace tbl e.corr (e.peer :: peers)
          end)
        events;
      Hashtbl.fold
        (fun corr peers acc ->
          if List.length peers >= 2 then corr :: acc else acc)
        tbl []
    in
    (match cross_peer_corr with
    | [] ->
        prerr_endline "error: no correlation id spans more than one peer";
        exit 1
    | corrs ->
        Format.printf "%d correlation id(s) span >=2 peers@."
          (List.length corrs));
    if metric_bytes <> stats_bytes then exit 1
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the traced Example-1 scenario (naive and planner-optimized) \
          and export the causal trace plus per-peer metrics")
    Term.(
      const run $ items $ selectivity $ out $ format $ metrics_out $ flush_ms
      $ ack_delay)

(* --- chaos ------------------------------------------------------- *)

(* Shared by chaos/scale: turn SLO breaches into a distinct exit code
   (3).  The breach test reads the runtime's own counters — unserved
   requests, abandoned reliable deliveries, budget exhaustion — so it
   holds with every observability layer off; the matching trace
   instants (cat "slo") are the sampled, inspectable view of the same
   moments. *)
let slo_arg =
  Arg.(
    value & flag
    & info [ "slo" ]
        ~doc:
          "Exit with code 3 when the run breached an SLO: unserved \
           requests, abandoned reliable deliveries, or event-budget \
           exhaustion (computed from runtime counters, independent of \
           telemetry)")

(* Shared by chaos and scale: the wire format is orthogonal to the
   transport, so every command that builds a system takes both. *)
let wire_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("xml", Runtime.System.Xml);
             ("binary", Runtime.System.Binary);
             ("binary-strict", Runtime.System.Binary_strict);
           ])
        Runtime.System.Xml
    & info [ "wire" ] ~docv:"FORMAT"
        ~doc:
          "Wire format for byte accounting: $(b,xml) (the textual \
           serialization model), $(b,binary) (compact frames, \
           DESIGN.md \xC2\xA716), or $(b,binary-strict) (binary plus a full \
           encode/decode round-trip of every transmission).  The \
           delivered results and the final \xCE\xA3 are wire-independent.")

let chaos_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Fault plan seed") in
  let drop =
    Arg.(
      value & opt float 0.2
      & info [ "drop" ] ~docv:"P" ~doc:"Per-message drop probability")
  in
  let raw =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:
            "Use the Raw transport under the same faults (ablation; \
             divergence is expected and does not fail the command)")
  in
  let flush_ms =
    Arg.(
      value & opt float 0.0
      & info [ "flush-ms" ] ~docv:"MS"
          ~doc:
            "Coalescing window of the Reliable transport for the system \
             under test; 0 ships each message at send time (ignored with \
             $(b,--raw))")
  in
  let ack_delay =
    Arg.(
      value & opt float 0.0
      & info [ "ack-delay" ] ~docv:"MS"
          ~doc:
            "Standalone-ack deferral of the Reliable transport for the \
             system under test; 0 acks at once (ignored with $(b,--raw))")
  in
  let run seed drop raw flush_ms ack_delay wire slo =
    (* Three-peer reference Σ (the V-series shape): catalog at p2,
       orders at p3, a declarative service at p2, a collector inbox at
       p3 for the forwarded stream. *)
    let p1 = Net.Peer_id.of_string "p1"
    and p2 = Net.Peer_id.of_string "p2"
    and p3 = Net.Peer_id.of_string "p3" in
    let topo =
      Net.Topology.full_mesh
        ~link:(Net.Link.make ~latency_ms:10.0 ~bandwidth_bytes_per_ms:100.0)
        [ p1; p2; p3 ]
    in
    let catalog_xml =
      {|<catalog><item k="y"><name>alpha</name></item><item k="n"><name>beta</name></item><item k="y"><name>gamma</name></item></catalog>|}
    in
    let orders_xml =
      {|<orders><order item="alpha"/><order item="gamma"/><order item="zeta"/></orders>|}
    in
    (* The reference runs stay at flush 0 / ack 0 on the XML wire: the
       check is that a coalescing (or binary-wire) faulty run still
       reproduces the plain fault-free answer, not a twin of itself. *)
    let build ?(flush_ms = 0.0) ?(ack_delay_ms = 0.0)
        ?(wire = Runtime.System.Xml) transport =
      let sys =
        Runtime.System.create ~transport ~wire ~flush_ms ~ack_delay_ms topo
      in
      Runtime.System.load_document sys p2 ~name:"cat" ~xml:catalog_xml;
      Runtime.System.load_document sys p3 ~name:"orders" ~xml:orders_xml;
      Runtime.System.add_service sys p2
        (Doc.Service.declarative ~name:"find_wanted"
           (Query.Parser.parse_exn
              {|query(1) for $x in $0//item where attr($x, "k") = "y" return <found>{$x}</found>|}));
      let inbox_gen = Xml.Node_id.Gen.create ~namespace:"chaos-inbox" in
      let inbox = Xml.Tree.element_of_string ~gen:inbox_gen "inbox" [] in
      let inbox_id = Option.get (Xml.Tree.id inbox) in
      Runtime.System.add_document sys p3 ~name:"collector" inbox;
      (sys, inbox_id)
    in
    let plans inbox_id =
      [
        ( "two-site-join",
          Algebra.Expr.query_at
            (Query.Parser.parse_exn
               {|query(2) for $o in $0//order, $i in $1//item, $n in $i/name where attr($o, "item") = text($n) return <match>{$n}</match>|})
            ~at:p1
            ~args:
              [
                Algebra.Expr.doc "orders" ~at:"p3";
                Algebra.Expr.doc "cat" ~at:"p2";
              ] );
        ( "sc-with-forward",
          Algebra.Expr.sc
            (Doc.Sc.make
               ~forward:[ Doc.Names.Node_ref.make ~node:inbox_id ~peer:p3 ]
               ~provider:(Doc.Names.At p2) ~service:"find_wanted"
               [ [ Xml.Parser.parse_exn ~gen:(Xml.Node_id.Gen.create ~namespace:"arg") catalog_xml ] ])
            ~at:p1 );
        ("plain-transfer", Algebra.Expr.send_to_peer p1 (Algebra.Expr.doc "cat" ~at:"p2"));
      ]
    in
    let fault =
      Net.Fault.make
        ~profile:
          { Net.Fault.drop; duplicate = drop /. 4.0; jitter_ms = 2.0 }
        ~quiet_after_ms:600.0 ~seed ()
    in
    let transport = if raw then Runtime.System.Raw else Runtime.System.Reliable in
    Format.printf
      "fault plan: seed=%d drop=%.2f duplicate=%.2f transport=%s wire=%s%s@.@."
      seed drop (drop /. 4.0)
      (if raw then "raw" else "reliable")
      (match wire with
      | Runtime.System.Xml -> "xml"
      | Runtime.System.Binary -> "binary"
      | Runtime.System.Binary_strict -> "binary-strict")
      (if (not raw) && (flush_ms > 0.0 || ack_delay > 0.0) then
         Printf.sprintf " (flush %g ms, ack delay %g ms)" flush_ms
           ack_delay
       else "");
    let divergent = ref 0 in
    let abandoned_total = ref 0 and unfinished = ref 0 in
    Format.printf "  %-16s %-8s %6s %6s %6s %6s %9s %9s@." "plan" "answer"
      "drops" "retx" "dups" "aband" "ref ms" "fault ms";
    List.iter
      (fun (name, plan) ->
        let ref_sys, _ = build Runtime.System.Reliable in
        let ref_out = Runtime.Exec.run_to_quiescence ref_sys ~ctx:p1 plan in
        let ref_fp = Runtime.System.fingerprint ref_sys in
        let sys, _ = build ~flush_ms ~ack_delay_ms:ack_delay ~wire transport in
        Runtime.System.inject_faults sys fault;
        let out = Runtime.Exec.run_to_quiescence sys ~ctx:p1 plan in
        let rc = Runtime.System.reliability_counters sys in
        abandoned_total := !abandoned_total + rc.Runtime.System.abandoned;
        if not out.finished then incr unfinished;
        let ok =
          out.finished
          && Xml.Canonical.equal_forest ref_out.results out.results
          && String.equal ref_fp (Runtime.System.fingerprint sys)
        in
        if not ok then incr divergent;
        Format.printf "  %-16s %-8s %6d %6d %6d %6d %9.1f %9.1f@." name
          (if ok then "same" else "DIFFERS")
          out.stats.drops rc.Runtime.System.retransmits
          rc.Runtime.System.dup_suppressed rc.Runtime.System.abandoned
          ref_out.elapsed_ms out.elapsed_ms)
      (let _, inbox_id = build transport in
       plans inbox_id);
    if raw then
      Format.printf
        "@.%d/3 plan(s) diverged under the raw transport (ablation)@."
        !divergent
    else if !divergent > 0 then begin
      Format.eprintf
        "@.error: %d plan(s) diverged under the reliable transport@."
        !divergent;
      exit 1
    end
    else Format.printf "@.all plans match the fault-free runs@.";
    if slo then begin
      if !abandoned_total > 0 || !unfinished > 0 then begin
        Format.eprintf
          "SLO breach: %d abandoned delivery(ies), %d unfinished plan(s)@."
          !abandoned_total !unfinished;
        exit 3
      end
      else Format.printf "SLO: no breaches@."
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the reference plans under a seeded fault plan and check the \
          reliable transport reproduces the fault-free answers")
    Term.(
      const run $ seed $ drop $ raw $ flush_ms $ ack_delay $ wire_arg $ slo_arg)

(* --- scenario front ends: scale, place, cache, top ---------------- *)

(* Each builds a Workload.Run spec, runs it and renders the result; the
   scenario set-up, event budget, GC policy and measurement bracket
   live in Run (DESIGN.md "Run harness"). *)

module Run = Workload.Run

let int_arg name default ~docv ~doc =
  Arg.(value & opt int default & info [ name ] ~docv ~doc)

let seed_arg default =
  Arg.(value & opt int default & info [ "seed" ] ~doc:"Scenario seed")

let exec_or_die spec =
  match Run.validate spec with
  | Ok () -> Run.exec spec
  | Error msg ->
      prerr_endline ("error: " ^ msg);
      exit 1

let outcome_text (r : Run.result) =
  match r.outcome with
  | `Quiescent -> Printf.sprintf "quiescent in %d events" r.events
  | `Budget_exhausted -> "BUDGET EXHAUSTED"

let short_fp fp = String.sub fp 0 (min 12 (String.length fp))

(* The flash-crowd shape of scale and top. *)
type crowd = {
  peers : int;
  subscribers : int;
  requests : int;
  seed : int;
  reliable : bool;
}

let crowd_term =
  let crowd peers subscribers requests seed reliable =
    { peers; subscribers; requests; seed; reliable }
  in
  Term.(
    const crowd
    $ int_arg "peers" 100 ~docv:"N"
        ~doc:
          "Total peer count: one publisher, $(b,--subscribers) subscribers, \
           and the rest mirrors"
    $ int_arg "subscribers" 80 ~docv:"M" ~doc:"Subscriber count"
    $ int_arg "requests" 4 ~docv:"R" ~doc:"Requests per subscriber"
    $ seed_arg 1
    $ Arg.(
        value & flag
        & info [ "reliable" ] ~doc:"Use the Reliable transport (default: Raw)"))

let crowd_spec c ~wire ~obs =
  {
    Run.shape =
      Run.Crowd
        {
          mirrors = c.peers - c.subscribers - 1;
          subscribers = c.subscribers;
          requests = c.requests;
          transport =
            (if c.reliable then Runtime.System.Reliable else Runtime.System.Raw);
          wire;
          flush_ms = 0.0;
          ack_delay_ms = 0.0;
        };
    seed = c.seed;
    obs;
  }

let transport_name c = if c.reliable then "reliable" else "raw"

let crowd_headline c =
  Printf.sprintf
    "peers %d (1 publisher, %d mirrors, %d subscribers), seed %d, %s transport"
    c.peers (c.peers - c.subscribers - 1) c.subscribers c.seed (transport_name c)

(* --- scale ------------------------------------------------------- *)

let scale_cmd =
  let run c wire slo =
    let r = exec_or_die (crowd_spec c ~wire ~obs:Run.obs_off) in
    if r.outcome = `Budget_exhausted then
      Format.eprintf "warning: event budget (%d) exhausted@." r.budget;
    Format.printf "%s@." (crowd_headline c);
    (match wire with
    | Runtime.System.Xml -> ()
    | Runtime.System.Binary -> Format.printf "wire      binary@."
    | Runtime.System.Binary_strict -> Format.printf "wire      binary-strict@.");
    Format.printf "requests  %d issued, %d completed, %d unserved@." r.requests
      r.completed r.unserved;
    Format.printf "events    %d (%.0f events/sec, %.3f s wall, %.1f words/event)@."
      r.events
      (float_of_int r.events /. Float.max 1e-9 r.wall_s)
      r.wall_s
      (r.minor_words /. float_of_int (max 1 r.events));
    Format.printf "completion_ms %.0f@." r.stats.completion_ms;
    (* Per-tier byte totals: aggregate the per-link matrix by the tier
       of each endpoint. *)
    let tier_of p =
      List.find_map
        (fun (q, tier) -> if Net.Peer_id.equal p q then Some tier else None)
        r.roles
      |> Option.value ~default:"?"
    in
    let totals = Hashtbl.create 8 in
    List.iter
      (fun ((src, dst), (msgs, bytes)) ->
        let key = (tier_of src, tier_of dst) in
        let m0, b0 = Option.value ~default:(0, 0) (Hashtbl.find_opt totals key) in
        Hashtbl.replace totals key (m0 + msgs, b0 + bytes))
      r.stats.per_link;
    Format.printf "@.%-24s %10s %14s@." "tier" "messages" "bytes";
    List.iter
      (fun ((src, dst), (msgs, bytes)) ->
        Format.printf "%-24s %10d %14d@." (src ^ " -> " ^ dst) msgs bytes)
      (List.sort compare (List.of_seq (Hashtbl.to_seq totals)));
    (if slo then
       let exhausted = r.outcome = `Budget_exhausted in
       if r.unserved > 0 || r.reliability.abandoned > 0 || exhausted then begin
         Format.eprintf
           "SLO breach: %d unserved request(s), %d abandoned \
            delivery(ies)%s@."
           r.unserved r.reliability.abandoned
           (if exhausted then ", event budget exhausted" else "");
         exit 3
       end
       else Format.printf "SLO: no breaches@.");
    if r.completed < r.requests then begin
      Format.eprintf "error: %d request(s) never completed@."
        (r.requests - r.completed);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Run the web-scale flash-crowd scenario (one publisher, a mirror \
          pool behind a generic fetch class, a subscriber crowd) and print \
          throughput plus per-tier traffic totals")
    Term.(const run $ crowd_term $ wire_arg $ slo_arg)

(* --- place ------------------------------------------------------- *)

(* The placement analogue of scale: run the hotspot scenario twice on
   the identical shape and seed — static placement (seeded Random
   reader picks, no controller) and adaptive (load-steered picks plus
   the DESIGN.md §17 migration controller) — and print read-latency
   tails, traffic totals and the adaptive arm's migration schedule.
   The two arms must agree on the final Σ content fingerprint: the
   controller moves replicas, never answers.  The defaults are bench
   E23's smoke shape: [place] and [place --chaos] print E23 smoke's
   calm and chaos rows. *)

let place_cmd =
  let chaos =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Inject bench E23's chaos plan: random drops, duplicates and \
             jitter quiet by 400 ms, a 150 ms partition of a spare, and a \
             crash/restart of an owner with failover — the same plan on \
             both arms")
  in
  let run owners spares readers docs reads appends seed chaos wire slo =
    let run_arm adaptive =
      exec_or_die
        {
          Run.shape =
            Run.Hotspot
              {
                owners; spares; readers; docs; reads; appends;
                append_every_ms = 10.0; payload_bytes = 1024; wire; adaptive;
                chaos;
              };
          seed;
          obs = Run.obs_off;
        }
    in
    let static = run_arm false in
    let adaptive = run_arm true in
    Format.printf
      "hotspot: %d owners, %d spares, %d readers, %d docs (10%% hot / 90%% \
       of reads), %d reads/reader, seed %d%s@.@."
      owners spares readers docs reads seed
      (if chaos then ", chaos plan on" else "");
    let p95 (r : Run.result) = Run.quantile r.latencies 0.95 in
    let row arm (r : Run.result) =
      Format.printf
        "%-9s served %d/%d (unserved %d), p50 %.1f p95 %.1f p99 %.1f ms, \
         %d msgs, %d bytes, %d migration(s), %s@."
        arm r.completed r.requests r.unserved
        (Run.quantile r.latencies 0.50)
        (p95 r)
        (Run.quantile r.latencies 0.99)
        r.stats.messages r.stats.bytes
        (match r.placement with
        | Some c -> (Runtime.Placement.stats c).s_committed
        | None -> 0)
        (outcome_text r)
    in
    row "static" static;
    row "adaptive" adaptive;
    Option.iter
      (Format.printf "@.migration schedule:@.%a@." Runtime.Placement.pp_schedule)
      adaptive.placement;
    let sigma_agree =
      String.equal static.content_fingerprint adaptive.content_fingerprint
    in
    Format.printf "\xCE\xA3 content %s across arms (%s)@."
      (if sigma_agree then "agrees" else "DIFFERS")
      (short_fp adaptive.content_fingerprint);
    (* The SLO judges the controller arm: the static baseline is
       allowed to fail under chaos — that failure is the point. *)
    let tail_regressed =
      let s = p95 static and a = p95 adaptive in
      Float.is_nan s || Float.is_nan a || a > 1.1 *. s
    in
    (if slo then
       if
         (not sigma_agree) || adaptive.unserved > 0
         || adaptive.reliability.abandoned > 0 || tail_regressed
       then begin
         Format.eprintf
           "SLO breach: %s%d unserved read(s), %d abandoned delivery(ies)%s@."
           (if sigma_agree then "" else "\xCE\xA3 mismatch, ")
           adaptive.unserved adaptive.reliability.abandoned
           (if tail_regressed then
              ", adaptive p95 above 1.1x the static tail"
            else "");
         exit 3
       end
       else Format.printf "SLO: no breaches@.");
    if (not sigma_agree) || adaptive.completed < adaptive.requests then begin
      Format.eprintf
        "error: arms disagree on \xCE\xA3 or adaptive reads never completed@.";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "place"
       ~doc:
         "Run the hotspot scenario under static and adaptive placement on \
          the same seed, print latency tails, traffic and the migration \
          schedule, and cross-check the final \xCE\xA3 content fingerprints")
    Term.(
      const run
      $ int_arg "owners" 4 ~docv:"N" ~doc:"Document-owning peers"
      $ int_arg "spares" 2 ~docv:"N"
          ~doc:"Idle storage peers — natural migration targets"
      $ int_arg "readers" 16 ~docv:"N" ~doc:"Reader peers"
      $ int_arg "docs" 12 ~docv:"N"
          ~doc:"Documents; 10% are hot and draw 90% of reads"
      $ int_arg "reads" 10 ~docv:"R" ~doc:"Reads per reader (closed loop)"
      $ int_arg "appends" 4 ~docv:"K" ~doc:"Streaming appends per hot document"
      $ seed_arg 11 $ chaos $ wire_arg $ slo_arg)

(* --- cache ------------------------------------------------------- *)

let cache_cmd =
  let overlap =
    Arg.(
      value & opt float 0.6
      & info [ "overlap" ] ~docv:"PCT"
          ~doc:
            "Fraction of slate draws taken from the shared query pool \
             (0..1) — the cross-plan sharing the cache exploits")
  in
  let off =
    Arg.(
      value & flag
      & info [ "off" ]
          ~doc:"Run only the cache-off baseline (no comparison arm)")
  in
  let run sources subscribers queries rounds overlap_pct seed off slo =
    let run_arm cache =
      exec_or_die
        {
          Run.shape =
            Run.Overlap
              { sources; subscribers; queries; rounds; overlap_pct; items = 24; cache };
          seed;
          obs = Run.obs_off;
        }
    in
    let row arm (r : Run.result) =
      Format.printf
        "%-9s completed %d/%d, p50 %.1f p95 %.1f ms, %d msgs, %d bytes, \
         done %.1f ms, %d hit(s) / %d miss(es), %d invalidation(s), %s@."
        arm r.completed r.requests
        (Run.quantile r.latencies 0.50)
        (Run.quantile r.latencies 0.95)
        r.stats.messages r.stats.bytes r.stats.completion_ms r.qcache.hits
        r.qcache.misses
        (r.qcache.invalidations + r.qcache.stale_drops)
        (outcome_text r)
    in
    let base = run_arm false in
    Format.printf
      "overlap: %d sources, %d subscribers x %d queries x %d rounds, %.0f%% \
       pool overlap, seed %d@.@."
      sources subscribers queries rounds (overlap_pct *. 100.0) seed;
    row "cache-off" base;
    if off then begin
      if not (Run.ok base) then begin
        Format.eprintf "error: the baseline never completed@.";
        exit 1
      end
    end
    else begin
      let cached = run_arm true in
      row "cache-on" cached;
      let digests_agree = base.digests = cached.digests in
      let sigma_agree =
        String.equal base.content_fingerprint cached.content_fingerprint
      in
      Format.printf
        "@.per-request digests %s across arms; \xCE\xA3 content %s (%s)@."
        (if digests_agree then "byte-identical" else "DIFFER")
        (if sigma_agree then "agrees" else "DIFFERS")
        (short_fp cached.content_fingerprint);
      if base.stats.bytes > 0 then
        Format.printf
          "cache-on: %.2fx bytes, %.2fx completion, hit rate %.0f%%@."
          (float_of_int cached.stats.bytes /. float_of_int base.stats.bytes)
          (cached.stats.completion_ms /. Float.max 1.0 base.stats.completion_ms)
          (100.0
          *. float_of_int cached.qcache.hits
          /. Float.max 1.0 (float_of_int (cached.qcache.hits + cached.qcache.misses))
          );
      (* The SLO judges the cached arm: results must be byte-identical
         to the baseline and the cache must actually serve — a cache
         that is never hit is misconfigured, not conservative. *)
      (if slo then
         if (not digests_agree) || (not sigma_agree) || cached.qcache.hits = 0
         then begin
           Format.eprintf "SLO breach: %s%s%s@."
             (if digests_agree then "" else "result digests differ, ")
             (if sigma_agree then "" else "\xCE\xA3 mismatch, ")
             (if cached.qcache.hits = 0 then "zero cache hits" else "");
           exit 3
         end
         else Format.printf "SLO: no breaches@.");
      if
        (not digests_agree) || (not sigma_agree)
        || not (Run.ok base && Run.ok cached)
      then begin
        Format.eprintf
          "error: arms disagree on results/\xCE\xA3 or never completed@.";
        exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Run the overlapping-subscription workload with the semantic \
          result cache off and on under the same seed, print traffic, \
          completion and hit/invalidation counters, and cross-check that \
          the per-request result digests and the final \xCE\xA3 content are \
          byte-identical across the arms")
    Term.(
      const run
      $ int_arg "sources" 3 ~docv:"N" ~doc:"Catalog-owning source peers"
      $ int_arg "subscribers" 12 ~docv:"N" ~doc:"Subscriber peers"
      $ int_arg "queries" 3 ~docv:"Q"
          ~doc:"Queries per subscriber slate (re-issued every round)"
      $ int_arg "rounds" 3 ~docv:"R" ~doc:"Rounds"
      $ overlap $ seed_arg 11 $ off $ slo_arg)

(* --- top --------------------------------------------------------- *)

let top_cmd =
  let interval =
    Arg.(
      value & opt float 100.0
      & info [ "interval-ms" ] ~docv:"MS"
          ~doc:"Telemetry window width (virtual milliseconds)")
  in
  let json =
    Arg.(
      value & flag & info [ "json" ] ~doc:"Emit the table as a JSON object")
  in
  let run c interval rows sample json =
    (* Full observability stack: cumulative metrics, windowed series at
       the requested interval, and sampled tracing (viable at 10^3
       peers precisely because sampled-out events allocate nothing).
       Run.exec leaves it on, so the rings can be read back below. *)
    let r =
      exec_or_die
        (crowd_spec c ~wire:Runtime.System.Xml
           ~obs:
             {
               Run.metrics = true;
               window_ms = Some interval;
               keep_one_in = max 0 sample;
             })
    in
    let reg = Obs.Timeseries.default in
    (* Read the rings back.  [now] is the virtual end of the run; rates
       cover the complete windows the ring still holds, quantiles merge
       every live window's histogram. *)
    let now = Obs.Timeseries.now reg in
    let windows = Obs.Timeseries.ring_size reg in
    let cur = Obs.Timeseries.epoch_of reg now in
    let fold_windows key ~last f init =
      let acc = ref init in
      for e = max 0 (cur - windows + 1) to last do
        Option.iter
          (fun a -> acc := f !acc a)
          (Obs.Timeseries.read_window reg key ~epoch:e)
      done;
      !acc
    in
    (* Bytes/sec analogue of [Timeseries.rate]: total of w_sum over the
       complete windows preceding the current one. *)
    let sum_rate key =
      fold_windows key ~last:(cur - 1) (fun t a -> t +. a.Obs.Timeseries.w_sum) 0.0
      /. (float_of_int (windows - 1) *. interval /. 1000.0)
    in
    let peak key =
      fold_windows key ~last:cur
        (fun best a ->
          if a.Obs.Timeseries.w_count > 0 then Float.max best a.w_max else best)
        0.0
    in
    let all_keys = Obs.Timeseries.keys reg in
    let row (p, tier) =
      let name = Net.Peer_id.to_string p in
      let k suffix = "peer/" ^ name ^ "/" ^ suffix in
      let tx = Obs.Timeseries.rate reg (k "tx") ~now ~windows:(windows - 1) in
      let kb = sum_rate (k "tx") /. 1024.0 in
      let p95 =
        Obs.Timeseries.quantile reg (k "latency_ms") ~now ~windows ~q:0.95
      in
      let p99 =
        Obs.Timeseries.quantile reg (k "latency_ms") ~now ~windows ~q:0.99
      in
      let inflight =
        (* Peak of the per-link in-flight gauges departing this peer
           (recorded by the Reliable transport; 0 under Raw). *)
        let prefix = "net/link/" ^ name ^ "->" in
        List.fold_left
          (fun acc key ->
            if
              String.starts_with ~prefix key
              && String.ends_with ~suffix:"/inflight" key
            then Float.max acc (peak key)
            else acc)
          0.0 all_keys
      in
      let counter n =
        Obs.Metrics.counter_value Obs.Metrics.default ~peer:name
          ~subsystem:"net" n
      in
      (name, tier, tx, kb, p95, p99, inflight, counter "retransmits",
       counter "drops")
    in
    let ranked =
      List.map row r.roles
      |> List.sort (fun (n1, _, tx1, _, _, _, _, _, _) (n2, _, tx2, _, _, _, _, _, _) ->
             match compare tx2 tx1 with 0 -> compare n1 n2 | c -> c)
    in
    let shown = List.filteri (fun i _ -> i < rows) ranked in
    let trace_events = if sample > 0 then Obs.Trace.events () else [] in
    let sampled_span =
      match trace_events with
      | [] -> 0.0
      | e0 :: rest ->
          let lo, hi =
            List.fold_left
              (fun (lo, hi) (e : Obs.Trace.event) ->
                (Float.min lo e.ts_ms, Float.max hi (e.ts_ms +. e.dur_ms)))
              (e0.Obs.Trace.ts_ms, e0.Obs.Trace.ts_ms +. e0.Obs.Trace.dur_ms)
              rest
          in
          hi -. lo
    in
    let budget_exhausted = r.outcome = `Budget_exhausted in
    if json then begin
      let b = Buffer.create 4096 in
      let esc s = Obs.Exporter.json_escape s in
      Buffer.add_string b
        (Printf.sprintf
           "{\"schema_version\":2,\"peers\":%d,\"mirrors\":%d,\"subscribers\":%d,\
            \"seed\":%d,\"transport\":\"%s\",\"window_ms\":%g,\"windows\":%d,\
            \"requests\":{\"issued\":%d,\"completed\":%d,\"unserved\":%d},\
            \"events\":%d,\"completion_ms\":%.3f,\"budget_exhausted\":%b,\
            \"retransmits\":%d,\"abandoned\":%d,\
            \"trace\":{\"keep_one_in\":%d,\"sampled_events\":%d,\
            \"sampled_span_ms\":%.3f},\"rows\":["
           c.peers (c.peers - c.subscribers - 1) c.subscribers c.seed
           (transport_name c) interval windows r.requests r.completed r.unserved
           r.events r.stats.completion_ms budget_exhausted
           r.reliability.retransmits r.reliability.abandoned sample
           (List.length trace_events) sampled_span);
      List.iteri
        (fun i (name, tier, tx, kb, p95, p99, infl, retx, drops) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf
               "{\"peer\":\"%s\",\"tier\":\"%s\",\"tx_per_s\":%.3f,\
                \"kb_per_s\":%.3f,\"p95_ms\":%.3f,\"p99_ms\":%.3f,\
                \"inflight\":%.0f,\"retransmits\":%d,\"drops\":%d}"
               (esc name) (esc tier) tx kb p95 p99 infl retx drops))
        shown;
      Buffer.add_string b "]}";
      print_endline (Buffer.contents b)
    end
    else begin
      Format.printf "%s, %g ms windows@." (crowd_headline c) interval;
      Format.printf "requests  %d issued, %d completed, %d unserved@."
        r.requests r.completed r.unserved;
      Format.printf "sim       %.0f ms, %d events%s@." r.stats.completion_ms
        r.events
        (if budget_exhausted then " (budget exhausted)" else "");
      if sample > 0 then
        Format.printf
          "trace     %d sampled event(s) at 1/%d, covering %.0f sim ms@."
          (List.length trace_events) sample sampled_span;
      Format.printf "@.%-12s %-10s %9s %9s %8s %8s %6s %6s %6s@." "peer"
        "tier" "tx/s" "KB/s" "p95 ms" "p99 ms" "infl" "retx" "drops";
      List.iter
        (fun (name, tier, tx, kb, p95, p99, infl, retx, drops) ->
          Format.printf "%-12s %-10s %9.1f %9.2f %8.2f %8.2f %6.0f %6d %6d@."
            (Obs.Exporter.sanitize name)
            (Obs.Exporter.sanitize tier)
            tx kb p95 p99 infl retx drops)
        shown;
      if List.length ranked > rows then
        Format.printf "... %d more peer(s); raise --top to see them@."
          (List.length ranked - rows)
    end
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Run the flash-crowd scenario with the full observability stack on \
          (metrics, windowed telemetry, sampled tracing) and print a \
          per-peer load table: transmit rates, latency quantiles, in-flight \
          windows, retransmits and drops")
    Term.(
      const run $ crowd_term $ interval
      $ int_arg "top" 12 ~docv:"N"
          ~doc:"Table rows: the N peers with the highest transmit rate"
      $ int_arg "sample" 64 ~docv:"K"
          ~doc:
            "Trace head sampling: keep one correlation id in K (whole \
             cross-peer computations kept or dropped atomically); 0 \
             disables tracing entirely"
      $ json)

let () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning);
  let info = Cmd.info "axmlctl" ~version:"1.0.0" ~doc:"Distributed AXML toolkit" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            parse_cmd;
            query_cmd;
            rules_cmd;
            optimize_cmd;
            explain_cmd;
            demo_cmd;
            trace_cmd;
            chaos_cmd;
            scale_cmd;
            place_cmd;
            cache_cmd;
            top_cmd;
          ]))
