(* One repetition of one workload in a fresh process: set up, run the
   timed closed loop, optionally check the oracle and (with --trace)
   read every layer seam, then print one JSON object.  perfbench/run.py
   drives repetitions and aggregates them.

   dune exec perfbench/bench.exe -- --workload crowd --seed 1 [--trace]
     [--oracle] [--shape tiny] [--spans-out FILE] *)

open Axml
open Perfbench
module System = Runtime.System
module Exec = Runtime.Exec
module Placement = Runtime.Placement
module W = Workloads

(* One GC policy for every workload: E20's simulation-sized nursery,
   which keeps the ~10^3 in-flight requests' short-lived state out of
   the major heap. *)
let minor_heap_words = 8 * 1024 * 1024

let gc_policy () =
  let g = Gc.get () in
  Printf.sprintf "minor_heap_words=%d space_overhead=%d" g.Gc.minor_heap_size
    g.Gc.space_overhead

let percentile arr q =
  let a = Array.copy arr in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"
let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

(* Wraps the evaluator [System] calls for every delegated or remote
   evaluation, so each one becomes an [exec.eval] span. *)
let install_eval_spans () =
  System.set_eval_hook (fun sys ~ctx e ~emit ->
      Probe.with_span "exec.eval" (fun () -> Exec.eval sys ~ctx e ~emit))

(* High-water mark of a gauge over every peer. *)
let gauge_max subsystem name =
  List.fold_left
    (fun acc (e : Obs.Metrics.entry) ->
      match e.sample with
      | Obs.Metrics.Value { max_value; _ } when e.subsystem = subsystem && e.name = name ->
          Float.max acc max_value
      | _ -> acc)
    0.0
    (Obs.Metrics.snapshot Obs.Metrics.default)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The per-layer readings of a traced run. *)
let layers (w : W.t) (r : W.run) ~run_s ~spans ~minor_words ~promoted_words
    ~decodes ~gc_busy_s =
  let extra k = Option.value (List.assoc_opt k r.W.extra) ~default:0.0 in
  let reqs = float_of_int r.W.attempted in
  let summary = Probe.summarize spans in
  let self name = match Hashtbl.find_opt summary name with Some (_, s) -> s | None -> 0.0 in
  let count name = match Hashtbl.find_opt summary name with Some (n, _) -> n | None -> 0 in
  let plan_s = extra "algebra.plan_s" in
  (* The seam that drives the simulator: [System.run] for crowd and
     hotspot; for query, [Exec.run_optimized], whose self time also
     holds the planner — measured standalone and taken out here. *)
  let net_self = self "sim.run" +. self "exec.run_optimized" -. plan_s in
  let eval_self = self "exec.eval" in
  let append_self = self "workload.append" in
  let attributed = net_self +. eval_self +. append_self +. plan_s in
  let unattributed = run_s -. attributed in
  let rc = System.reliability_counters w.W.sys in
  let qs = System.qcache_stats w.W.sys in
  let sweep_s =
    let t0 = Probe.now_ns () in
    List.iter
      (fun c -> ignore (Placement.doc_read_rate ~windows:3 w.W.sys c))
      w.W.doc_classes;
    List.iter
      (fun (p : Runtime.Peer.t) ->
        ignore (Placement.load_gauge ~windows:3 w.W.sys p.Runtime.Peer.id))
      (System.peers w.W.sys);
    Probe.seconds_since t0
  in
  let metrics = Obs.Metrics.default in
  let fields =
    [
      ("run_s", run_s);
      ("net.events_per_req", ratio (float_of_int r.W.events) reqs);
      ("net.queue_depth_max", gauge_max "sim" "queue_depth");
      ("net.self_s", net_self);
      ("transport.frames_per_req", ratio (float_of_int r.W.messages) reqs);
      ("transport.acks_per_req", ratio (float_of_int rc.System.acks_sent) reqs);
      ( "transport.piggyback_ratio",
        ratio
          (float_of_int rc.System.piggybacked_acks)
          (float_of_int (rc.System.piggybacked_acks + rc.System.acks_sent)) );
      ( "transport.items_per_batch",
        ratio (float_of_int rc.System.batched_messages) (float_of_int rc.System.batches_sent) );
      ("transport.retransmits_per_req", ratio (float_of_int rc.System.retransmits) reqs);
      ("transport.dup_suppressed", float_of_int rc.System.dup_suppressed);
      ( "codec.bytes_per_payload_msg",
        ratio (float_of_int r.W.bytes) (float_of_int r.W.payload_messages) );
      ("codec.payload_decodes", float_of_int decodes);
      ("exec.evals_per_req", ratio (float_of_int (count "exec.eval")) reqs);
      ("exec.eval_self_s", eval_self);
      ("algebra.plan_s_per_query", ratio plan_s reqs);
      ("algebra.explored_per_query", ratio (extra "algebra.explored") reqs);
      ("algebra.equal_calls_per_query", ratio (extra "algebra.equal_calls") reqs);
      ( "algebra.est_over_observed_bytes",
        ratio (extra "algebra.est_bytes") (float_of_int r.W.bytes) );
      ("query.compile_ms", Obs.Metrics.total metrics ~subsystem:"query" "compile_ms");
      ( "query.index_hits_per_query",
        ratio (Obs.Metrics.total metrics ~subsystem:"query" "index_hits") reqs );
      ( "qcache.hit_ratio",
        ratio (float_of_int qs.Query.Qcache.hits)
          (float_of_int (qs.Query.Qcache.hits + qs.Query.Qcache.misses)) );
      ( "qcache.invalidations_per_write",
        ratio
          (float_of_int (qs.Query.Qcache.invalidations + qs.Query.Qcache.stale_drops))
          (extra "writes") );
      ("placement.ticks", extra "placement.ticks");
      ("placement.migrations_committed", extra "placement.migrations_committed");
      ("placement.migrations_aborted", extra "placement.migrations_aborted");
      ("placement.signal_sweep_s", sweep_s);
      ( "obs.timeseries_keys",
        float_of_int (List.length (Obs.Timeseries.keys Obs.Timeseries.default)) );
      ("gc.minor_words_per_req", ratio minor_words reqs);
      ("gc.promoted_words_per_req", ratio promoted_words reqs);
      ("gc.time_share", ratio gc_busy_s run_s);
      ("unattributed_s", unattributed);
    ]
  in
  (* Attribution sanity: the seams' self times are disjoint slices of
     the run, so none may be negative and together they may not exceed
     it — otherwise a nested eval or planner call was counted twice. *)
  let parts = [ net_self; eval_self; append_self; plan_s ] in
  let sane = List.for_all (fun s -> s >= 0.0) parts && attributed <= run_s in
  (fields, sane)

let () =
  let workload = ref "" and seed = ref 1 and trace = ref false in
  let oracle = ref false and shape = ref W.Full and spans_out = ref "" in
  let setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " crowd | hotspot | query");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--trace", Arg.Set trace, " record the per-layer seams");
      ("--oracle", Arg.Set oracle, " check answers against the oracle");
      ( "--shape",
        Arg.Symbol ([ "full"; "tiny" ], fun s -> shape := if s = "tiny" then W.Tiny else W.Full),
        " workload size" );
      ("--spans-out", Arg.Set_string spans_out, " write the traced spans here (JSONL)");
      ("--setup-only", Arg.Set setup_only, " time the set-up alone");
    ]
    (fun a -> raise (Arg.Bad a))
    "bench.exe --workload NAME --seed N [--trace] [--oracle]";
  if not (List.mem !workload W.names) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words };
  if !trace then begin
    Probe.Gc_phases.start ();
    Obs.Metrics.set_enabled Obs.Metrics.default true;
    Probe.enabled := true;
    install_eval_spans ()
  end;
  Probe.warm_up ();
  let kernel_a = Probe.kernel_s () in
  let t_setup = Probe.now_ns () in
  let w = W.setup !workload !shape ~seed:!seed in
  let setup_s = Probe.seconds_since t_setup in
  let setup_ref_s =
    setup_s *. Probe.reference_kernel_s /. ((kernel_a +. Probe.kernel_s ()) /. 2.0)
  in
  if !setup_only then begin
    print_endline (json_obj [ ("setup_s", num setup_s); ("setup_ref_s", num setup_ref_s) ]);
    exit 0
  end;
  Probe.reset ();
  Runtime.Message.reset_payload_decodes ();
  Probe.Gc_phases.reset ();
  let minor0 = Gc.minor_words () in
  let _, promoted0, _ = Gc.counters () in
  let segments = Probe.start_segments () in
  (* Every run, traced or not, pauses about twenty times, outside its
     spans, to time the calibration kernel: spans hold no kernel time
     and both kinds of run are scaled to the reference host alike. *)
  let r = w.W.run ~pause:(fun () -> Probe.boundary segments) in
  Probe.boundary segments;
  let plan_s = Option.value (List.assoc_opt "algebra.plan_s" r.W.extra) ~default:0.0 in
  (* The standalone planner calls of a traced query run are not part
     of the run. *)
  let run_s = segments.Probe.wall -. plan_s in
  let run_ref_s = segments.Probe.reference *. run_s /. segments.Probe.wall in
  let minor_words = Gc.minor_words () -. minor0 in
  let _, promoted1, _ = Gc.counters () in
  let gc_busy_s = if !trace then Probe.Gc_phases.busy_s () else 0.0 in
  let decodes = Runtime.Message.payload_decodes () in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let layer_fields, sane =
    if !trace then
      let spans = Probe.recorded () in
      if !spans_out <> "" then Probe.write_spans !spans_out spans;
      layers w r ~run_s ~spans ~minor_words ~promoted_words:(promoted1 -. promoted0)
        ~decodes ~gc_busy_s
    else ([], true)
  in
  let failed =
    if !oracle then w.W.oracle r
    else if r.W.quiescent then r.W.attempted - r.W.completed
    else r.W.attempted
  in
  let deterministic =
    [
      ("attempted", string_of_int r.W.attempted);
      ("completed", string_of_int r.W.completed);
      ("latency_samples", string_of_int (Array.length r.W.latencies));
      ("latency_p50_vms", num (percentile r.W.latencies 0.50));
      ("latency_p99_vms", num (percentile r.W.latencies 0.99));
      ("completion_vms", num r.W.completion_vms);
      ("bytes", string_of_int r.W.bytes);
      ("messages", string_of_int r.W.messages);
      ("payload_messages", string_of_int r.W.payload_messages);
      ("events", string_of_int r.W.events);
      ("quiescent", string_of_bool r.W.quiescent);
      ("answers", Printf.sprintf "%S" (Digest.to_hex (Digest.string (Lazy.force r.W.answers))));
    ]
    @ List.filter_map
        (fun (k, v) ->
          (* Timings among the workload readings are not deterministic. *)
          if k = "algebra.plan_s" then None else Some (k, num v))
        r.W.extra
  in
  print_endline
    (json_obj
       [
         ("workload", Printf.sprintf "%S" !workload);
         ("seed", string_of_int !seed);
         ("traced", string_of_bool !trace);
         ("clock", Printf.sprintf "%S" Probe.clock_name);
         ("gc", Printf.sprintf "%S" (gc_policy ()));
         ("setup_s", num setup_s);
         ("setup_ref_s", num setup_ref_s);
         ("run_ref_s", num run_ref_s);
         ("run_s", num run_s);
         ("failed", string_of_int failed);
         ("oracle", string_of_bool !oracle);
         ("peak_heap_mb", num peak_heap_mb);
         ("gc_events_lost", string_of_int (Probe.Gc_phases.lost ()));
         ("attribution_sane", string_of_bool sane);
         ("deterministic", json_obj deterministic);
         ("layers", json_obj (List.map (fun (k, v) -> (k, num v)) layer_fields));
       ])
