module Peer_id = Axml_net.Peer_id
module System = Axml_peer.System
module Placement = Axml_peer.Placement
module Fault = Axml_net.Fault
module Metrics = Axml_obs.Metrics
module Timeseries = Axml_obs.Timeseries
module Trace = Axml_obs.Trace

type shape =
  | Crowd of {
      mirrors : int;
      subscribers : int;
      requests : int;
      transport : System.transport;
      wire : System.wire;
      flush_ms : float;
      ack_delay_ms : float;
    }
  | Hotspot of {
      owners : int;
      spares : int;
      readers : int;
      docs : int;
      reads : int;
      appends : int;
      append_every_ms : float;
      payload_bytes : int;
      wire : System.wire;
      adaptive : bool;
      chaos : bool;
    }
  | Overlap of {
      sources : int;
      subscribers : int;
      queries : int;
      rounds : int;
      overlap_pct : float;
      items : int;
      cache : bool;
    }

type obs = { metrics : bool; window_ms : float option; keep_one_in : int }

let obs_off = { metrics = false; window_ms = None; keep_one_in = 0 }

type spec = { shape : shape; seed : int; obs : obs }

let validate spec =
  let at_least_one l =
    ( List.exists (fun (_, n) -> n < 1) l,
      String.concat ", " (List.map fst l) ^ " must be >= 1" )
  in
  let window_ok =
    Option.fold ~none:true ~some:(fun w -> w > 0.0) spec.obs.window_ms
  in
  let failed =
    (match spec.shape with
    | Crowd { mirrors; subscribers; _ } ->
        [
          (subscribers < 0, "subscribers must be >= 0");
          ( mirrors < 1,
            "peers must exceed subscribers by at least 2 (one publisher, one \
             mirror)" );
        ]
    | Hotspot { owners; spares; readers; docs; _ } ->
        [
          at_least_one
            [
              ("owners", owners); ("spares", spares); ("readers", readers);
              ("docs", docs);
            ];
        ]
    | Overlap { sources; subscribers; queries; rounds; overlap_pct; _ } ->
        [
          at_least_one
            [
              ("sources", sources); ("subscribers", subscribers);
              ("queries", queries); ("rounds", rounds);
            ];
          ( not (overlap_pct >= 0.0 && overlap_pct <= 1.0),
            "overlap must be within 0..1" );
        ])
    @ [ (not window_ok, "the telemetry window must be > 0 ms") ]
  in
  match List.find_opt fst failed with Some (_, m) -> Error m | None -> Ok ()

(* --- the hotspot constants --------------------------------------- *)

let placement_config ~storage ~seed =
  {
    Placement.default_config with
    tick_ms = 20.0;
    windows = 3;
    hot_rate = 100.0;
    migrations_per_tick = 2;
    seed = seed + 99;
    eligible = Some (fun p -> List.exists (Peer_id.equal p) storage);
  }

(* Probabilistic faults quiet by 400 ms shape the read tails; the owner
   crash sits after the read streams drain (and past quiet + maximum
   retransmission backoff, 32·rto = 1280 ms — the discipline under
   which the WAL-modelled transport provably converges, see
   test_fault.ml).  A mid-stream crash would eat in-flight eval state —
   volatile by design — so it gates Σ convergence through failover and
   replica resync, not the latency table. *)
let chaos_plan (hs : Scenarios.hotspot) =
  Fault.make
    ~profile:{ Fault.drop = 0.12; duplicate = 0.04; jitter_ms = 2.0 }
    ~events:
      [
        Fault.Partition
          {
            island = [ List.hd hs.hs_spares ];
            window = Fault.window ~from_ms:100.0 ~until_ms:250.0;
          };
        Fault.Crash
          { peer = List.hd hs.hs_owners; at_ms = 8000.0; restart_ms = Some 8250.0 };
      ]
    ~quiet_after_ms:400.0 ~seed:23 ()

(* --- running ----------------------------------------------------- *)

type result = {
  outcome : Axml_net.Sim.outcome;
  events : int;
  budget : int;
  requests : int;
  completed : int;
  unserved : int;
  stats : Axml_net.Stats.snapshot;
  reliability : System.reliability_counters;
  qcache : Axml_query.Qcache.stats;
  placement : Placement.t option;
  fingerprint : string;
  content_fingerprint : string;
  digests : string list;
  latencies : float array;
  wall_s : float;
  minor_words : float;
  payload_decodes : int;
  spans : int;
  series : int;
  roles : (Peer_id.t * string) list;
}

(* Every registry is reset, so no run reads another's series, counters
   or spans.  The timeseries window falls back to the registry default
   when the series are off. *)
let apply_series o =
  let ts = Timeseries.default in
  Timeseries.set_window ts (Option.value o.window_ms ~default:100.0);
  Timeseries.set_enabled ts (Option.is_some o.window_ms);
  Timeseries.reset ts

let apply_obs ~seed o =
  Metrics.set_enabled Metrics.default o.metrics;
  Metrics.reset Metrics.default;
  apply_series o;
  Trace.set_enabled (o.keep_one_in > 0);
  Trace.clear ();
  Trace.set_sampling ~seed ~keep_one_in:(max 1 o.keep_one_in) ()

(* With ~10^3 concurrent requests the in-flight state (continuations,
   messages on the wire, armed timers) is comparable to the default
   256k-word nursery, so nearly every in-flight object would survive a
   minor collection and be promoted — the major GC would then dominate
   the run.  A simulation-scale nursery keeps short-lived state out of
   the major heap. *)
let minor_heap_words = 8 * 1024 * 1024

(* The measurement bracket around one built scenario. *)
let measure sys ~requests ~completed ~unserved ?(latencies = ref [])
    ?(digests = ref []) ?placement roles =
  let budget = (16 * requests) + (40 * List.length roles) + 10_000 in
  Gc.compact ();
  let d0 = Axml_peer.Message.payload_decodes () in
  (* [Gc.minor_words] is the precise allocation counter; the
     [quick_stat] fields are only refreshed at collection points, which
     a simulation-sized nursery may never reach. *)
  let w0 = Gc.minor_words () in
  let t0 = Sys.time () in
  let outcome, events = System.run ~max_events:budget sys in
  let wall_s = Sys.time () -. t0 in
  let minor_words = Gc.minor_words () -. w0 in
  {
    outcome;
    events;
    budget;
    requests;
    completed = !completed;
    unserved = !unserved;
    stats = System.stats sys;
    reliability = System.reliability_counters sys;
    qcache = System.qcache_stats sys;
    placement;
    fingerprint = System.fingerprint sys;
    content_fingerprint = System.content_fingerprint sys;
    digests = List.sort String.compare !digests;
    latencies = Array.of_list (List.sort Float.compare !latencies);
    wall_s;
    minor_words;
    payload_decodes = Axml_peer.Message.payload_decodes () - d0;
    spans = Trace.count ();
    series = List.length (Timeseries.keys Timeseries.default);
    roles;
  }

let tier name = List.map (fun p -> (p, name))

let run_shape ~seed = function
  | Crowd { mirrors; subscribers; requests; transport; wire; flush_ms; ack_delay_ms }
    ->
      let fc =
        Scenarios.flash_crowd ~mirrors ~subscribers
          ~requests_per_subscriber:requests ~transport ~wire ~flush_ms
          ~ack_delay_ms ~seed ()
      in
      measure fc.fc_system ~requests:fc.fc_requests ~completed:fc.fc_completed
        ~unserved:fc.fc_unserved
        ((fc.fc_publisher, "publisher")
        :: (tier "mirror" fc.fc_mirrors @ tier "subscriber" fc.fc_subscribers))
  | Hotspot
      { owners; spares; readers; docs; reads; appends; append_every_ms;
        payload_bytes; wire; adaptive; chaos } ->
      if adaptive then begin
        (* The controller's signals: 10 ms windows. *)
        Timeseries.set_window Timeseries.default 10.0;
        Timeseries.set_enabled Timeseries.default true
      end;
      let hs =
        Scenarios.hotspot ~owners ~spares ~readers ~docs ~hot_fraction:0.1
          ~hot_share:0.9 ~reads_per_reader:reads ~appends ~append_every_ms
          ~payload_bytes ~think_ms:2.0 ~arrival_window_ms:100.0
          ~steered:adaptive ~wire ~cpu_ms_per_kb:3.0 ~seed ()
      in
      let sys = hs.hs_system in
      if chaos then ignore (Axml_peer.Failover.enable sys);
      let storage = hs.hs_owners @ hs.hs_spares in
      let placement =
        if adaptive then
          Some (Placement.enable ~cfg:(placement_config ~storage ~seed) sys)
        else None
      in
      if chaos then System.inject_faults sys (chaos_plan hs);
      measure sys ~requests:hs.hs_requests ~completed:hs.hs_completed
        ~unserved:hs.hs_unserved ~latencies:hs.hs_latencies ?placement
        ((hs.hs_writer, "writer")
        :: (tier "owner" hs.hs_owners @ tier "spare" hs.hs_spares
           @ tier "reader" hs.hs_readers))
  | Overlap { sources; subscribers; queries; rounds; overlap_pct; items; cache }
    ->
      let ov =
        Scenarios.overlap ~sources ~subscribers ~queries_per_subscriber:queries
          ~rounds ~overlap_pct ~items ~cache ~seed ()
      in
      measure ov.ov_system ~requests:ov.ov_requests ~completed:ov.ov_completed
        ~unserved:(ref 0) ~latencies:ov.ov_latencies ~digests:ov.ov_digests
        (tier "source" ov.ov_sources @ tier "subscriber" ov.ov_subscribers)

let exec spec =
  (match validate spec with
  | Ok () -> ()
  | Error m -> invalid_arg ("Run.exec: " ^ m));
  apply_obs ~seed:spec.seed spec.obs;
  let gc0 = Gc.get () in
  Gc.set { gc0 with Gc.minor_heap_size = minor_heap_words };
  let r =
    Fun.protect
      ~finally:(fun () -> Gc.set gc0)
      (fun () -> run_shape ~seed:spec.seed spec.shape)
  in
  (* The controller's 10 ms series belong to the run, not to the spec. *)
  (match spec.shape with
  | Hotspot { adaptive = true; _ } -> apply_series spec.obs
  | _ -> ());
  r

let ok r = r.outcome = `Quiescent && r.completed = r.requests && r.unserved = 0

let quantile a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))
