(* The run harness behind bench E20–E24 and [axmlctl scale/place/cache/
   top]: [Run.exec] must reproduce a run built directly from
   [Scenarios] and [System.run] (the oracle), repeated runs of one spec
   must allocate identical words, and [Run.validate] must reject every
   malformed shape the front ends used to check by hand. *)

open Axml
module System = Runtime.System
module Scenarios = Workload.Scenarios
module Run = Workload.Run

let crowd ?(transport = System.Raw) ?(wire = System.Xml) ~mirrors
    ~subscribers ~requests () =
  Run.Crowd
    {
      mirrors; subscribers; requests; transport; wire; flush_ms = 0.0;
      ack_delay_ms = 0.0;
    }

let hotspot ?(owners = 4) ?(spares = 2) ?(readers = 8) ?(docs = 10) ~adaptive
    ~chaos () =
  Run.Hotspot
    {
      owners; spares; readers; docs; reads = 5; appends = 2;
      append_every_ms = 10.0; payload_bytes = 512; wire = System.Xml;
      adaptive; chaos;
    }

let overlap ?(sources = 2) ?(subscribers = 4) ?(queries = 2) ?(rounds = 2)
    ?(overlap_pct = 0.6) ~cache () =
  Run.Overlap
    { sources; subscribers; queries; rounds; overlap_pct; items = 8; cache }

let spec ?(obs = Run.obs_off) ?(seed = 11) shape = { Run.shape; seed; obs }

(* --- (a) the oracle ---------------------------------------------- *)

(* What both sides of the oracle report, in comparable form. *)
type observed = {
  events : int;
  messages : int;
  bytes : int;
  completion_ms : float;
  fp : string;
  content_fp : string;
  digests : string list;
  latencies : float list;
}

let of_result (r : Run.result) =
  {
    events = r.events;
    messages = r.stats.Net.Stats.messages;
    bytes = r.stats.Net.Stats.bytes;
    completion_ms = r.stats.Net.Stats.completion_ms;
    fp = r.fingerprint;
    content_fp = r.content_fingerprint;
    digests = r.digests;
    latencies = Array.to_list r.latencies;
  }

let direct sys ~digests ~latencies =
  let outcome, events = System.run sys in
  Alcotest.(check bool) "direct run quiesces" true (outcome = `Quiescent);
  let st = System.stats sys in
  {
    events;
    messages = st.Net.Stats.messages;
    bytes = st.Net.Stats.bytes;
    completion_ms = st.Net.Stats.completion_ms;
    fp = System.fingerprint sys;
    content_fp = System.content_fingerprint sys;
    digests = List.sort String.compare !digests;
    latencies = List.sort Float.compare !latencies;
  }

let check_same name (a : observed) (b : observed) =
  let open Alcotest in
  check int (name ^ ": events") a.events b.events;
  check int (name ^ ": messages") a.messages b.messages;
  check int (name ^ ": bytes") a.bytes b.bytes;
  check (float 0.0) (name ^ ": completion ms") a.completion_ms b.completion_ms;
  check string (name ^ ": fingerprint") a.fp b.fp;
  check string (name ^ ": content fingerprint") a.content_fp b.content_fp;
  check (list string) (name ^ ": digests") a.digests b.digests;
  check (list (float 0.0)) (name ^ ": latencies") a.latencies b.latencies

let test_oracle_crowd () =
  let r =
    Run.exec
      (spec
         (crowd ~transport:System.Reliable ~mirrors:3 ~subscribers:6
            ~requests:4 ()))
  in
  Alcotest.(check bool) "run ok" true (Run.ok r);
  let fc =
    Scenarios.flash_crowd ~mirrors:3 ~subscribers:6 ~requests_per_subscriber:4
      ~transport:System.Reliable ~seed:11 ()
  in
  check_same "crowd" (of_result r)
    (direct fc.Scenarios.fc_system ~digests:(ref []) ~latencies:(ref []))

let hotspot_direct ~adaptive ~chaos =
  let ts = Obs.Timeseries.default in
  if adaptive then begin
    Obs.Timeseries.set_window ts 10.0;
    Obs.Timeseries.reset ts;
    Obs.Timeseries.set_enabled ts true
  end;
  Fun.protect
    ~finally:(fun () ->
      Obs.Timeseries.set_enabled ts false;
      Obs.Timeseries.set_window ts 100.0)
  @@ fun () ->
  let hs =
    Scenarios.hotspot ~owners:4 ~spares:2 ~readers:8 ~docs:10 ~hot_fraction:0.1
      ~hot_share:0.9 ~reads_per_reader:5 ~appends:2 ~append_every_ms:10.0
      ~payload_bytes:512 ~think_ms:2.0 ~arrival_window_ms:100.0
      ~steered:adaptive ~cpu_ms_per_kb:3.0 ~seed:11 ()
  in
  let sys = hs.Scenarios.hs_system in
  if chaos then ignore (Runtime.Failover.enable sys);
  if adaptive then
    ignore
      (Runtime.Placement.enable
         ~cfg:
           (Run.placement_config
              ~storage:(hs.Scenarios.hs_owners @ hs.Scenarios.hs_spares)
              ~seed:11)
         sys);
  if chaos then System.inject_faults sys (Run.chaos_plan hs);
  direct sys ~digests:(ref []) ~latencies:hs.Scenarios.hs_latencies

let test_oracle_hotspot () =
  List.iter
    (fun (adaptive, chaos) ->
      let r = Run.exec (spec (hotspot ~adaptive ~chaos ())) in
      let name =
        Printf.sprintf "hotspot adaptive=%b chaos=%b" adaptive chaos
      in
      Alcotest.(check bool) (name ^ ": run ok") true (Run.ok r);
      check_same name (of_result r) (hotspot_direct ~adaptive ~chaos))
    [ (false, false); (true, true) ]

let test_oracle_overlap () =
  List.iter
    (fun cache ->
      let r = Run.exec (spec (overlap ~cache ())) in
      Alcotest.(check bool) "run ok" true (Run.ok r);
      let ov =
        Scenarios.overlap ~sources:2 ~subscribers:4 ~queries_per_subscriber:2
          ~rounds:2 ~overlap_pct:0.6 ~items:8 ~cache ~seed:11 ()
      in
      check_same
        (Printf.sprintf "overlap cache=%b" cache)
        (of_result r)
        (direct ov.Scenarios.ov_system ~digests:ov.Scenarios.ov_digests
           ~latencies:ov.Scenarios.ov_latencies))
    [ false; true ]

(* --- (b) allocation ---------------------------------------------- *)

(* The 10-peer crowd, four times in one process, on the XML wire and on
   the strict binary wire (which encodes real frames).  Trees keep
   their own measures and blobs, so no table keyed on trees carries one
   run's residue into the next: every run, the first included,
   allocates the same words. *)
let test_repeat_allocates_same () =
  let same_words name s =
    let words = List.init 4 (fun _ -> (Run.exec s).Run.minor_words) in
    Alcotest.(check (list (float 0.0)))
      (name ^ ": identical minor words on every run")
      (List.init 4 (fun _ -> List.hd words))
      words
  in
  same_words "xml" (spec (crowd ~mirrors:3 ~subscribers:6 ~requests:20 ()));
  same_words "binary-strict"
    (spec
       (crowd ~transport:System.Reliable ~wire:System.Binary_strict ~mirrors:3
          ~subscribers:6 ~requests:20 ()))

(* --- (c) validation ---------------------------------------------- *)

let test_validate () =
  let rejects name s =
    match Run.validate s with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s: accepted" name
  in
  let accepts name s =
    match Run.validate s with
    | Ok () -> ()
    | Error m -> Alcotest.failf "%s: rejected (%s)" name m
  in
  accepts "crowd" (spec (crowd ~mirrors:1 ~subscribers:1 ~requests:1 ()));
  rejects "crowd without a mirror"
    (spec (crowd ~mirrors:0 ~subscribers:8 ~requests:1 ()));
  let hot = hotspot ~adaptive:false ~chaos:false in
  accepts "hotspot" (spec (hot ()));
  rejects "no owners" (spec (hot ~owners:0 ()));
  rejects "no spares" (spec (hot ~spares:0 ()));
  rejects "no readers" (spec (hot ~readers:0 ()));
  rejects "no docs" (spec (hot ~docs:0 ()));
  let ov = overlap ~cache:true in
  accepts "overlap" (spec (ov ()));
  rejects "no sources" (spec (ov ~sources:0 ()));
  rejects "no subscribers" (spec (ov ~subscribers:0 ()));
  rejects "no queries" (spec (ov ~queries:0 ()));
  rejects "no rounds" (spec (ov ~rounds:0 ()));
  rejects "overlap below 0" (spec (ov ~overlap_pct:(-0.1) ()));
  rejects "overlap above 1" (spec (ov ~overlap_pct:1.5 ()));
  let window w = { Run.obs_off with window_ms = Some w } in
  let c = crowd ~mirrors:1 ~subscribers:1 ~requests:1 () in
  accepts "window 100 ms" (spec ~obs:(window 100.0) c);
  rejects "window 0 ms" (spec ~obs:(window 0.0) c);
  rejects "negative window" (spec ~obs:(window (-5.0)) c);
  Alcotest.check_raises "exec rejects what validate rejects"
    (Invalid_argument
       "Run.exec: peers must exceed subscribers by at least 2 (one \
        publisher, one mirror)")
    (fun () ->
      ignore (Run.exec (spec (crowd ~mirrors:0 ~subscribers:1 ~requests:1 ()))))

let test_quantile () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (list (float 0.0)))
    "nearest rank" [ 1.0; 2.0; 4.0; 4.0 ]
    (List.map (Run.quantile a) [ 0.0; 0.5; 0.95; 1.0 ]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Run.quantile [||] 0.5))

let suite =
  [
    Alcotest.test_case "oracle: crowd" `Quick test_oracle_crowd;
    Alcotest.test_case "oracle: hotspot" `Quick test_oracle_hotspot;
    Alcotest.test_case "oracle: overlap" `Quick test_oracle_overlap;
    Alcotest.test_case "repeat runs allocate the same words" `Quick
      test_repeat_allocates_same;
    Alcotest.test_case "validate rejects malformed shapes" `Quick test_validate;
    Alcotest.test_case "quantile" `Quick test_quantile;
  ]
