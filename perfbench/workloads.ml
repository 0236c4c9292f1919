(* The benchmark's three workloads.  Each is built from a seed (the
   set-up the benchmark times), run as one closed loop (the timed
   region), and checked against an oracle computed outside the timed
   region.

   - [crowd]: the flash crowd of E20/E22 on the batched Reliable
     transport and the strict binary wire (receivers consume real
     encoded frames).  Per-message cost (Sim, Pqueue, transport,
     codec encode and lazy decode) dominates; no query evaluation,
     planner, cache or placement runs.
   - [hotspot]: E23's adaptive arm (load-steered picks, the placement
     controller, windowed telemetry on) under E23's drop/duplicate/
     jitter profile and spare partition, with the timed writer
     appending into the hot documents while readers read.
   - [query]: the paper's own use — one client submits distributed
     XMark queries one at a time through [Exec.run_optimized] with
     the semantic cache on, while items are appended into the regions
     every ~20 queries.  Planner, compiled queries and the cache do
     the work; transport and placement do almost none. *)

open Axml
module System = Runtime.System
module Exec = Runtime.Exec
module Placement = Runtime.Placement
module Message = Runtime.Message
module Sc = Workload.Scenarios
module Expr = Algebra.Expr
module Peer_id = Net.Peer_id
module Tree = Xml.Tree
module Names = Doc.Names
module Rng = Net.Rng

type shape = Full | Tiny

(* What one timed run produced.  Everything but the planner timing in
   [extra] is a function of the seed. *)
type run = {
  attempted : int;
  completed : int;  (** Finished requests (before the oracle). *)
  latencies : float array;  (** Virtual ms, one per completed request. *)
  completion_vms : float;
  bytes : int;
  messages : int;
  payload_messages : int;
  events : int;
  quiescent : bool;
  answers : string Lazy.t;
      (** Digest of what the run computed: Σ for crowd, Σ content for
          hotspot, the per-query result digests for query.  Forced
          after the timed region. *)
  extra : (string * float) list;
      (** Workload-specific layer readings (planner, placement...). *)
}

type t = {
  sys : System.t;
  doc_classes : string list;
  run : pause:(unit -> unit) -> run;
      (** The timed closed loop.  It stops about twenty times, between
          equal slices of its work and outside every span, and calls
          [pause], where the caller may measure the host without
          disturbing the run. *)
  oracle : run -> int;
      (** Requests the oracle rejects; 0 when every answer is right. *)
}

let l = Xml.Label.of_string

let digest_forest forest =
  List.map Xml.Canonical.fingerprint forest
  |> List.sort String.compare |> String.concat "\x00" |> Digest.string
  |> Digest.to_hex

(* [System.run] to quiescence, or to [max_events], in chunks of [chunk]
   events, each a [sim.run] span, with a pause between chunks; the
   simulator resumes exactly where it stopped, so chunking changes no
   result. *)
let run_in_chunks ~pause ~chunk ~max_events sys =
  let rec go events =
    let outcome, n =
      Probe.with_span "sim.run" (fun () ->
          System.run ~max_events:(min chunk (max_events - events)) sys)
    in
    let events = events + n in
    match outcome with
    | `Budget_exhausted when events < max_events ->
        pause ();
        go events
    | outcome -> (outcome, events)
  in
  go 0

(* --- crowd ------------------------------------------------------- *)

(* The closed loop of [Scenarios.flash_crowd], rebuilt here so each
   request's issue and completion times can be recorded: one
   publisher announcing a release, [mirrors] behind one generic fetch
   class, [subscribers] arriving on a quadratic ramp, each with one
   request outstanding. *)
let crowd shape ~seed =
  let mirrors, subscribers, per_sub =
    match shape with Full -> (24, 975, 24) | Tiny -> (3, 12, 90)
  in
  (* Package sizes are drawn from the seed (192–320 bytes), so response
     times differ between packages and the latency distribution is a
     function of the inputs rather than a constant of the topology. *)
  let packages = 64 in
  let sizes =
    let rng = Rng.create ~seed:(seed + 1) in
    Array.init packages (fun _ -> 192 + Rng.int rng 129)
  in
  let arrival_window_ms = 500.0 and think_ms = 5.0 in
  let publisher = Peer_id.of_string "origin" in
  let mirror_ids =
    List.init mirrors (fun i -> Peer_id.of_string (Printf.sprintf "mirror%03d" i))
  in
  let sub_ids =
    List.init subscribers (fun i -> Peer_id.of_string (Printf.sprintf "sub%05d" i))
  in
  let topology =
    Net.Topology.clustered
      ~intra:(Net.Link.make ~latency_ms:2.0 ~bandwidth_bytes_per_ms:1000.0)
      ~inter:(Net.Link.make ~latency_ms:20.0 ~bandwidth_bytes_per_ms:200.0)
      [ publisher :: mirror_ids; sub_ids ]
  in
  let sys =
    System.create ~transport:System.Reliable ~wire:System.Binary_strict ~flush_ms:2.0
      ~ack_delay_ms:8.0 topology
  in
  let sim = System.sim sys in
  let fetch_class = "fetch_any" in
  List.iter
    (fun m ->
      let gen = System.gen_of sys m in
      let pkgs =
        Array.mapi (fun i payload_bytes ->
            [
              Tree.element ~gen (l "package")
                ~attrs:[ ("name", Printf.sprintf "pkg%03d" i); ("version", "2.0") ]
                [ Tree.element ~gen (l "blob") [ Tree.text (String.make payload_bytes 'x') ] ];
            ])
          sizes
      in
      let fetch = function
        | [ req :: _ ] -> (
            match Tree.attr req "pkg" with
            | Some s -> pkgs.(int_of_string s)
            | None -> [])
        | _ -> []
      in
      System.add_service sys m
        (Doc.Service.extern ~name:"fetch"
           ~signature:(Schema.Signature.untyped ~arity:1)
           fetch);
      System.register_service_class sys ~class_name:fetch_class
        (Names.Service_ref.make (Names.Service_name.of_string "fetch") (Names.At m)))
    mirror_ids;
  let pgen = System.gen_of sys publisher in
  List.iter
    (fun m ->
      System.send sys ~src:publisher ~dst:m
        (Message.Install_doc
           {
             name = "release";
             forest =
               Message.now
                 [
                   Tree.element ~gen:pgen (l "release")
                     ~attrs:[ ("version", "2.0"); ("packages", string_of_int packages) ]
                     [];
                 ];
             notify = None;
           }))
    mirror_ids;
  let total = subscribers * per_sub in
  let lat = Array.make total 0.0 in
  let completed = ref 0 and unserved = ref 0 in
  let rgen = Xml.Node_id.Gen.create ~namespace:"crowd-req" in
  let req_trees =
    Array.init packages (fun i ->
        Tree.element ~gen:rgen (l "get") ~attrs:[ ("pkg", string_of_int i) ] [])
  in
  let rec request sub avail catalog rng pick_seed remaining =
    match
      Doc.Generic.pick_service ~available:avail catalog
        ~policy:(Doc.Generic.Random pick_seed) ~class_name:fetch_class
    with
    | None | Some { Names.Service_ref.at = Names.Any; _ } -> incr unserved
    | Some { Names.Service_ref.name = service; at = Names.At provider } ->
        let key = System.fresh_key sys in
        let issued = Net.Sim.now sim in
        System.set_cont sys key (fun _ ~final ->
            if final then begin
              lat.(!completed) <- Net.Sim.now sim -. issued;
              incr completed;
              if remaining > 1 then
                Net.Sim.after sim ~peer:sub ~delay_ms:(Rng.float rng think_ms)
                  (fun () -> request sub avail catalog rng pick_seed (remaining - 1))
            end);
        System.send sys ~src:sub ~dst:provider
          (Message.Invoke
             {
               service;
               params = [ Message.now [ req_trees.(Rng.int rng packages) ] ];
               replies = [ Message.Cont { peer = sub; key } ];
             })
  in
  let arrival_rng = Rng.create ~seed in
  List.iteri
    (fun k sub ->
      let u = Rng.float arrival_rng 1.0 in
      let rng = Rng.create ~seed:((seed * 1_000_003) + k) in
      Net.Sim.after sim ~peer:sub ~delay_ms:(arrival_window_ms *. u *. u) (fun () ->
          let avail = System.availability sys ~from:sub in
          let catalog = (System.peer sys sub).Runtime.Peer.catalog in
          request sub avail catalog rng (seed + k) per_sub))
    sub_ids;
  let run ~pause =
    let outcome, events =
      run_in_chunks ~pause ~chunk:(total / 2) ~max_events:(60 * total + 100_000) sys
    in
    let st = System.stats sys in
    {
      attempted = total;
      completed = !completed;
      latencies = Array.sub lat 0 !completed;
      completion_vms = System.now_ms sys;
      bytes = st.Net.Stats.bytes;
      messages = st.Net.Stats.messages;
      payload_messages = st.Net.Stats.payload_messages;
      events;
      quiescent = outcome = `Quiescent;
      answers = lazy (System.fingerprint sys);
      extra = [ ("unserved", float_of_int !unserved) ];
    }
  in
  (* Every request completes, none is unserved, and every mirror holds
     the release: Σ is the announced document on each mirror. *)
  let oracle r =
    let release_everywhere =
      List.for_all
        (fun m -> Option.is_some (System.find_document sys m "release"))
        mirror_ids
    in
    if !unserved = 0 && r.quiescent && release_everywhere then
      r.attempted - r.completed
    else r.attempted
  in
  { sys; doc_classes = []; run; oracle }

(* --- hotspot ----------------------------------------------------- *)

let hotspot_shape = function
  | Full -> (12, 8, 48, 120, 50)
  | Tiny -> (4, 2, 12, 12, 10)

let build_hotspot shape ~seed ~adaptive =
  let owners, spares, readers, docs, reads_per_reader = hotspot_shape shape in
  Sc.hotspot ~owners ~spares ~readers ~docs ~hot_fraction:0.1 ~hot_share:0.9
    ~reads_per_reader ~appends:6 ~append_every_ms:40.0 ~payload_bytes:2048
    ~think_ms:2.0 ~arrival_window_ms:100.0 ~steered:adaptive ~cpu_ms_per_kb:3.0
    ~seed ()

let hotspot shape ~seed =
  let ts = Obs.Timeseries.default in
  Obs.Timeseries.set_window ts 10.0;
  Obs.Timeseries.set_enabled ts true;
  let hs = build_hotspot shape ~seed ~adaptive:true in
  let sys = hs.Sc.hs_system in
  let storage = hs.Sc.hs_owners @ hs.Sc.hs_spares in
  (* E23's controller configuration. *)
  let ctl =
    Placement.enable
      ~cfg:
        {
          Placement.default_config with
          tick_ms = 20.0;
          windows = 3;
          hot_rate = 100.0;
          migrations_per_tick = 2;
          seed = seed + 99;
          eligible = Some (fun p -> List.exists (Peer_id.equal p) storage);
        }
      sys
  in
  (* E23's chaos profile without its owner crash: probabilistic faults
     quiet by 400 ms and one spare cut off from 100 to 250 ms. *)
  System.inject_faults sys
    (Net.Fault.make
       ~profile:{ Net.Fault.drop = 0.12; duplicate = 0.04; jitter_ms = 2.0 }
       ~events:
         [
           Net.Fault.Partition
             {
               island = [ List.hd hs.Sc.hs_spares ];
               window = Net.Fault.window ~from_ms:100.0 ~until_ms:250.0;
             };
         ]
       ~quiet_after_ms:400.0 ~seed:(seed + 23) ());
  let run ~pause =
    let outcome, events =
      run_in_chunks ~pause ~chunk:(2 * hs.Sc.hs_requests / 3) ~max_events:1_000_000 sys
    in
    let st = System.stats sys in
    let p = Placement.stats ctl in
    {
      attempted = hs.Sc.hs_requests;
      completed = !(hs.Sc.hs_completed);
      latencies = Array.of_list (List.rev !(hs.Sc.hs_latencies));
      completion_vms = System.now_ms sys;
      bytes = st.Net.Stats.bytes;
      messages = st.Net.Stats.messages;
      payload_messages = st.Net.Stats.payload_messages;
      events;
      quiescent = outcome = `Quiescent;
      answers = lazy (System.content_fingerprint sys);
      extra =
        [
          ("unserved", float_of_int !(hs.Sc.hs_unserved));
          ("placement.ticks", float_of_int p.Placement.s_ticks);
          ("placement.migrations_committed", float_of_int p.Placement.s_committed);
          ("placement.migrations_aborted", float_of_int p.Placement.s_aborted);
        ];
    }
  in
  (* Σ content must equal a fault-free static run of the same shape:
     document contents and appends depend on the document index only,
     so every healed run converges to the same content. *)
  let oracle r =
    Obs.Timeseries.set_enabled ts false;
    let reference = build_hotspot shape ~seed ~adaptive:false in
    let ref_out, _ = System.run reference.Sc.hs_system in
    let expected = System.content_fingerprint reference.Sc.hs_system in
    if
      ref_out = `Quiescent && r.quiescent
      && String.equal expected (Lazy.force r.answers)
      && !(hs.Sc.hs_unserved) = 0
    then r.attempted - r.completed
    else r.attempted
  in
  { sys; doc_classes = List.map fst hs.Sc.hs_docs; run; oracle }

(* --- query ------------------------------------------------------- *)

let hub = Peer_id.of_string "hub"
let region_peers = List.map Peer_id.of_string Workload.Xmark.regions

let join_q =
  Query.Parser.parse_exn
    {|query(2) for $a in $0//auction, $i in $1//item, $n in $i/name, $c in $a/current
      where attr($a, "item") = attr($i, "id")
      return <sale>{$n}<price>{text($c)}</price></sale>|}

let select_q category =
  Query.Parser.parse_exn
    (Printf.sprintf
       {|query(1) for $i in $0//item, $n in $i/name where attr($i, "category") = %S return <hit>{$n}</hit>|}
       category)

type op =
  | Ask of Expr.t
  | Append of { region : Peer_id.t; id : int; category : string }

(* The E14 star: auctions at the hub, each region's items at its
   peer; the site itself is a function of the seed. *)
let build_query_system shape ~seed ~cache =
  let items_per_region, auctions =
    match shape with Full -> (24, 40) | Tiny -> (8, 12)
  in
  let sys =
    System.create
      (Net.Topology.star ~hub
         ~spoke_link:(Net.Link.make ~latency_ms:8.0 ~bandwidth_bytes_per_ms:120.0)
         (hub :: region_peers))
  in
  let gen = System.gen_of sys hub in
  let scale =
    { Workload.Xmark.default_scale with items_per_region; auctions }
  in
  let site = Workload.Xmark.site ~scale ~gen ~rng:(Workload.Rng.create ~seed) () in
  let part path = List.hd (Xml.Path.select (Xml.Path.of_string path) site) in
  System.add_document sys hub ~name:"auctions" (Tree.copy ~gen (part "/auctions"));
  List.iter2
    (fun rp rname ->
      System.add_document sys rp ~name:"items"
        (Tree.copy ~gen:(System.gen_of sys rp) (part ("/regions/" ^ rname))))
    region_peers Workload.Xmark.regions;
  if cache then System.enable_qcache sys;
  sys

(* Every third query is an auction⋈item join, the others category
   selections, over seed-chosen regions and categories (a fixed mix, so
   seeds differ in data and choices but not in proportions); an item
   lands in a random region every 16–24 queries. *)
let query_stream shape ~seed =
  let queries = match shape with Full -> 1000 | Tiny -> 60 in
  let rng = Rng.create ~seed:(seed + 7) in
  let next_append = ref (16 + Rng.int rng 9) in
  let ops = ref [] and appended = ref 0 in
  for i = 1 to queries do
    let region = Rng.pick rng region_peers in
    let at = Peer_id.to_string region in
    let e =
      if i mod 3 = 0 then
        Expr.query_at join_q ~at:hub
          ~args:[ Expr.doc "auctions" ~at:(Peer_id.to_string hub); Expr.doc "items" ~at ]
      else
        Expr.query_at
          (select_q (Rng.pick rng Workload.Xmark.categories))
          ~at:hub ~args:[ Expr.doc "items" ~at ]
    in
    ops := Ask e :: !ops;
    if i = !next_append then begin
      incr appended;
      ops :=
        Append
          {
            region = Rng.pick rng region_peers;
            id = 100_000 + !appended;
            category = Rng.pick rng Workload.Xmark.categories;
          }
        :: !ops;
      next_append := i + 16 + Rng.int rng 9
    end
  done;
  (queries, List.rev !ops)

let apply_append sys region ~id ~category =
  let store = (System.peer sys region).Runtime.Peer.store in
  let doc = Names.Doc_name.of_string "items" in
  let root =
    match System.find_document sys region "items" with
    | Some d -> Option.get (Tree.id (Doc.Document.root d))
    | None -> invalid_arg "query workload: region without items"
  in
  let gen = System.gen_of sys region in
  ignore
    (Doc.Store.insert_under store doc ~node:root
       [
         Tree.element ~gen (l "item")
           ~attrs:[ ("id", Printf.sprintf "i%d" id); ("category", category) ]
           [
             Tree.element ~gen (l "name") [ Tree.text (Printf.sprintf "new item %d" id) ];
             Tree.element ~gen (l "description") [ Tree.text "appended" ];
           ];
       ])

(* The planner strategy [Exec.run_optimized] uses by default. *)
let strategy = Algebra.Optimizer.Best_first { max_expansions = 32 }

let query shape ~seed =
  let sys = build_query_system shape ~seed ~cache:true in
  let queries, ops = query_stream shape ~seed in
  let run ~pause =
    let lat = Array.make queries 0.0 in
    let digests = Array.make queries "" in
    let completed = ref 0 and asked = ref 0 and quiescent = ref true in
    let bytes = ref 0 and messages = ref 0 and payload = ref 0 and events = ref 0 in
    let plan_s = ref 0.0 and explored = ref 0 and equal_calls = ref 0 in
    let est_bytes = ref 0 and writes = ref 0 in
    List.iter
      (function
        | Append { region; id; category } ->
            incr writes;
            Probe.with_span "workload.append" (fun () ->
                apply_append sys region ~id ~category)
        | Ask e ->
            let eq0 = Expr.equal_calls () in
            let planned, out =
              Probe.with_span "exec.run_optimized" (fun () ->
                  Exec.run_optimized sys ~ctx:hub e)
            in
            equal_calls := !equal_calls + (Expr.equal_calls () - eq0);
            (* Standalone planner timing on the same expression and live
               cost oracles (queries leave the documents unchanged), kept
               out of the timed run by the caller.  It runs second, on
               warm caches, so it never overstates the planner's share
               of the call above. *)
            if !Probe.enabled then begin
              let t0 = Probe.now_ns () in
              ignore (Algebra.Planner.plan ~env:(System.cost_env sys) ~ctx:hub strategy e);
              plan_s := !plan_s +. Probe.seconds_since t0
            end;
            explored := !explored + planned.Algebra.Planner.search.Algebra.Optimizer.explored;
            est_bytes := !est_bytes + planned.Algebra.Planner.cost.Algebra.Cost.bytes;
            let st = out.Exec.stats in
            bytes := !bytes + st.Net.Stats.bytes;
            messages := !messages + st.Net.Stats.messages;
            payload := !payload + st.Net.Stats.payload_messages;
            events := !events + out.Exec.events;
            if out.Exec.termination <> `Quiescent then quiescent := false;
            digests.(!asked) <-
              (if out.Exec.finished then digest_forest out.Exec.results else "unfinished");
            if out.Exec.finished then begin
              lat.(!completed) <- out.Exec.elapsed_ms;
              incr completed
            end;
            incr asked;
            if !asked mod (queries / 20) = 0 then pause ())
      ops;
    {
      attempted = queries;
      completed = !completed;
      latencies = Array.sub lat 0 !completed;
      completion_vms = System.now_ms sys;
      bytes = !bytes;
      messages = !messages;
      payload_messages = !payload;
      events = !events;
      quiescent = !quiescent;
      answers = Lazy.from_val (String.concat "," (Array.to_list digests));
      extra =
        [
          ("algebra.plan_s", !plan_s);
          ("algebra.explored", float_of_int !explored);
          ("algebra.equal_calls", float_of_int !equal_calls);
          ("algebra.est_bytes", float_of_int !est_bytes);
          ("writes", float_of_int !writes);
        ];
    }
  in
  (* Each answer must equal a cache-off, unplanned evaluation of the
     same expression over the same data, appends applied at the same
     points of the stream. *)
  let oracle r =
    let reference = build_query_system shape ~seed ~cache:false in
    let expected =
      List.filter_map
        (function
          | Append { region; id; category } ->
              apply_append reference region ~id ~category;
              None
          | Ask e ->
              let out = Exec.run_to_quiescence reference ~ctx:hub e in
              Some
                (if out.Exec.finished && out.Exec.termination = `Quiescent then
                   digest_forest out.Exec.results
                 else "reference-unfinished"))
        ops
    in
    let got = String.split_on_char ',' (Lazy.force r.answers) in
    List.fold_left2
      (fun bad want have -> if String.equal want have then bad else bad + 1)
      0 expected got
  in
  { sys; doc_classes = []; run; oracle }

let names = [ "crowd"; "hotspot"; "query" ]

let setup name shape ~seed =
  match name with
  | "crowd" -> crowd shape ~seed
  | "hotspot" -> hotspot shape ~seed
  | "query" -> query shape ~seed
  | _ -> invalid_arg ("unknown workload " ^ name)
