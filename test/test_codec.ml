(* Binary wire codec suite (DESIGN.md §16).

   Three layers of properties:

   - the codec itself: encode/decode round-trips every payload variant
     (including batch frames with dedup back-references), [frame_bytes]
     is exactly [Bytes.length (encode m)] without materializing the
     frame, and truncated/corrupt/over-length frames are rejected with
     [Error], never an exception;

   - laziness: receiving and re-encoding a frame parses no forest blob
     ([Message.payload_decodes] stays flat);

   - the system: chaos replays and the flash-crowd scenario reach the
     same canonical results and Σ fingerprint under the XML, binary
     and strict-binary wires — the wire changes costs, never answers. *)

open Axml
open Helpers
module Message = Runtime.Message
module Codec = Runtime.Codec
module System = Runtime.System
module Exec = Runtime.Exec
module Expr = Algebra.Expr
module Names = Doc.Names
module Rng = Net.Rng
module Fault = Net.Fault

(* --- random messages ---------------------------------------------- *)

let labels = [| "a"; "b"; "item"; "data"; "x-y.z" |]

let texts =
  [| ""; "plain"; "a < b & c > d"; "quote \" tick '"; "tab\there\nline"; "é€" |]

let attr_names = [| "k"; "name"; "version"; "xml-lang" |]

let rec rand_tree ~gen rng depth =
  if depth = 0 || Rng.int rng 4 = 0 then Xml.Tree.text texts.(Rng.int rng 6)
  else
    let attrs =
      List.init (Rng.int rng 3) (fun i ->
          (attr_names.(Rng.int rng 4) ^ string_of_int i, texts.(Rng.int rng 6)))
    in
    let children =
      List.init (Rng.int rng 4) (fun _ -> rand_tree ~gen rng (depth - 1))
    in
    Xml.Tree.element_of_string ~attrs ~gen labels.(Rng.int rng 5) children

let rand_forest ~gen rng = List.init (Rng.int rng 4) (fun _ -> rand_tree ~gen rng 3)

let rand_lforest ~gen rng = Message.now (rand_forest ~gen rng)

let peers = [| "p1"; "p2"; "mirror007" |]

let rand_peer rng = peer peers.(Rng.int rng 3)

let rand_node_id ~gen rng =
  if Rng.bool rng then Xml.Node_id.Gen.fresh gen
  else Option.get (Xml.Node_id.make ~ns:"remote" ~counter:(Rng.int rng 1000))

let rand_dest ~gen rng =
  match Rng.int rng 3 with
  | 0 -> Message.Cont { peer = rand_peer rng; key = Rng.int rng 10_000 }
  | 1 ->
      Message.Node
        (Names.Node_ref.make ~node:(rand_node_id ~gen rng) ~peer:(rand_peer rng))
  | _ ->
      Message.Install
        {
          peer = rand_peer rng;
          name = "doc" ^ string_of_int (Rng.int rng 100);
        }

let rand_dests ~gen rng = List.init (Rng.int rng 3) (fun _ -> rand_dest ~gen rng)

let rand_notify rng =
  if Rng.bool rng then Some (rand_peer rng, Rng.int rng 1000) else None

let exprs =
  lazy
    [
      Expr.doc "cat" ~at:"p2";
      Expr.send_to_peer (peer "p1") (Expr.doc "orders" ~at:"p3");
      Expr.query_at
        (query
           {|query(2) for $o in $0//order, $i in $1//item where attr($o, "item") = attr($i, "name") return <m>{$i}</m>|})
        ~at:(peer "p1")
        ~args:[ Expr.doc "orders" ~at:"p3"; Expr.doc "cat" ~at:"p2" ];
    ]

let queries =
  lazy
    [
      query {|query(1) for $x in $0//item return <r>{$x}</r>|};
      query
        {|query(2) for $x in $0//a, $y in $1//b where text($x) = text($y) return <p>{$x}{$y}</p>|};
    ]

(* Sequenced messages a batch could legally carry; duplicate forests
   (from a shared pool) exercise the dedup back-reference path. *)
let rand_batchable ~gen ~pool rng seq =
  let forest =
    if Rng.int rng 2 = 0 then Message.now pool.(Rng.int rng (Array.length pool))
    else rand_lforest ~gen rng
  in
  let payload =
    match Rng.int rng 3 with
    | 0 -> Message.Stream { key = Rng.int rng 100; forest; final = Rng.bool rng }
    | 1 ->
        Message.Insert
          { node = rand_node_id ~gen rng; forest; notify = rand_notify rng }
    | _ ->
        Message.Install_doc
          {
            name = "log" ^ string_of_int (Rng.int rng 4);
            forest;
            notify = rand_notify rng;
          }
  in
  Message.make ~corr:(Rng.int rng 100) ~seq ~op:(Rng.int rng 5 - 1) payload

let rand_payload ~gen rng =
  match Rng.int rng 11 with
  | 0 ->
      Message.Stream
        {
          key = Rng.int rng 10_000;
          forest = rand_lforest ~gen rng;
          final = Rng.bool rng;
        }
  | 1 ->
      Message.Eval_request
        {
          expr = Rng.pick rng (Lazy.force exprs);
          replies = rand_dests ~gen rng;
          ack = rand_notify rng;
        }
  | 2 ->
      Message.Invoke
        {
          service = Names.Service_name.of_string "fetch";
          params = List.init (Rng.int rng 3) (fun _ -> rand_lforest ~gen rng);
          replies = rand_dests ~gen rng;
        }
  | 3 ->
      Message.Insert
        {
          node = rand_node_id ~gen rng;
          forest = rand_lforest ~gen rng;
          notify = rand_notify rng;
        }
  | 4 ->
      Message.Install_doc
        {
          name = "d" ^ string_of_int (Rng.int rng 50);
          forest = rand_lforest ~gen rng;
          notify = rand_notify rng;
        }
  | 5 ->
      Message.Deploy
        {
          prefix = "svc";
          query = Rng.pick rng (Lazy.force queries);
          reply = rand_dest ~gen rng;
        }
  | 6 ->
      Message.Query_shipped
        { key = Rng.int rng 1000; query = Rng.pick rng (Lazy.force queries) }
  | 7 -> Message.Ack { seq = Rng.int rng 10_000 }
  | 8 ->
      Message.Migrate_doc
        {
          name = "hot" ^ string_of_int (Rng.int rng 20);
          forest = rand_lforest ~gen rng;
          notify = rand_notify rng;
        }
  | 9 ->
      Message.Retract_doc
        { name = "hot" ^ string_of_int (Rng.int rng 20); notify = rand_notify rng }
  | _ ->
      let pool = Array.init 2 (fun _ -> rand_forest ~gen rng) in
      let n = 1 + Rng.int rng 5 in
      Message.batch ~ack:(Rng.int rng 100)
        (List.init n (fun i -> rand_batchable ~gen ~pool rng (i + 1)))

let rand_message seed =
  let rng = Rng.create ~seed in
  let gen = Xml.Node_id.Gen.create ~namespace:"codec-test" in
  Message.make ~corr:(Rng.int rng 1000) ~seq:(Rng.int rng 1000)
    ~op:(Rng.int rng 6 - 1)
    (rand_payload ~gen rng)

(* --- equality on decoded messages --------------------------------- *)

(* The codec preserves node identifiers exactly, so tree equality here
   is stricter than Canonical: ids, labels, attrs, children, order. *)
let rec tree_identical a b =
  match (a, b) with
  | Xml.Tree.Text s, Xml.Tree.Text s' -> String.equal s s'
  | Xml.Tree.Element e, Xml.Tree.Element e' ->
      Xml.Node_id.equal e.id e'.id
      && Xml.Label.equal e.label e'.label
      && e.attrs = e'.attrs
      && List.length e.children = List.length e'.children
      && List.for_all2 tree_identical e.children e'.children
  | _ -> false

let forest_identical a b =
  List.length a = List.length b && List.for_all2 tree_identical a b

let lf_identical a b = forest_identical (Message.force a) (Message.force b)

let rec payload_equal p p' =
  match (p, p') with
  | Message.Stream a, Message.Stream b ->
      a.key = b.key && a.final = b.final && lf_identical a.forest b.forest
  | Message.Eval_request a, Message.Eval_request b ->
      Expr.equal a.expr b.expr && a.replies = b.replies && a.ack = b.ack
  | Message.Invoke a, Message.Invoke b ->
      Names.Service_name.equal a.service b.service
      && a.replies = b.replies
      && List.length a.params = List.length b.params
      && List.for_all2 lf_identical a.params b.params
  | Message.Insert a, Message.Insert b ->
      Xml.Node_id.equal a.node b.node
      && a.notify = b.notify
      && lf_identical a.forest b.forest
  | Message.Install_doc a, Message.Install_doc b ->
      String.equal a.name b.name && a.notify = b.notify
      && lf_identical a.forest b.forest
  | Message.Deploy a, Message.Deploy b ->
      String.equal a.prefix b.prefix
      && Query.Ast.equal a.query b.query
      && a.reply = b.reply
  | Message.Query_shipped a, Message.Query_shipped b ->
      a.key = b.key && Query.Ast.equal a.query b.query
  | Message.Ack a, Message.Ack b -> a.seq = b.seq
  | Message.Migrate_doc a, Message.Migrate_doc b ->
      String.equal a.name b.name && a.notify = b.notify
      && lf_identical a.forest b.forest
  | Message.Retract_doc a, Message.Retract_doc b ->
      String.equal a.name b.name && a.notify = b.notify
  | Message.Batch a, Message.Batch b ->
      a.ack = b.ack
      && List.length a.items = List.length b.items
      && List.for_all2 item_equal a.items b.items
  | _ -> false

and item_equal a b =
  match (a, b) with
  | Message.Full m, Message.Full m' -> msg_equal m m'
  | Message.Shared a, Message.Shared b ->
      (* A decoded [Shared] item aliases its referent's forest — the
         referent's node ids — so its forest compares by shape, which
         is exactly the relation dedup matched on. *)
      a.of_seq = b.of_seq && a.saved = b.saved
      && a.msg.Message.corr = b.msg.Message.corr
      && a.msg.Message.seq = b.msg.Message.seq
      && a.msg.Message.op = b.msg.Message.op
      && payload_shape_equal a.msg.Message.payload b.msg.Message.payload
  | _ -> false

and payload_shape_equal p p' =
  let lf_shape a b =
    Xml.Forest.equal_shape (Message.force a) (Message.force b)
  in
  match (p, p') with
  | Message.Stream a, Message.Stream b ->
      a.key = b.key && a.final = b.final && lf_shape a.forest b.forest
  | Message.Insert a, Message.Insert b ->
      Xml.Node_id.equal a.node b.node
      && a.notify = b.notify
      && lf_shape a.forest b.forest
  | Message.Install_doc a, Message.Install_doc b ->
      String.equal a.name b.name && a.notify = b.notify
      && lf_shape a.forest b.forest
  | _ -> payload_equal p p'

and msg_equal (m : Message.t) (m' : Message.t) =
  m.corr = m'.corr && m.seq = m'.seq && m.op = m'.op
  && payload_equal m.payload m'.payload

(* --- properties ---------------------------------------------------- *)

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000)

let prop ?(count = 300) name p =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name seed_arb p)

let roundtrip_prop =
  prop "decode (encode m) reconstructs m exactly" (fun seed ->
      let m = rand_message seed in
      match Codec.decode_strict (Codec.encode m) with
      | Ok m' -> msg_equal m m'
      | Error e -> QCheck.Test.fail_reportf "decode: %a" Codec.pp_error e)

let frame_bytes_prop =
  prop "frame_bytes = |encode m| without materializing" (fun seed ->
      let m = rand_message seed in
      let predicted = Codec.frame_bytes m in
      predicted = Bytes.length (Codec.encode m))

(* Sizing a *received* (still lazy) message must also be exact: the
   transport re-charges undecoded frames on retransmission. *)
let lazy_frame_bytes_prop =
  prop "frame_bytes is exact on lazily decoded messages" (fun seed ->
      let m = rand_message seed in
      let frame = Codec.encode m in
      match Codec.decode frame with
      | Ok m' ->
          Codec.frame_bytes m' = Bytes.length frame
          && Bytes.equal (Codec.encode m') frame
      | Error e -> QCheck.Test.fail_reportf "decode: %a" Codec.pp_error e)

(* The byte-size model walked from scratch: the oracle for the size
   every node stores when it is built. *)
let rec oracle_bytes = function
  | Xml.Tree.Text s -> String.length s
  | Xml.Tree.Element e ->
      (2 * String.length (Xml.Label.to_string e.label))
      + 5
      + List.fold_left
          (fun acc (k, v) -> acc + String.length k + String.length v + 4)
          0 e.attrs
      + List.fold_left (fun acc c -> acc + oracle_bytes c) 0 e.children

let xml_sizing_prop =
  prop "serialized_length mirrors the serializer" (fun seed ->
      let rng = Rng.create ~seed in
      let gen = Xml.Node_id.Gen.create ~namespace:"sizing" in
      let t = rand_tree ~gen rng 4 in
      Xml.Serializer.serialized_length t
      = String.length (Xml.Serializer.to_string t)
      && Xml.Tree.byte_size t = oracle_bytes t)

(* Every node stores its measures: byte size and shape digest in
   [Tree], blob and blob length through [Codec].  A rebuild path that
   carried a slot over from the node it replaced would leave a stale
   measure, so: fill every slot of a random tree, derive a tree from it
   by each rebuild path, and check every node of the result against
   the oracle walk, a slot-free reconstruction and a fresh encode. *)
let rec fresh = function
  | Xml.Tree.Text s -> Xml.Tree.text s
  | Xml.Tree.Element e ->
      Xml.Tree.with_id e.id ~attrs:e.attrs e.label (List.map fresh e.children)

let fill_slots t =
  Xml.Tree.iter
    (fun n ->
      ignore (Xml.Tree.shape_hash n);
      ignore (Codec.tree_blob_len n);
      ignore (Codec.tree_blob n))
    t

let measures_fresh t =
  let node_ok n =
    let blob = Codec.encode_tree_blob n in
    Xml.Tree.byte_size n = oracle_bytes n
    && Xml.Tree.shape_hash n = Xml.Tree.shape_hash (fresh n)
    && Codec.tree_blob_len n = Bytes.length blob
    && Bytes.equal (Codec.tree_blob n) blob
  in
  Xml.Tree.fold (fun ok n -> ok && node_ok n) true t

let rebuild_paths ~gen rng t =
  let ids =
    List.map (fun (e : Xml.Tree.element) -> e.id) (Xml.Tree.elements t)
  in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let inner = match List.tl ids with [] -> None | l -> Some (pick l) in
  let extra () = rand_tree ~gen rng 2 in
  let on_inner f = Option.bind inner f in
  let wire t =
    let m =
      Message.make
        (Message.Stream { key = 1; forest = Message.now [ t ]; final = true })
    in
    match (Codec.roundtrip m).Message.payload with
    | Message.Stream { forest; _ } -> List.hd (Message.force forest)
    | _ -> assert false
  in
  [
    ( "update_node",
      Xml.Tree.update_node (pick ids)
        (Xml.Tree.rebuild ~attrs:[ ("touched", "yes") ])
        t );
    ( "insert_children",
      Xml.Tree.insert_children ~under:(pick ids) [ extra () ] t );
    ( "insert_siblings",
      on_inner (fun id -> Xml.Tree.insert_siblings ~of_:id [ extra () ] t) );
    ("remove_node", on_inner (fun id -> Xml.Tree.remove_node id t));
    ("copy", Some (Xml.Tree.copy ~gen t));
    ("canonicalize", Some (Xml.Canonical.canonicalize t));
    ( "zipper append",
      Option.map
        (fun z -> Xml.Zipper.to_tree (Xml.Zipper.append_child (extra ()) z))
        (Xml.Zipper.find_id (pick ids) (Xml.Zipper.of_tree t)) );
    ("normalize", Some (Doc.Equivalence.normalize t));
    ("decode", Some (wire t));
  ]
  |> List.filter_map (fun (name, t') -> Option.map (fun t' -> (name, t')) t')

let stale_measure_prop =
  prop "no rebuild path leaves a stale measure" (fun seed ->
      let rng = Rng.create ~seed in
      let gen = Xml.Node_id.Gen.create ~namespace:"stale" in
      let t =
        Xml.Tree.element_of_string ~gen "root"
          [ rand_tree ~gen rng 3; rand_tree ~gen rng 3 ]
      in
      fill_slots t;
      List.for_all
        (fun (name, t') ->
          measures_fresh t'
          || QCheck.Test.fail_reportf "%s left a stale measure" name)
        (rebuild_paths ~gen rng t))

let shape_hash_prop =
  prop "shape_hash is id-insensitive and shape-consistent" (fun seed ->
      let rng = Rng.create ~seed in
      let gen = Xml.Node_id.Gen.create ~namespace:"shape-a" in
      let f = rand_forest ~gen rng in
      let gen' = Xml.Node_id.Gen.create ~namespace:"shape-b" in
      let f' = Xml.Forest.copy ~gen:gen' f in
      Xml.Forest.equal_shape f f'
      && Xml.Forest.shape_hash f = Xml.Forest.shape_hash f'
      && Xml.Forest.shape_hash f <> 0)

(* Every strict prefix of a frame is rejected (the length prefix pins
   the exact extent), as is appended junk; random single-byte
   corruption must never escape as an exception. *)
let truncation_prop =
  prop "truncated and over-length frames are rejected" (fun seed ->
      let m = rand_message seed in
      let frame = Codec.encode m in
      let n = Bytes.length frame in
      let rng = Rng.create ~seed in
      let cut = Rng.int rng n in
      let prefix_rejected =
        match Codec.decode (Bytes.sub frame 0 cut) with
        | Error _ -> true
        | Ok _ -> false
      in
      let extended = Bytes.extend frame 0 (1 + Rng.int rng 8) in
      let overlength_rejected =
        match Codec.decode extended with Error _ -> true | Ok _ -> false
      in
      prefix_rejected && overlength_rejected)

let corruption_prop =
  prop ~count:500 "corrupt frames never crash the decoder" (fun seed ->
      let m = rand_message seed in
      let frame = Codec.encode m in
      let rng = Rng.create ~seed in
      let pos = Rng.int rng (Bytes.length frame) in
      Bytes.set frame pos (Char.chr (Rng.int rng 256));
      (* Either rejected or decoded into some message — the only wrong
         outcome is an escaped exception. *)
      match Codec.decode_strict frame with Ok _ | Error _ -> true)

let test_garbage_rejected () =
  List.iter
    (fun bytes ->
      match Codec.decode (Bytes.of_string bytes) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted garbage %S" bytes)
    [ ""; "\x00"; "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"; "\x05hello" ]

(* --- laziness ------------------------------------------------------ *)

let stream_with ~g xml ~seq =
  Message.make ~seq
    (Message.Stream { key = 1; forest = Message.now [ parse ~g xml ]; final = true })

let test_lazy_decode_counts () =
  let g = gen () in
  let m = stream_with ~g "<a><b>payload</b><c k=\"v\"/></a>" ~seq:3 in
  let frame = Codec.encode m in
  let d0 = Message.payload_decodes () in
  let m' = Result.get_ok (Codec.decode frame) in
  (* Receiving, sizing and re-encoding all leave the forest encoded. *)
  Alcotest.(check int) "decode parses nothing" d0 (Message.payload_decodes ());
  Alcotest.(check int) "sizing parses nothing"
    (Bytes.length frame) (Codec.frame_bytes m');
  Alcotest.(check bool) "re-encode blits the slice" true
    (Bytes.equal frame (Codec.encode m'));
  Alcotest.(check int) "still nothing" d0 (Message.payload_decodes ());
  (match m'.Message.payload with
  | Message.Stream { forest; _ } ->
      Alcotest.(check bool) "not forced yet" false (Message.is_forced forest);
      Alcotest.(check int) "tree count readable without decode" 1
        (Message.trees forest);
      let f = Message.force forest in
      Alcotest.(check int) "first touch decodes once" (d0 + 1)
        (Message.payload_decodes ());
      ignore (Message.force forest);
      Alcotest.(check int) "second touch is cached" (d0 + 1)
        (Message.payload_decodes ());
      Alcotest.(check bool) "decoded content" true
        (Xml.Forest.equal_shape f
           [ parse ~g "<a><b>payload</b><c k=\"v\"/></a>" ])
  | _ -> Alcotest.fail "expected a stream")

(* --- the system under the binary wire ------------------------------ *)

let wires = [ ("xml", System.Xml); ("binary", System.Binary);
              ("binary-strict", System.Binary_strict) ]

let test_chaos_cross_wire () =
  let plans =
    let _, inbox_id = Test_rules_exec.build_system () in
    Test_rules_exec.base_plans inbox_id
  in
  let all = List.map peer [ "p1"; "p2"; "p3" ] in
  List.iter
    (fun (name, plan) ->
      let run ?fault wire =
        let sys, _ =
          Test_rules_exec.build_system ~transport:System.Reliable ~wire ()
        in
        Option.iter (System.inject_faults sys) fault;
        let out = Exec.run_to_quiescence sys ~ctx:(peer "p1") plan in
        (out, System.fingerprint sys)
      in
      let ref_out, ref_fp = run System.Xml in
      List.iter
        (fun (wname, wire) ->
          List.iter
            (fun seed ->
              let out, fp =
                run ~fault:(Fault.random ~seed all) wire
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s/seed %d: quiescent" name wname seed)
                true
                (out.Exec.termination = `Quiescent && out.Exec.finished);
              check_canonical_forests
                (Printf.sprintf "%s/%s/seed %d: same results" name wname seed)
                ref_out.Exec.results out.Exec.results;
              Alcotest.(check string)
                (Printf.sprintf "%s/%s/seed %d: same Σ" name wname seed)
                ref_fp fp)
            [ 1; 7; 4242 ])
        wires)
    plans

let test_flash_crowd_cross_wire () =
  let build wire =
    let fc =
      Workload.Scenarios.flash_crowd ~mirrors:3 ~subscribers:8
        ~requests_per_subscriber:2 ~transport:System.Reliable ~wire
        ~flush_ms:2.0 ~ack_delay_ms:8.0 ~seed:11 ()
    in
    let outcome, _ =
      System.run ~max_events:200_000 fc.Workload.Scenarios.fc_system
    in
    Alcotest.(check bool) "quiescent" true (outcome = `Quiescent);
    ( System.fingerprint fc.Workload.Scenarios.fc_system,
      !(fc.Workload.Scenarios.fc_completed),
      System.stats fc.Workload.Scenarios.fc_system )
  in
  let fp_xml, done_xml, stats_xml = build System.Xml in
  List.iter
    (fun (wname, wire) ->
      let fp, done_, stats = build wire in
      Alcotest.(check string) (wname ^ ": same Σ as the XML wire") fp_xml fp;
      Alcotest.(check int) (wname ^ ": same completions") done_xml done_;
      Alcotest.(check int) (wname ^ ": same physical message count")
        stats_xml.Net.Stats.messages stats.Net.Stats.messages;
      if wire <> System.Xml then
        Alcotest.(check bool)
          (Printf.sprintf "%s: binary frames are smaller (%d < %d)" wname
             stats.Net.Stats.bytes stats_xml.Net.Stats.bytes)
          true
          (stats.Net.Stats.bytes < stats_xml.Net.Stats.bytes))
    wires

(* Under the strict wire every transmission really crosses the codec,
   yet transport-layer handling decodes nothing: only deliveries that
   touch payloads do. *)
let test_strict_wire_decodes_bounded () =
  let fc =
    Workload.Scenarios.flash_crowd ~mirrors:2 ~subscribers:4
      ~requests_per_subscriber:2 ~wire:System.Binary_strict ~seed:3 ()
  in
  let d0 = Message.payload_decodes () in
  let outcome, _ = System.run ~max_events:50_000 fc.Workload.Scenarios.fc_system in
  Alcotest.(check bool) "quiescent" true (outcome = `Quiescent);
  let decodes = Message.payload_decodes () - d0 in
  let logical =
    (System.stats fc.Workload.Scenarios.fc_system).Net.Stats.payload_messages
  in
  Alcotest.(check bool)
    (Printf.sprintf "decodes (%d) bounded by logical messages (%d)" decodes
       logical)
    true
    (decodes > 0 && decodes <= logical)

let suite =
  [
    roundtrip_prop;
    frame_bytes_prop;
    lazy_frame_bytes_prop;
    xml_sizing_prop;
    stale_measure_prop;
    shape_hash_prop;
    truncation_prop;
    corruption_prop;
    ("garbage frames rejected", `Quick, test_garbage_rejected);
    ("lazy decode: first touch pays, transport never does", `Quick,
     test_lazy_decode_counts);
    ("chaos replay: wires agree on results and Σ", `Quick, test_chaos_cross_wire);
    ("flash crowd: wires agree, binary is smaller", `Quick,
     test_flash_crowd_cross_wire);
    ("strict wire: decodes bounded by deliveries", `Quick,
     test_strict_wire_decodes_bounded);
  ]
