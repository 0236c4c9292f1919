(* The reliable transport on its own (DESIGN.md §13): a property over
   two bare endpoints, and directed runs for the retransmission stall
   and the crash wedge. *)

open Axml
open Helpers
module Message = Runtime.Message
module Transport = Runtime.Transport
module System = Runtime.System
module Exec = Runtime.Exec
module Fault = Net.Fault
module Sim = Net.Sim

let p1 = peer "p1"
let p2 = peer "p2"

(* --- property: exactly once, in order, across a crash mid-loss ---- *)

(* Two endpoints talk both ways over a lossy, duplicating, jittery
   link while p1 crashes and restarts inside the lossy window.  The
   applications are durable (their logs survive the crash); a crashed
   application sends nothing.  Every message an application sent must
   reach the other side exactly once and in order. *)
let knobs = [| (0.0, 0.0); (2.0, 8.0); (0.0, 8.0); (2.0, 0.0) |]

(* Accumulated across all cases; a property whose runs never lose or
   re-ship anything must fail, not pass silently. *)
let retransmits_seen = ref 0
let dups_seen = ref 0

let endpoints_case (seed, ki, crash_at, outage, n) =
  let flush_ms, ack_delay_ms = knobs.(ki) in
  let sim = Sim.create (mesh [ "p1"; "p2" ]) in
  let tr =
    Transport.create ~sim
      ~transmit:(fun ~src ~dst m ->
        Sim.send sim ~src ~dst ~bytes:(Message.bytes m.Message.payload) m)
      ~rto_ms:40.0 ~flush_ms ~ack_delay_ms
  in
  let sent = Hashtbl.create 2 and got = Hashtbl.create 2 in
  let log tbl src key =
    Hashtbl.replace tbl src
      (key :: Option.value ~default:[] (Hashtbl.find_opt tbl src))
  in
  List.iter
    (fun p ->
      let deliver ~src (m : Message.t) =
        match m.Message.payload with
        | Message.Stream { key; _ } -> log got src key
        | _ -> Alcotest.fail "unexpected payload"
      in
      Sim.set_handler sim p (fun ~src m ->
          Transport.on_frame tr ~deliver ~at:p ~src m))
    [ p1; p2 ];
  Sim.set_crash_hooks sim ~on_crash:(Transport.on_crash tr)
    ~on_restart:(Transport.on_restart tr);
  Sim.inject sim
    (Fault.make
       ~profile:{ Fault.drop = 0.3; duplicate = 0.1; jitter_ms = 6.0 }
       ~events:
         [
           Fault.Crash
             {
               peer = p1;
               at_ms = float_of_int crash_at;
               restart_ms = Some (float_of_int (crash_at + outage));
             };
         ]
       ~quiet_after_ms:300.0 ~seed ());
  for key = 1 to n do
    Sim.at sim ~time:(float_of_int (key * 4)) (fun () ->
        List.iter
          (fun (src, dst) ->
            if not (Sim.is_crashed sim src) then begin
              log sent src key;
              Transport.send tr ~src ~dst ~corr:0 ~op:(-1)
                (Message.Stream
                   { key; forest = Message.now []; final = false })
            end)
          [ (p1, p2); (p2, p1) ])
  done;
  let outcome, _ = Sim.run sim in
  let rc = Transport.counters tr in
  retransmits_seen := !retransmits_seen + rc.Transport.retransmits;
  dups_seen := !dups_seen + rc.Transport.dup_suppressed;
  let lane src =
    ( Option.value ~default:[] (Hashtbl.find_opt sent src),
      Option.value ~default:[] (Hashtbl.find_opt got src) )
  in
  outcome = `Quiescent && rc.Transport.abandoned = 0
  && List.for_all (fun src -> fst (lane src) = snd (lane src)) [ p1; p2 ]

let endpoints_property =
  QCheck.Test.make ~count:200
    ~name:"endpoints deliver exactly once, in order, across a crash mid-loss"
    QCheck.(
      make
        ~print:(fun (s, k, c, o, n) ->
          Printf.sprintf "seed=%d knobs=%d crash_at=%d outage=%d n=%d" s k c o
            n)
        Gen.(
          map
            (fun ((s, k), (c, o, n)) -> (s, k, c, o, n))
            (pair
               (pair (int_bound 99_999) (int_bound (Array.length knobs - 1)))
               (triple (int_bound 250) (int_range 1 120) (int_range 1 60)))))
    endpoints_case

let test_property_not_vacuous () =
  Alcotest.(check bool)
    (Printf.sprintf "retransmissions (%d) and suppressed duplicates (%d) seen"
       !retransmits_seen !dups_seen)
    true
    (!retransmits_seen > 0 && !dups_seen > 0)

(* --- directed: a lost frame is re-sent one RTO after it left ------- *)

(* A 200-item stream at flush 2 / ack 8 across a 4 ms outage.  Were
   the retransmission timer re-armed on every frame, a frame lost in
   the outage would wait until the streaming sender fell quiet, and
   the run would end ~90 ms after its fault-free twin. *)
let test_no_retransmission_stall () =
  let run ?fault () =
    let out, texts, _, _ =
      Test_transport_batch.run_stream ~items:200 ~flush_ms:2.0
        ~ack_delay_ms:8.0 ?fault ()
    in
    (out.Exec.stats, texts)
  in
  let clean, texts_clean = run () in
  let outage =
    Fault.make
      ~events:
        [
          Fault.Link_down
            {
              src = p1;
              dst = p2;
              window = Fault.window ~from_ms:20.0 ~until_ms:24.0;
            };
        ]
      ~seed:1 ()
  in
  let faulted, texts = run ~fault:outage () in
  Alcotest.(check (list string)) "stream intact" texts_clean texts;
  Alcotest.(check bool)
    (Printf.sprintf "completion %.1f ms within 5%% of fault-free %.1f ms"
       faulted.Net.Stats.completion_ms clean.Net.Stats.completion_ms)
    true
    (faulted.Net.Stats.completion_ms
    <= 1.05 *. clean.Net.Stats.completion_ms);
  Alcotest.(check bool)
    (Printf.sprintf "re-shipped %d B (< 2 KB)"
       (faulted.Net.Stats.bytes - clean.Net.Stats.bytes))
    true
    (faulted.Net.Stats.bytes - clean.Net.Stats.bytes < 2048)

(* --- directed: the send log survives a crash ----------------------- *)

(* p2 sends "a" into an outage, crashes before any retransmission gets
   through, restarts, and later sends "b".  Were the send log wiped by
   the crash, p1 would wait forever for "a"'s sequence number and
   buffer "b" behind it until both were abandoned. *)
let crash_wedge ?flush_ms ?ack_delay_ms () =
  let sys =
    System.create ~transport:System.Reliable ?flush_ms ?ack_delay_ms
      (mesh [ "p1"; "p2" ])
  in
  System.inject_faults sys
    (Fault.make
       ~events:
         [
           Fault.Link_down
             { src = p2; dst = p1; window = Fault.window ~from_ms:0.0 ~until_ms:30.0 };
           Fault.Crash { peer = p2; at_ms = 20.0; restart_ms = Some 40.0 };
         ]
       ~seed:1 ());
  let install name () =
    let doc = Xml.Tree.element_of_string ~gen:(System.gen_of sys p2) name [] in
    System.send sys ~src:p2 ~dst:p1
      (Message.Install_doc { name; forest = Message.now [ doc ]; notify = None })
  in
  install "a" ();
  Sim.at (System.sim sys) ~time:50.0 (install "b");
  let outcome, _ = System.run sys in
  Alcotest.(check bool) "quiescent" true (outcome = `Quiescent);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " arrived") true
        (System.find_document sys p1 name <> None))
    [ "a"; "b" ];
  Alcotest.(check int) "nothing abandoned" 0
    (System.reliability_counters sys).System.abandoned;
  Alcotest.(check bool)
    (Printf.sprintf "done by %.1f ms (< 200)" (System.now_ms sys))
    true
    (System.now_ms sys < 200.0)

let suite =
  [
    QCheck_alcotest.to_alcotest endpoints_property;
    ("endpoint property actually loses and re-ships", `Quick,
      test_property_not_vacuous);
    ("a lost frame does not wait for the sender to fall quiet", `Quick,
      test_no_retransmission_stall);
    ("crash keeps the send log (flush 0 / ack 0)", `Quick,
      fun () -> crash_wedge ());
    ("crash keeps the send log (flush 2 / ack 8)", `Quick,
      crash_wedge ~flush_ms:2.0 ~ack_delay_ms:8.0);
  ]
