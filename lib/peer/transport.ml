module Peer_id = Axml_net.Peer_id
module Sim = Axml_net.Sim
module Trace = Axml_obs.Trace
module Metrics = Axml_obs.Metrics
module Timeseries = Axml_obs.Timeseries

let log = Logs.Src.create "axml.transport" ~doc:"AXML reliable transport"

module Log = (val Logs.src_log log)

(* One connection record per ordered peer pair (a, b), bundling every
   role [a] plays in its conversation with [b]: the durable sequence
   cursors, the sender-side send log for a→b traffic (the unflushed
   [queue] and the unacked window) and the receiver-side state for
   b→a traffic (the early-arrival [buffer] and the delayed standalone
   ack).  Each message does one int-keyed probe (packed dense peer
   indexes) to reach all of its state.

   Durability: the cursors and the send log survive a crash of [a];
   everything else is volatile and reset by {!on_crash}.  The record
   itself is created on first contact and never removed, so timer
   closures may capture it. *)
type conn = {
  src : Peer_id.t;  (* a *)
  dst : Peer_id.t;  (* b *)
  mutable next_seq : int;  (* last seq assigned to a→b traffic *)
  mutable next_expected : int;  (* next in-order seq awaited from b *)
  mutable queue : Message.t list;  (* awaiting flush, newest first *)
  mutable flush_pending : bool;
  mutable unacked : Message.t list;  (* shipped, ascending seq *)
  mutable attempt : int;
  mutable cancel_rto : unit -> unit;
  buffer : (int, Message.t) Hashtbl.t;  (* seq -> early arrival from b *)
  mutable ack_due : bool;  (* a standalone ack timer is armed *)
  mutable cancel_ack : unit -> unit;
  mutable ts_inflight : Timeseries.handle option;
      (* Lazily-bound [net/link/a->b/inflight] series; [None] until the
         first send with telemetry enabled. *)
}

type counters = {
  retransmits : int;
  dup_suppressed : int;
  abandoned : int;
  acks_sent : int;
  batches_sent : int;
  batched_messages : int;
  piggybacked_acks : int;
  delayed_acks : int;
  dedup_shared_bytes : int;
}

type t = {
  sim : Message.t Sim.t;
  transmit : src:Peer_id.t -> dst:Peer_id.t -> Message.t -> unit;
  rto_ms : float;
  flush_ms : float;
  ack_delay_ms : float;
  conns : (int, conn) Hashtbl.t;  (* packed (a, b) dense-index pair *)
  mutable retransmits : int;
  mutable dup_suppressed : int;
  mutable abandoned : int;
  mutable acks_sent : int;
  mutable batches_sent : int;
  mutable batched_messages : int;
  mutable piggybacked_acks : int;
  mutable delayed_acks : int;
  mutable dedup_shared_bytes : int;
}

let create ~sim ~transmit ~rto_ms ~flush_ms ~ack_delay_ms =
  {
    sim;
    transmit;
    rto_ms;
    flush_ms;
    ack_delay_ms;
    conns = Hashtbl.create 64;
    retransmits = 0;
    dup_suppressed = 0;
    abandoned = 0;
    acks_sent = 0;
    batches_sent = 0;
    batched_messages = 0;
    piggybacked_acks = 0;
    delayed_acks = 0;
    dedup_shared_bytes = 0;
  }

let counters (t : t) : counters =
  {
    retransmits = t.retransmits;
    dup_suppressed = t.dup_suppressed;
    abandoned = t.abandoned;
    acks_sent = t.acks_sent;
    batches_sent = t.batches_sent;
    batched_messages = t.batched_messages;
    piggybacked_acks = t.piggybacked_acks;
    delayed_acks = t.delayed_acks;
    dedup_shared_bytes = t.dedup_shared_bytes;
  }

let count ~peer ?(by = 1) name =
  if Metrics.is_on Metrics.default then
    Metrics.incr Metrics.default ~peer:(Peer_id.to_string peer) ~by
      ~subsystem:"net" name

let conn_key a b = (Peer_id.index a lsl 31) lor Peer_id.index b

let conn t a b =
  let key = conn_key a b in
  match Hashtbl.find t.conns key with
  | c -> c
  | exception Not_found ->
      let c =
        {
          src = a;
          dst = b;
          next_seq = 0;
          next_expected = 1;
          queue = [];
          flush_pending = false;
          unacked = [];
          attempt = 0;
          cancel_rto = ignore;
          buffer = Hashtbl.create 8;
          ack_due = false;
          cancel_ack = ignore;
          ts_inflight = None;
        }
      in
      Hashtbl.add t.conns key c;
      c

(* Every conn (p, _): all of [p]'s sender and receiver roles. *)
let iter_roles t p f =
  let pi = Peer_id.index p in
  Hashtbl.iter (fun key c -> if key lsr 31 = pi then f c) t.conns

(* Highest sequence number [c.src] has delivered from [c.dst] — what a
   cumulative ack acknowledges ([0] = nothing yet). *)
let cum_ack c = c.next_expected - 1

(* Exponential backoff, capped: attempt 0 waits rto, attempt n waits
   min(rto * 2^n, rto * 32). *)
let retry_delay t attempt = t.rto_ms *. (2.0 ** float_of_int (min attempt 5))

(* Retransmissions before an unacked window is abandoned: bounds how
   long a permanently unreachable destination keeps a run alive. *)
let max_retries = 30

(* --- sender ------------------------------------------------------- *)

type timer = Flush | Rto | Delayed_ack

(* Ship one frame.  A flush carries only fresh messages; a
   retransmission re-ships the whole unacked window (go-back-N on loss
   only — re-shipping on every flush would go quadratic when the flush
   window is shorter than the RTT). *)
let send_frame t c msgs =
  if c.ack_due then begin
    (* The owed standalone ack is subsumed by this frame's piggybacked
       cumulative ack. *)
    c.cancel_ack ();
    c.ack_due <- false;
    t.piggybacked_acks <- t.piggybacked_acks + 1;
    count ~peer:c.src "piggybacked_acks"
  end;
  let payload = Message.batch ~ack:(cum_ack c) msgs in
  let items = Message.batch_size payload in
  let saved = Message.batch_saved payload in
  t.batches_sent <- t.batches_sent + 1;
  t.batched_messages <- t.batched_messages + items;
  t.dedup_shared_bytes <- t.dedup_shared_bytes + saved;
  count ~peer:c.src "batches_sent";
  count ~peer:c.src ~by:items "batch_items";
  if saved > 0 then count ~peer:c.src ~by:saved "batch_shared_bytes";
  if Trace.sampled () then
    Trace.instant ~cat:"net"
      ~peer:(Peer_id.to_string c.src)
      ~ts:(Sim.now t.sim)
      ~args:
        [
          ("dst", Peer_id.to_string c.dst);
          ("items", string_of_int items);
          ("ack", string_of_int (cum_ack c));
          ("shared_bytes", string_of_int saved);
        ]
      "batch";
  t.transmit ~src:c.src ~dst:c.dst (Message.make payload)

(* One retransmission timer guards a direction's whole window.  It is
   (re)armed when the window becomes non-empty, on ack progress and on
   each retransmission — never merely because another frame left, or a
   lost frame would wait until the sender fell quiet for a full RTO. *)
let rec arm_rto t c =
  c.cancel_rto ();
  c.cancel_rto <-
    Sim.after_cancellable t.sim ~peer:c.src ~delay_ms:(retry_delay t c.attempt)
      (fun () -> on_timer t c Rto)

and ship t c fresh =
  let idle = c.unacked = [] in
  c.unacked <- c.unacked @ fresh;
  send_frame t c fresh;
  if idle then arm_rto t c

and on_timer t c = function
  | Flush -> (
      c.flush_pending <- false;
      match List.rev c.queue with
      | [] -> ()  (* stale timer, e.g. surviving a crash+restart *)
      | fresh ->
          c.queue <- [];
          ship t c fresh)
  | Rto when c.unacked = [] -> ()
  | Rto when c.attempt >= max_retries ->
      let n = List.length c.unacked in
      c.unacked <- [];
      c.attempt <- 0;
      t.abandoned <- t.abandoned + n;
      count ~peer:c.src ~by:n "abandoned";
      (* SLO breach: the whole unacked window was given up on. *)
      if Trace.sampled () then
        Trace.instant ~cat:"slo"
          ~peer:(Peer_id.to_string c.src)
          ~ts:(Sim.now t.sim)
          ~args:
            [ ("dst", Peer_id.to_string c.dst); ("count", string_of_int n) ]
          "abandoned";
      Log.warn (fun m ->
          m "peer %a: abandoning %d message(s) to %a after %d retries"
            Peer_id.pp c.src n Peer_id.pp c.dst max_retries)
  | Rto ->
      c.attempt <- c.attempt + 1;
      t.retransmits <- t.retransmits + 1;
      count ~peer:c.src "retransmits";
      send_frame t c c.unacked;
      arm_rto t c
  | Delayed_ack ->
      if c.ack_due then begin
        c.ack_due <- false;
        t.delayed_acks <- t.delayed_acks + 1;
        count ~peer:c.src "delayed_acks";
        send_ack t c
      end

and send_ack t c =
  t.acks_sent <- t.acks_sent + 1;
  t.transmit ~src:c.src ~dst:c.dst
    (Message.make ~corr:0 (Message.Ack { seq = cum_ack c }))

(* Sender-side congestion telemetry: how many sequenced messages to
   [c.dst] are in flight (unacked window plus the unflushed queue) the
   moment a new send joins them — the signal a placement controller
   would watch for a saturating link. *)
let note_inflight c =
  let h =
    match c.ts_inflight with
    | Some h -> h
    | None ->
        let h =
          Timeseries.handle Timeseries.default
            ("net/link/" ^ Peer_id.to_string c.src ^ "->"
           ^ Peer_id.to_string c.dst ^ "/inflight")
        in
        c.ts_inflight <- Some h;
        h
  in
  (* [+ 1] counts the joining message itself: a quiet link reads 1,
     a saturating one reads its whole outstanding window. *)
  Timeseries.record h
    (float_of_int (1 + List.length c.unacked + List.length c.queue))

let send t ~src ~dst ~corr ~op payload =
  let c = conn t src dst in
  let seq = c.next_seq + 1 in
  c.next_seq <- seq;
  let msg = Message.make ~corr ~seq ~op payload in
  if Timeseries.is_on Timeseries.default then note_inflight c;
  if t.flush_ms <= 0.0 then ship t c [ msg ]
  else begin
    c.queue <- msg :: c.queue;
    if not c.flush_pending then begin
      c.flush_pending <- true;
      Sim.after t.sim ~peer:src ~delay_ms:t.flush_ms (fun () ->
          on_timer t c Flush)
    end
  end

(* Everything up to [upto] is delivered at the far side.  Progress
   resets the backoff and re-arms the timer for what is left; an
   emptied window parks it. *)
let on_ack t ~at ~from upto =
  match Hashtbl.find_opt t.conns (conn_key at from) with
  | None -> ()
  | Some c -> (
      match c.unacked with
      | m :: _ when m.Message.seq <= upto ->
          c.unacked <-
            List.filter (fun (m : Message.t) -> m.Message.seq > upto) c.unacked;
          c.attempt <- 0;
          if c.unacked = [] then begin
            c.cancel_rto ();
            c.cancel_rto <- ignore
          end
          else arm_rto t c
      | _ -> ())

(* --- receiver ----------------------------------------------------- *)

(* Owe the sender an acknowledgement.  With no delay configured a
   standalone cumulative ack leaves immediately; otherwise a single
   timer is armed (re-arming would starve the sender under a steady
   stream) and cancelled if reverse traffic piggybacks first. *)
let schedule_ack t c =
  if t.ack_delay_ms <= 0.0 then send_ack t c
  else if not c.ack_due then begin
    c.ack_due <- true;
    c.cancel_ack <-
      Sim.after_cancellable t.sim ~peer:c.src ~delay_ms:t.ack_delay_ms
        (fun () -> on_timer t c Delayed_ack)
  end

let count_dup t c =
  t.dup_suppressed <- t.dup_suppressed + 1;
  count ~peer:c.src "dup_suppressed"

let rec deliver_in_order ~deliver c (msg : Message.t) =
  let seq = msg.Message.seq in
  c.next_expected <- seq + 1;
  deliver ~src:c.dst msg;
  match Hashtbl.find_opt c.buffer (seq + 1) with
  | Some next ->
      Hashtbl.remove c.buffer (seq + 1);
      deliver_in_order ~deliver c next
  | None -> ()

(* Sequenced messages reach the application exactly once and in send
   order: early arrivals wait in the (volatile) buffer, duplicates are
   suppressed, and an ack is owed only once a message is actually
   delivered — never for a merely buffered one, so a crash that wipes
   the buffer cannot lose anything the sender believes delivered. *)
let receive t ~deliver c (msg : Message.t) =
  let seq = msg.Message.seq in
  if seq < c.next_expected then begin
    (* Already delivered — a go-back-N re-ship or a lost ack.  Owe a
       (cumulative) re-ack so the sender's window drains. *)
    count_dup t c;
    schedule_ack t c
  end
  else if seq > c.next_expected then begin
    if Hashtbl.mem c.buffer seq then count_dup t c
    else Hashtbl.replace c.buffer seq msg
  end
  else begin
    deliver_in_order ~deliver c msg;
    schedule_ack t c
  end

let on_frame t ~deliver ~at ~src (msg : Message.t) =
  match msg.Message.payload with
  | Message.Batch { items; ack } ->
      if ack > 0 then on_ack t ~at ~from:src ack;
      let c = conn t at src in
      List.iter (fun item -> receive t ~deliver c (Message.item_message item)) items
  | Message.Ack { seq } -> on_ack t ~at ~from:src seq
  | _ -> deliver ~src msg

(* --- crash and restart -------------------------------------------- *)

let on_crash t p =
  iter_roles t p (fun c ->
      c.flush_pending <- false;
      c.attempt <- 0;
      c.cancel_rto ();
      c.cancel_rto <- ignore;
      Hashtbl.reset c.buffer;
      c.ack_due <- false;
      c.cancel_ack ();
      c.cancel_ack <- ignore)

(* The log's messages keep their sequence numbers, which the peer's
   correspondents still await (or have already delivered, in which
   case the re-ship is suppressed as a duplicate and re-acked). *)
let on_restart t p =
  iter_roles t p (fun c ->
      let log = c.unacked @ List.rev c.queue in
      c.unacked <- [];
      c.queue <- [];
      if log <> [] then ship t c log)
