(** The reliable transport (DESIGN.md §12–§13).

    One state machine per directed peer pair turns a lossy,
    duplicating, reordering network into exactly-once, in-order
    delivery of sequenced messages.  Every sequenced message rides a
    {!Message.Batch} frame; frames carry a piggybacked cumulative ack
    of the reverse direction, acks are cumulative, and a go-back-N
    window with one retransmission timer per direction re-ships what
    is not yet acknowledged.

    Two parameters shape the same machine:
    - [flush_ms]: [0.0] ships each message in its own frame at send
      time; a positive window holds messages for that long and
      coalesces them into one frame (with within-frame transfer
      sharing, rule (13)).
    - [ack_delay_ms]: [0.0] acks each delivering frame at once; a
      positive delay defers the standalone ack and drops it when
      reverse traffic piggybacks it first.

    Durability (a WAL model): the sequence cursors and the send log —
    every message that has been given a sequence number and is not
    yet acknowledged — survive a crash of their peer, and the log is
    re-shipped on restart.  Receive buffers, owed acks and timers are
    volatile.  The transport schedules its own timers on the
    simulator. *)

module Peer_id = Axml_net.Peer_id

type t

val create :
  sim:Message.t Axml_net.Sim.t ->
  transmit:(src:Peer_id.t -> dst:Peer_id.t -> Message.t -> unit) ->
  rto_ms:float ->
  flush_ms:float ->
  ack_delay_ms:float ->
  t
(** [transmit] puts one physical frame on the network.  [rto_ms] is
    the initial retransmission timeout, doubling per retry up to 32x;
    after 30 retransmissions the window is abandoned. *)

val send :
  t ->
  src:Peer_id.t ->
  dst:Peer_id.t ->
  corr:int ->
  op:int ->
  Message.payload ->
  unit
(** Sequence the payload on [src→dst] and ship it (now, or at the next
    flush). *)

val on_frame :
  t ->
  deliver:(src:Peer_id.t -> Message.t -> unit) ->
  at:Peer_id.t ->
  src:Peer_id.t ->
  Message.t ->
  unit
(** Receive one physical frame at [at].  Acks and batch acks advance
    [at]'s windows; batch items are passed to [deliver] exactly once
    and in sequence order; any other (unsequenced) message goes
    straight to [deliver]. *)

val on_crash : t -> Peer_id.t -> unit
(** Drop the peer's volatile transport state; keep cursors and send
    logs. *)

val on_restart : t -> Peer_id.t -> unit
(** Re-ship every non-empty send log of the restarted peer. *)

type counters = {
  retransmits : int;
  dup_suppressed : int;
  abandoned : int;  (** messages given up after 30 retransmissions *)
  acks_sent : int;
  batches_sent : int;  (** frames shipped, re-ships included *)
  batched_messages : int;
      (** logical messages those frames carried, re-ships included *)
  piggybacked_acks : int;
      (** standalone acks cancelled because a reverse-direction frame
          carried the acknowledgement instead *)
  delayed_acks : int;
      (** standalone acks that did fire after the [ack_delay_ms]
          deferral (also counted in [acks_sent]) *)
  dedup_shared_bytes : int;
      (** bytes saved by within-frame transfer sharing *)
}

val counters : t -> counters
