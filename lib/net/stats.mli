(** Transfer statistics.

    The quantities the paper's optimizations trade in: messages sent,
    bytes shipped (total and per directed link), and the virtual time
    at which the system went quiescent. *)

type t

type snapshot = {
  messages : int;  (** Physical frames on the wire. *)
  payload_messages : int;
      (** Logical messages carried: a batched frame (see
          {!Axml_peer.Message.Batch}) counts once in [messages] but
          its item count here.  Equal to [messages] when every frame
          carries one message. *)
  bytes : int;
  local_messages : int;  (** Loopback deliveries, not counted in [bytes]. *)
  drops : int;
      (** Messages lost to injected faults: dropped in flight by a
          lossy/cut link, or discarded on arrival at a crashed (or
          handler-less) peer. Not counted in [messages]/[bytes] when
          dropped at send time. *)
  completion_ms : float;  (** Time of the last processed event. *)
  per_link : ((Peer_id.t * Peer_id.t) * (int * int)) list;
      (** (src, dst) -> (messages, bytes), remote links only. *)
}

type trace_entry = {
  at_ms : float;  (** Virtual send time. *)
  src : Peer_id.t;
  dst : Peer_id.t;
  trace_bytes : int;
  note : string;  (** Message kind, e.g. ["invoke find/1"]. *)
}

val create : unit -> t

val record_send :
  ?at_ms:float ->
  ?note:string ->
  ?msgs:int ->
  t ->
  src:Peer_id.t ->
  dst:Peer_id.t ->
  bytes:int ->
  unit
(** [msgs] (default [1]) is the number of logical messages the frame
    carries; it only feeds [payload_messages]. *)

val record_drop : t -> unit
val record_time : t -> float -> unit
val snapshot : t -> snapshot
val reset : t -> unit
(** Clears counters and the trace; tracing stays in its current
    enabled/disabled state. *)

val set_tracing : t -> bool -> unit
(** Record a {!trace_entry} per remote message (off by default; local
    messages are only traced when {!set_trace_local} is also on). *)

val tracing_enabled : t -> bool

val set_trace_local : t -> bool -> unit
(** Also record loopback ([src = dst]) deliveries in the trace while
    tracing is on (off by default).  Local messages never count toward
    [bytes] — but making them visible is what lets rule-(12)
    intermediary elimination show up in a trace instead of silently
    disappearing. *)

val trace_local_enabled : t -> bool

val trace : t -> trace_entry list
(** Recorded entries, oldest first. *)

val pp_snapshot : Format.formatter -> snapshot -> unit
val pp_trace_entry : Format.formatter -> trace_entry -> unit
