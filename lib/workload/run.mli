(** One run harness for the scenario workloads.

    Bench E20–E24 and [axmlctl scale], [place], [cache] and [top] all
    run one of three scenarios — the flash crowd, the hotspot and the
    overlapping subscriptions of {!Scenarios} — and measure the run
    the same way.  A {!spec} names the scenario shape, the seed and
    the observability state; {!exec} builds the scenario, applies the
    one event budget, GC policy and obs set-up, runs the measurement
    bracket around {!Axml_peer.System.run} and returns a {!result}
    record the front ends render.  DESIGN.md "Run harness". *)

module Peer_id = Axml_net.Peer_id
module System = Axml_peer.System

(** {1 Specs} *)

type shape =
  | Crowd of {
      mirrors : int;
      subscribers : int;
      requests : int;  (** Per subscriber. *)
      transport : System.transport;
      wire : System.wire;
      flush_ms : float;
      ack_delay_ms : float;
    }
      (** {!Scenarios.flash_crowd}: one publisher, [mirrors] mirrors,
          [subscribers] closed-loop clients. *)
  | Hotspot of {
      owners : int;
      spares : int;
      readers : int;
      docs : int;
      reads : int;  (** Per reader. *)
      appends : int;  (** Per hot document. *)
      append_every_ms : float;
      payload_bytes : int;
      wire : System.wire;
      adaptive : bool;
          (** Load-steered picks plus the placement controller
              ({!placement_config}) on a 10 ms timeseries. *)
      chaos : bool;  (** Failover plus {!chaos_plan}. *)
    }
      (** {!Scenarios.hotspot}: 10 % of the documents draw 90 % of the
          reads; think 2 ms, arrivals over 100 ms, 3 cpu-ms/KB. *)
  | Overlap of {
      sources : int;
      subscribers : int;
      queries : int;  (** Per subscriber slate. *)
      rounds : int;
      overlap_pct : float;
      items : int;  (** Items per source catalog. *)
      cache : bool;
    }  (** {!Scenarios.overlap}. *)

type obs = {
  metrics : bool;  (** {!Axml_obs.Metrics.default} on. *)
  window_ms : float option;
      (** {!Axml_obs.Timeseries.default} on at this window width. *)
  keep_one_in : int;
      (** Trace head sampling, seeded with the spec seed; 0 turns
          tracing off. *)
}

val obs_off : obs

type spec = { shape : shape; seed : int; obs : obs }

val validate : spec -> (unit, string) result
(** Every shape check the front ends make: a crowd needs a mirror,
    counts must be positive, the overlap a fraction, the timeseries
    window positive.  The message is fit to print after ["error: "]. *)

(** {1 The hotspot constants} *)

val placement_config :
  storage:Peer_id.t list -> seed:int -> Axml_peer.Placement.config
(** The adaptive arm's controller: 20 ms ticks over 3 windows, hot at
    100 reads/s, two migrations per tick, seed [seed + 99], only
    [storage] peers eligible. *)

val chaos_plan : Scenarios.hotspot -> Axml_net.Fault.plan
(** Drops, duplicates and jitter quiet by 400 ms, a 150 ms partition
    of the first spare, and a crash/restart of the first owner after
    the reads drain (gated by failover). *)

(** {1 Running} *)

(** What a run reports.  It holds no {!System.t}: the renderers read
    per-link traffic from [stats] and per-peer series from the obs
    registries, and a result kept for a table does not keep its
    system's trees alive. *)

type result = {
  outcome : Axml_net.Sim.outcome;
  events : int;
  budget : int;  (** The event budget the run was given. *)
  requests : int;
  completed : int;
  unserved : int;
  stats : Axml_net.Stats.snapshot;
  reliability : System.reliability_counters;
  qcache : Axml_query.Qcache.stats;
  placement : Axml_peer.Placement.t option;
  fingerprint : string;  (** {!System.fingerprint}. *)
  content_fingerprint : string;  (** {!System.content_fingerprint}. *)
  digests : string list;  (** Per-request result digests, sorted. *)
  latencies : float array;  (** Per-request latencies (ms), sorted. *)
  wall_s : float;  (** Processor time inside the bracket. *)
  minor_words : float;  (** Words allocated inside the bracket. *)
  payload_decodes : int;  (** Lazy payload decodes inside the bracket. *)
  spans : int;  (** Trace events recorded. *)
  series : int;  (** Timeseries keys live after the run. *)
  roles : (Peer_id.t * string) list;  (** Every peer with its tier. *)
}

val minor_heap_words : int
(** The nursery {!exec} runs under: 8 M words. *)

val exec : spec -> result
(** Build the scenario and run it to quiescence within a budget of
    [16·requests + 40·peers + 10 000] events, under an 8 M-word minor
    heap (restored afterwards).  The XML size memo is emptied before
    the build and the heap compacted twice before the bracket, so
    repeated runs of one spec in one process allocate the same words
    (the binary-strict wire after a one-time step: its codec pins up
    to 4096 live trees across runs).
    Observability is left as the spec set it, so a front end can read
    the series and the trace afterwards.
    @raise Invalid_argument when {!validate} rejects the spec. *)

val ok : result -> bool
(** Quiescent, every request completed, none unserved. *)

val quantile : float array -> float -> float
(** Nearest-rank quantile of a sorted array; [nan] when empty. *)
