(* Measurement seams the benchmark wraps around the program's public
   functions: a monotonic clock, an in-memory span recorder and the
   runtime's GC phase events.  Nothing here reaches into lib/; every
   span is opened and closed by benchmark code around a call. *)

let clock_name = "bechamel.monotonic_clock (CLOCK_MONOTONIC, ns)"
let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* --- host-speed calibration ---------------------------------------

   The measuring host's speed drifts by up to 2x within seconds to
   minutes.  A fixed kernel — lookups in a standard-library map, so no
   change to the program can speed it up, and allocation-free, so it
   leaves the program's heap and GC schedule alone — is timed at every
   segment boundary of a run; each segment's wall time is scaled by
   [reference_kernel_s] over the mean kernel time at its two ends.
   Host times are thus reported on a reference host whose speed stays
   put, while any change in the program's own speed still shows. *)

module Int_map = Map.Make (Int)

let kernel_keys = Array.init 40_000 (fun i -> i * 7919 mod 1_000_003)

(* Built by [warm_up], before any set-up, so it sits in the major heap
   as a constant ~2 MB of every run. *)
let kernel_map = ref Int_map.empty

let kernel () =
  let m = !kernel_map in
  let acc = ref 0 in
  Array.iter (fun k -> acc := !acc + Int_map.find k m) kernel_keys;
  ignore (Sys.opaque_identity !acc)

(* Kernel time of the reference host. *)
let reference_kernel_s = 0.006

let kernel_s () =
  let t0 = now_ns () in
  kernel ();
  seconds_since t0

(* A fresh process runs its first passes up to twice as slowly. *)
let warm_up () =
  kernel_map := Array.fold_left (fun m k -> Int_map.add k k m) Int_map.empty kernel_keys;
  Gc.minor ();
  for _ = 1 to 20 do
    kernel ()
  done

(* Wall time split into segments, each scaled to the reference host. *)
type segments = {
  mutable seg_t0 : int64;
  mutable kernel_prev : float;
  mutable wall : float;
  mutable reference : float;
}

let start_segments () =
  let kernel_prev = kernel_s () in
  { seg_t0 = now_ns (); kernel_prev; wall = 0.0; reference = 0.0 }

(* Closes the current segment and opens the next. *)
let boundary s =
  let d = seconds_since s.seg_t0 in
  let k = kernel_s () in
  s.wall <- s.wall +. d;
  s.reference <- s.reference +. (d *. reference_kernel_s /. ((s.kernel_prev +. k) /. 2.0));
  s.kernel_prev <- k;
  s.seg_t0 <- now_ns ()

(* --- spans ------------------------------------------------------- *)

type span = {
  name : string;
  parent : int;  (** Index of the enclosing span, [-1] at top level. *)
  t0 : int64;
  mutable t1 : int64;
}

let enabled = ref false
let dummy = { name = ""; parent = -1; t0 = 0L; t1 = 0L }
let spans = ref (Array.make 1024 dummy)
let count = ref 0
let stack : int list ref = ref []

let reset () =
  spans := Array.make 1024 dummy;
  count := 0;
  stack := []

let enter name =
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  let id = !count in
  if id = Array.length !spans then begin
    let bigger = Array.make (2 * id) dummy in
    Array.blit !spans 0 bigger 0 id;
    spans := bigger
  end;
  !spans.(id) <- { name; parent; t0 = now_ns (); t1 = 0L };
  count := id + 1;
  stack := id :: !stack;
  id

let leave id =
  !spans.(id).t1 <- now_ns ();
  match !stack with
  | top :: rest when top = id -> stack := rest
  | _ -> invalid_arg "Probe.leave: spans closed out of order"

(* [with_span name f] records [f] as a span when tracing is on and is
   a direct call otherwise. *)
let with_span name f =
  if not !enabled then f ()
  else
    let id = enter name in
    match f () with
    | v ->
        leave id;
        v
    | exception e ->
        leave id;
        raise e

let recorded () = Array.sub !spans 0 !count

(* Per span name: (count, self time s).  Self time is a span's
   duration minus the durations of its direct children; a negative
   self time means children were counted twice. *)
let summarize (arr : span array) =
  let dur s = Int64.to_float (Int64.sub s.t1 s.t0) /. 1e9 in
  let child = Array.make (Array.length arr) 0.0 in
  Array.iter
    (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. dur s)
    arr;
  let tbl = Hashtbl.create 8 in
  Array.iteri
    (fun i s ->
      let n, self = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.0) in
      Hashtbl.replace tbl s.name (n + 1, self +. dur s -. child.(i)))
    arr;
  tbl

let write_spans path (arr : span array) =
  let oc = open_out path in
  Array.iteri
    (fun i s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"t0_ns\":%Ld,\"t1_ns\":%Ld}\n" i
        s.parent s.name s.t0 s.t1)
    arr;
  close_out oc

(* --- GC phases --------------------------------------------------- *)

(* Time the runtime spent inside any GC phase, as the union of the
   phase intervals reported by [Runtime_events]: nested phases (a
   major slice inside a minor collection, the sub-phases of either)
   are counted once. *)
module Gc_phases = struct
  let depth = ref 0
  let opened = ref 0L
  let busy_ns = ref 0L
  let lost = ref 0
  let cursor = ref None

  let callbacks =
    let runtime_begin _ ts _phase =
      if !depth = 0 then opened := Runtime_events.Timestamp.to_int64 ts;
      incr depth
    in
    let runtime_end _ ts _phase =
      if !depth > 0 then begin
        decr depth;
        if !depth = 0 then
          busy_ns :=
            Int64.add !busy_ns
              (Int64.sub (Runtime_events.Timestamp.to_int64 ts) !opened)
      end
    in
    let lost_events _ n = lost := !lost + n in
    Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()

  let polling = ref false

  (* Also runs from a GC alarm, which may fire inside a poll. *)
  let poll () =
    match !cursor with
    | Some c when not !polling ->
        polling := true;
        Fun.protect
          ~finally:(fun () -> polling := false)
          (fun () -> ignore (Runtime_events.read_poll c callbacks None))
    | _ -> ()

  (* Starts the event ring (a file in [OCAML_RUNTIME_EVENTS_DIR]) and
     drains it at the end of every major cycle so a long run cannot
     overflow it. *)
  let start () =
    Runtime_events.start ();
    let c = Runtime_events.create_cursor None in
    cursor := Some c;
    poll ();
    depth := 0;
    busy_ns := 0L;
    ignore (Gc.create_alarm poll)

  let reset () =
    poll ();
    busy_ns := 0L

  let busy_s () =
    poll ();
    Int64.to_float !busy_ns /. 1e9

  let lost () = !lost
end
