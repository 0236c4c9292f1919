(* The unified planner: fingerprint soundness, the interned search
   against a linear-scan closure oracle and against the reference
   search (every candidate costed from scratch), cross-strategy
   agreement, reproducibility, and the planner's two-layer (rewrite
   search + per-site query optimization) pipeline. *)

open Axml
open Helpers
module Expr = Algebra.Expr
module Optimizer = Algebra.Optimizer
module Planner = Algebra.Planner

let p1 = peer "p1"
let p2 = peer "p2"
let p3 = peer "p3"
let all_peers = [ p1; p2; p3 ]
let topo = mesh ~latency:10.0 ~bandwidth:100.0 [ "p1"; "p2"; "p3" ]

(* Large documents make delegation/pushing clearly profitable, so the
   strategies have something to disagree about. *)
let env = Algebra.Cost.default_env ~doc_bytes:(fun _ -> 60_000) topo
let sel_query = Workload.Xml_gen.selection_query ()

let join_query =
  query "query(2) for $a in $0, $b in $1 return <pair>{$a}{$b}</pair>"

let fixtures =
  [
    ("select", Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "cat" ~at:"p2" ]);
    ( "self-join",
      Expr.query_at join_query ~at:p1
        ~args:[ Expr.doc "cat" ~at:"p2"; Expr.doc "cat" ~at:"p2" ] );
    ( "join-2-peers",
      Expr.query_at join_query ~at:p1
        ~args:[ Expr.doc "cat" ~at:"p2"; Expr.doc "cat" ~at:"p3" ] );
  ]

(* The E15 fixtures (bench/experiments.ml): its self-join reads one
   fetched copy twice, so rule (13) has a transfer to share. *)
let e15_fixtures =
  let join =
    query
      {|query(2) for $x in $0//item, $y in $1//item
        where attr($x, "category") = "wanted" and attr($y, "category") = "wanted"
        return <pair/>|}
  in
  let fetch = Expr.send_to_peer p1 (Expr.doc "cat" ~at:"p2") in
  [
    ("select", Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "cat" ~at:"p2" ]);
    ("self-join", Expr.query_at join ~at:p1 ~args:[ fetch; fetch ]);
    ( "join-2-peers",
      Expr.query_at join ~at:p1
        ~args:[ Expr.doc "cat" ~at:"p2"; Expr.doc "cat" ~at:"p3" ] );
  ]

let run strategy plan = Optimizer.optimize ~env ~ctx:p1 strategy plan

let weight (r : Optimizer.result) = Algebra.Cost.weighted r.cost

(* --- fingerprint soundness -------------------------------------- *)

(* Two structurally equal expressions must have equal fingerprints,
   even when their embedded trees carry different node identifiers
   (Expr.equal compares forests canonically). *)
let test_fingerprint_node_id_blind () =
  let forest ns =
    let rng = Workload.Rng.create ~seed:7 in
    [
      Workload.Xml_gen.catalog
        ~gen:(Xml.Node_id.Gen.create ~namespace:ns)
        ~rng ~items:12 ~selectivity:0.25 ();
    ]
  in
  let e ns = Expr.Data_at { forest = forest ns; at = p1 } in
  let a = e "nsA" and b = e "nsB" in
  Alcotest.(check bool) "expressions equal" true (Expr.equal a b);
  Alcotest.(check bool) "fingerprints equal" true
    (Expr.Fingerprint.equal (Expr.fingerprint a) (Expr.fingerprint b))

(* Over random plans and all their rewrites: Expr.equal a b implies
   Fingerprint.equal (the visited table's correctness condition).
   Reuses the rules-preservation plan generator. *)
let fingerprint_soundness seed =
  let rng = Workload.Rng.create ~seed in
  let plan = Test_rules_random.random_plan rng in
  let n = ref 0 in
  let fresh () =
    incr n;
    Printf.sprintf "_tmp_fp%d" !n
  in
  let pool =
    plan
    :: List.map
         (fun (r : Algebra.Rewrite.rewrite) -> r.result)
         (Algebra.Rewrite.everywhere ~peers:all_peers ~fresh plan)
  in
  List.for_all
    (fun a ->
      List.for_all
        (fun b ->
          (not (Expr.equal a b))
          || Expr.Fingerprint.equal (Expr.fingerprint a) (Expr.fingerprint b))
        pool)
    pool

let fingerprint_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30
       ~name:"Expr.equal implies Fingerprint.equal (plans and rewrites)"
       (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
       fingerprint_soundness)

(* --- the interned search against a linear-scan oracle ------------- *)

(* Auxiliary names as the optimizer mints them (Optimizer.fresh_for):
   derived from the rewritten plan's fingerprint, so the oracle below
   reaches the very plans the search does. *)
let fresh_for parent =
  let h = (Expr.fingerprint parent).Expr.Fingerprint.hash land 0xFFFFFF in
  let k = ref 0 in
  fun () ->
    incr k;
    Printf.sprintf "_tmp_s%06x_%d" h !k

let expand e =
  Algebra.Rewrite.everywhere ~peers:all_peers ~fresh:(fresh_for e) e

(* Every plan within [depth] rewrites of [plan], repeats included. *)
let rec rewrite_closure ~depth plan =
  if depth = 0 then [ plan ]
  else
    plan
    :: List.concat_map
         (fun (r : Algebra.Rewrite.rewrite) ->
           rewrite_closure ~depth:(depth - 1) r.result)
         (expand plan)

(* The depth-bounded rewrite closure, deduplicated by a linear
   [Expr.equal] scan over every plan seen so far (the seed's O(n²)
   visited list): the number of distinct plans, and the first cheapest
   plan with its weighted cost.  Levels are walked in the optimizer's
   order (each level's plans in reverse discovery order), so cost ties
   resolve to the same plan. *)
let linear_closure ~depth plan =
  let cost e = Algebra.Cost.weighted (Algebra.Cost.of_expr env ~ctx:p1 e) in
  let seen = ref [ plan ] in
  let best = ref (plan, cost plan) in
  let frontier = ref [ plan ] in
  for _ = 1 to depth do
    let next = ref [] in
    List.iter
      (fun e ->
        List.iter
          (fun (r : Algebra.Rewrite.rewrite) ->
            if not (List.exists (Expr.equal r.result) !seen) then begin
              seen := r.result :: !seen;
              let c = cost r.result in
              if c < snd !best then best := (r.result, c);
              next := r.result :: !next
            end)
          (expand e))
      !frontier;
    frontier := !next
  done;
  (List.length !seen, fst !best, snd !best)

(* Interning must be a pure speedup over the linear scan:
   same plan set, same best cost, strictly fewer structural
   comparisons. *)
let test_fingerprint_memo_ablation () =
  List.iter
    (fun (name, plan) ->
      let equal_calls f =
        let before = Expr.equal_calls () in
        let r = f () in
        (r, Expr.equal_calls () - before)
      in
      let (explored, best_plan, best), list_calls =
        equal_calls (fun () -> linear_closure ~depth:2 plan)
      in
      let by_table, table_calls =
        equal_calls (fun () -> run (Optimizer.Exhaustive { depth = 2 }) plan)
      in
      Alcotest.(check int)
        (name ^ ": same number of plans explored")
        explored by_table.explored;
      Alcotest.(check (float 1e-9)) (name ^ ": same best cost") best
        (weight by_table);
      Alcotest.(check bool)
        (name ^ ": plans structurally equal")
        true
        (Expr.equal best_plan by_table.plan);
      Alcotest.(check bool)
        (Printf.sprintf "%s: fewer Expr.equal calls (%d < %d)" name table_calls
           list_calls)
        true (table_calls < list_calls))
    fixtures

(* --- the interned search against the reference search ------------ *)

(* The search as it ran before plan nodes were interned, kept as the
   oracle: every candidate costed from scratch by [Cost.of_expr],
   duplicates found by fingerprint bucket plus a full [Expr.equal].
   Same expansion order, same plateau slack, same tie-breaking. *)
let reference_search ~env ~ctx strategy expr : Optimizer.result =
  let peers = Net.Topology.peers env.Algebra.Cost.topology in
  let objective = Algebra.Cost.weighted in
  let cost_of e = Algebra.Cost.of_expr env ~ctx e in
  let seen = Hashtbl.create 64 in
  let add e =
    let fp = Expr.fingerprint e in
    let bucket =
      Option.value ~default:[] (Hashtbl.find_opt seen fp.Expr.Fingerprint.hash)
    in
    if
      List.exists
        (fun (fp', e') -> Expr.Fingerprint.equal fp fp' && Expr.equal e e')
        bucket
    then false
    else begin
      Hashtbl.replace seen fp.Expr.Fingerprint.hash ((fp, e) :: bucket);
      true
    end
  in
  let initial_cost = cost_of expr in
  ignore (add expr);
  let explored = ref 1 and expansions = ref 0 in
  let expand e =
    incr expansions;
    Algebra.Rewrite.everywhere ~peers ~fresh:(fresh_for e) e
  in
  let best = ref (expr, initial_cost, []) in
  let consider (r : Algebra.Rewrite.rewrite) rev_path k =
    if add r.result then begin
      incr explored;
      let c = cost_of r.result in
      let rev_path = { Optimizer.rule = r.rule; cost = c } :: rev_path in
      let _, best_c, _ = !best in
      if objective c < objective best_c then best := (r.result, c, rev_path);
      k c rev_path
    end
  in
  (match strategy with
  | Optimizer.Exhaustive { depth } ->
      let frontier = ref [ (expr, []) ] in
      for _ = 1 to depth do
        let next = ref [] in
        List.iter
          (fun (e, rev_path) ->
            List.iter
              (fun (r : Algebra.Rewrite.rewrite) ->
                consider r rev_path (fun _ rev_path ->
                    next := (r.result, rev_path) :: !next))
              (expand e))
          !frontier;
        frontier := !next
      done
  | Optimizer.Best_first { max_expansions } ->
      let plateau_limit = 4 in
      let queue = Net.Pqueue.create () in
      Net.Pqueue.push queue ~time:(objective initial_cost)
        (expr, initial_cost, [], plateau_limit);
      let continue = ref true in
      while !continue && !expansions < max_expansions do
        match Net.Pqueue.pop queue with
        | None -> continue := false
        | Some (_, (e, e_cost, rev_path, slack)) ->
            List.iter
              (fun (r : Algebra.Rewrite.rewrite) ->
                consider r rev_path (fun c rev_path ->
                    let slack =
                      if objective c < objective e_cost then plateau_limit
                      else slack - 1
                    in
                    if slack >= 0 then
                      Net.Pqueue.push queue ~time:(objective c)
                        (r.result, c, rev_path, slack)))
              (expand e)
      done);
  let plan, cost, rev_path = !best in
  {
    plan;
    cost;
    initial_cost;
    explored = !explored;
    expansions = !expansions;
    trace = List.rev rev_path;
  }

(* Bit-for-bit: the interned search must not perturb a single float. *)
let same_cost (a : Algebra.Cost.t) (b : Algebra.Cost.t) =
  a.bytes = b.bytes && a.messages = b.messages
  && Int64.equal
       (Int64.bits_of_float a.latency_ms)
       (Int64.bits_of_float b.latency_ms)
  && a.result_bytes = b.result_bytes

let matches_reference ~env strategy plan =
  let got = Optimizer.optimize ~env ~ctx:p1 strategy plan in
  let want = reference_search ~env ~ctx:p1 strategy plan in
  Expr.equal got.plan want.plan
  && same_cost got.cost want.cost
  && same_cost got.initial_cost want.initial_cost
  && got.explored = want.explored
  && got.expansions = want.expansions
  && List.equal
       (fun (a : Optimizer.step) (b : Optimizer.step) ->
         String.equal a.rule b.rule && same_cost a.cost b.cost)
       got.trace want.trace

let oracle_strategies =
  [
    Optimizer.Exhaustive { depth = 2 };
    Optimizer.Best_first { max_expansions = 8 };
    Optimizer.Best_first { max_expansions = 32 };
  ]

let test_reference_fixtures () =
  List.iter
    (fun (name, plan) ->
      List.iter
        (fun strategy ->
          Alcotest.(check bool)
            (Printf.sprintf "%s, %s: same plan, cost, counts and trace" name
               (Optimizer.strategy_name strategy))
            true
            (matches_reference ~env strategy plan))
        oracle_strategies)
    (e15_fixtures @ fixtures)

(* The rules-preservation plan family, costed against its live system
   (document statistics, a declarative service): the stats-based
   output estimates and service lookups go through the memo too. *)
let reference_random seed =
  let rng = Workload.Rng.create ~seed in
  let plan = Test_rules_random.random_plan rng in
  let env = Runtime.System.cost_env (Test_rules_random.build_system seed) in
  List.for_all (fun strategy -> matches_reference ~env strategy plan)
    oracle_strategies

let reference_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25
       ~name:"interned search = reference search (random plans)"
       (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
       reference_random)

(* --- cross-strategy agreement ------------------------------------ *)

(* Steepest descent — apply the single rewrite that most improves the
   weighted cost until none does: the local-search baseline best-first
   has to beat. *)
let hill_climb ~max_steps plan =
  let cost e = Algebra.Cost.weighted (Algebra.Cost.of_expr env ~ctx:p1 e) in
  let rec descend e c steps =
    if steps >= max_steps then c
    else
      let next =
        List.fold_left
          (fun acc (r : Algebra.Rewrite.rewrite) ->
            let c' = cost r.result in
            match acc with
            | Some (_, best) when c' >= best -> acc
            | _ when c' < c -> Some (r.result, c')
            | _ -> acc)
          None (expand e)
      in
      match next with None -> c | Some (e', c') -> descend e' c' (steps + 1)
  in
  descend plan (cost plan) 0

let test_strategies_agree () =
  List.iter
    (fun (name, plan) ->
      let exhaustive = run (Optimizer.Exhaustive { depth = 2 }) plan in
      let best_first = run (Optimizer.Best_first { max_expansions = 8 }) plan in
      Alcotest.(check bool)
        (name ^ ": best-first never costlier than steepest descent")
        true
        (weight best_first <= hill_climb ~max_steps:4 plan +. 1e-9);
      Alcotest.(check (float 1e-9))
        (name ^ ": best-first matches exhaustive at depth 2")
        (weight exhaustive) (weight best_first))
    fixtures

(* The select fixture needs an uphill step (push the selection, then
   delegate): steepest descent stalls in a local optimum there, and
   best-first's plateau-slack must climb out of it within a small
   budget. *)
let test_best_first_escapes_local_optimum () =
  let plan = List.assoc "select" fixtures in
  let best_first = run (Optimizer.Best_first { max_expansions = 8 }) plan in
  Alcotest.(check bool) "greedy is stuck" true
    (hill_climb ~max_steps:8 plan > weight best_first)

(* Deterministic fresh names (derived from the parent plan's
   fingerprint) make every strategy rebuild the identical best plan,
   and make re-runs reproducible. *)
let test_reproducible_plans () =
  List.iter
    (fun (name, plan) ->
      let a = run (Optimizer.Best_first { max_expansions = 8 }) plan in
      let b = run (Optimizer.Best_first { max_expansions = 8 }) plan in
      Alcotest.(check bool) (name ^ ": re-run returns the same plan") true
        (Expr.equal a.plan b.plan);
      Alcotest.(check (list string))
        (name ^ ": re-run returns the same trace")
        (List.map (fun (s : Optimizer.step) -> s.rule) a.trace)
        (List.map (fun (s : Optimizer.step) -> s.rule) b.trace);
      let exhaustive = run (Optimizer.Exhaustive { depth = 2 }) plan in
      Alcotest.(check bool)
        (name ^ ": exhaustive rebuilds the same best plan")
        true
        (Expr.equal a.plan exhaustive.plan))
    fixtures

(* --- map_children traversal order -------------------------------- *)

(* Regression: map_children must visit Shared's children in
   subexpressions order ([value; body]).  Record fields evaluate
   right-to-left, which used to swap the two slots for a stateful
   function — Rewrite.everywhere then rebuilt rewrites of the value
   into the body slot, silently deleting the query. *)
let test_map_children_order () =
  let value = Expr.doc "cat" ~at:"p2" in
  let body = Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc "shared" ~at:"p2" ] in
  let shared =
    Expr.Shared
      { name = Doc.Names.Doc_name.of_string "shared"; at = p2; value; body }
  in
  let seen = ref [] in
  ignore
    (Expr.map_children
       (fun c ->
         seen := c :: !seen;
         c)
       shared);
  Alcotest.(check int) "two children" 2 (List.length !seen);
  (match List.rev !seen with
  | [ first; second ] ->
      Alcotest.(check bool) "value visited first" true (Expr.equal first value);
      Alcotest.(check bool) "body visited second" true (Expr.equal second body)
  | _ -> Alcotest.fail "expected two children");
  (* Positional replacement of child 0 must land in the value slot. *)
  let replacement = Expr.doc "other" ~at:"p3" in
  let j = ref (-1) in
  match
    Expr.map_children
      (fun k ->
        incr j;
        if !j = 0 then replacement else k)
      shared
  with
  | Expr.Shared { value = v; body = b; _ } ->
      Alcotest.(check bool) "value replaced" true (Expr.equal v replacement);
      Alcotest.(check bool) "body intact" true (Expr.equal b body)
  | _ -> Alcotest.fail "still a Shared node"

(* --- the unified planner ----------------------------------------- *)

let test_planner_end_to_end () =
  let plan = List.assoc "select" fixtures in
  let r =
    Planner.plan ~env ~ctx:p1 (Optimizer.Best_first { max_expansions = 8 }) plan
  in
  Alcotest.(check bool) "improves on the naive plan" true
    (Algebra.Cost.weighted r.cost
    < Algebra.Cost.weighted r.search.Optimizer.initial_cost);
  Alcotest.(check bool) "counts structural comparisons" true (r.equal_calls > 0);
  Alcotest.(check string) "names its strategy" "best-first(expansions=8)"
    r.strategy;
  let json = Planner.explain_json r in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (Printf.sprintf "explain JSON mentions %S" key)
        true
        (contains (Printf.sprintf "%S" key) json))
    [ "strategy"; "initial_cost"; "final_cost"; "trace"; "queries_optimized" ]

(* Document names are user data: a name carrying bytes >= 0x7F must
   come out of explain --json escaped, the record pure ASCII and
   well-formed, the name intact once decoded. *)
let test_explain_json_escapes_names () =
  let name = "caf\xff" in
  let plan = Expr.query_at sel_query ~at:p1 ~args:[ Expr.doc name ~at:"p2" ] in
  let r =
    Planner.plan ~env ~ctx:p1 (Optimizer.Best_first { max_expansions = 8 }) plan
  in
  let json = Planner.explain_json r in
  Alcotest.(check bool) "pure ASCII" true
    (String.for_all (fun c -> Char.code c < 0x7F) json);
  match Test_obs.Json.parse json with
  | Test_obs.Json.Obj fields -> (
      match List.assoc_opt "plan" fields with
      | Some (Test_obs.Json.Str text) ->
          Alcotest.(check string) "plan text decodes to the plan"
            (Expr.to_string r.plan) text
      | _ -> Alcotest.fail "no plan string")
  | _ -> Alcotest.fail "not a JSON object"
  | exception Test_obs.Json.Bad msg -> Alcotest.failf "malformed JSON: %s" msg

let test_planner_execution_correct () =
  (* The planner's chosen plan must produce the naive plan's answers
     on a live system, with less traffic. *)
  let build () =
    let sys = Runtime.System.create topo in
    let rng = Workload.Rng.create ~seed:21 in
    let g = Runtime.System.gen_of sys p2 in
    Runtime.System.add_document sys p2 ~name:"cat"
      (Workload.Xml_gen.catalog ~gen:g ~rng ~items:120 ~selectivity:0.1 ());
    sys
  in
  let naive = List.assoc "select" fixtures in
  let reference = Runtime.Exec.run_to_quiescence (build ()) ~ctx:p1 naive in
  let planned, outcome =
    Runtime.Exec.run_optimized (build ()) ~ctx:p1
      ~strategy:(Optimizer.Best_first { max_expansions = 8 })
      naive
  in
  Alcotest.(check bool) "same answers" true
    (Xml.Canonical.equal_forest reference.results outcome.results);
  Alcotest.(check bool) "fewer bytes on the wire" true
    (outcome.stats.bytes < reference.stats.bytes);
  Alcotest.(check bool) "planner reports an improvement" true
    (Algebra.Cost.weighted planned.Planner.cost
    < Algebra.Cost.weighted planned.Planner.search.Optimizer.initial_cost)

(* Regression: a query applied through an unresolved generic service
   (svc\@any) lives nowhere yet.  Costing it used to look up a link to
   a pseudo-peer and raise [Not_found] out of [Cost.of_expr],
   [Planner.plan] and [Exec.run_optimized]; the applying peer resolves
   it, so it is charged as local there, like an sc at any. *)
let test_generic_service_costs_locally () =
  let topo2 = mesh ~latency:10.0 ~bandwidth:100.0 [ "p1"; "p2" ] in
  let env2 = Algebra.Cost.default_env ~doc_bytes:(fun _ -> 60_000) topo2 in
  let apply svc =
    Expr.Query_app
      { query = Expr.Q_service svc; args = [ Expr.doc "cat" ~at:"p2" ]; at = p1 }
  in
  let generic = apply (Doc.Names.Service_ref.any "wanted") in
  let local = apply (Doc.Names.Service_ref.at_peer "wanted" ~peer:"p1") in
  Alcotest.(check bool) "costed as if the applying peer held it" true
    (same_cost
       (Algebra.Cost.of_expr env2 ~ctx:p1 generic)
       (Algebra.Cost.of_expr env2 ~ctx:p1 local));
  let planned =
    Planner.plan ~env:env2 ~ctx:p1
      (Optimizer.Best_first { max_expansions = 8 })
      generic
  in
  Alcotest.(check bool) "the planner searches it" true
    (planned.search.Optimizer.explored >= 1);
  let sys = Runtime.System.create topo2 in
  let rng = Workload.Rng.create ~seed:3 in
  Runtime.System.add_document sys p2 ~name:"cat"
    (Workload.Xml_gen.catalog ~gen:(Runtime.System.gen_of sys p2) ~rng
       ~items:20 ~selectivity:0.2 ());
  let _, outcome = Runtime.Exec.run_optimized sys ~ctx:p1 generic in
  Alcotest.(check bool) "run_optimized executes it" true
    (outcome.Runtime.Exec.termination = `Quiescent)

let suite =
  [
    ("fingerprints are node-id blind", `Quick, test_fingerprint_node_id_blind);
    fingerprint_prop;
    ("fingerprint memo: same plans, fewer comparisons", `Quick,
     test_fingerprint_memo_ablation);
    ("strategies agree on the fixtures", `Quick, test_strategies_agree);
    ("best-first escapes greedy's local optimum", `Quick,
     test_best_first_escapes_local_optimum);
    ("plans are reproducible across runs and strategies", `Quick,
     test_reproducible_plans);
    ("map_children visits Shared children in order", `Quick,
     test_map_children_order);
    ("planner end to end", `Quick, test_planner_end_to_end);
    ("explain JSON escapes non-ASCII names", `Quick,
     test_explain_json_escapes_names);
    ("planned execution stays correct", `Quick, test_planner_execution_correct);
    ("interned search = reference search (E15 fixtures)", `Quick,
     test_reference_fixtures);
    reference_prop;
    ("svc@any is costed at the applying peer", `Quick,
     test_generic_service_costs_locally);
  ]
