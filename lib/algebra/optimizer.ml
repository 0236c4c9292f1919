module Trace = Axml_obs.Trace
module Metrics = Axml_obs.Metrics

type strategy =
  | Exhaustive of { depth : int }
  | Best_first of { max_expansions : int }

type step = { rule : string; cost : Cost.t }

type result = {
  plan : Expr.t;
  cost : Cost.t;
  initial_cost : Cost.t;
  explored : int;
  expansions : int;
  trace : step list;
}

let strategy_name = function
  | Exhaustive { depth } -> Printf.sprintf "exhaustive(depth=%d)" depth
  | Best_first { max_expansions } ->
      Printf.sprintf "best-first(expansions=%d)" max_expansions

(* Auxiliary materializations introduced by rules (10) and (13) need
   fresh names.  Deriving the name from the *parent* expression's
   fingerprint (rather than a search-global counter) makes the name a
   function of the rewrite performed, not of the order in which the
   search happened to visit plans — so every strategy reconstructs the
   same plan for the same rewrite path, and re-running an optimization
   is reproducible.  The "_tmp" prefix keeps them out of the runtime's
   Σ fingerprint (System.fingerprint). *)
let fresh_for parent =
  let h = (Expr.fingerprint parent).Expr.Fingerprint.hash land 0xFFFFFF in
  let k = ref 0 in
  fun () ->
    incr k;
    Printf.sprintf "_tmp_s%06x_%d" h !k

(* {2 Hash-consed plan nodes}

   Within one search every node of every candidate plan is interned
   into a canonical node, keyed by its node-local hash and its
   children's canonical ids and compared by {!Expr.equal_local}: two
   subtrees share a canonical node iff they are {!Expr.equal}.  A
   canonical node carries what the cost model asks of it, each computed
   once per search — its cost per driving peer and its serialized size
   — and query texts are computed once per AST.  A rewrite changes one
   position of its parent and shares the rest with it physically, so a
   candidate pays for the nodes on the rewritten path only. *)
module Memo = struct
  module Peer_id = Axml_net.Peer_id
  module Ast = Axml_query.Ast

  type node = {
    id : int;
    hash : int;  (* Node-local hash mixed with the children's ids. *)
    expr : Expr.t;  (* The first plan node seen of its class. *)
    kids : node list;  (* Canonical children, in subexpressions order. *)
    mutable bytes : int;  (* Expr_xml.byte_size expr; -1 until asked. *)
    mutable costs : (Peer_id.t * Cost.t) list;  (* Per driving peer. *)
  }

  module Nodes = Hashtbl.Make (struct
    type t = node

    let hash n = n.hash

    let equal a b =
      a.hash = b.hash && List.equal ( == ) a.kids b.kids
      && Expr.equal_local a.expr b.expr
  end)

  module Texts = Hashtbl.Make (struct
    type t = Ast.t

    let hash = Hashtbl.hash
    let equal = Ast.equal
  end)

  type t = {
    nodes : node Nodes.t;
    roots : (int, unit) Hashtbl.t;  (* Ids of the plans visited. *)
    texts : string Texts.t;
    mutable next : int;
  }

  (* Tables above 256 words are allocated straight into the major heap,
     so every search uses this one memo, cleared after it, instead of
     growing a fresh one. *)
  let memo =
    {
      nodes = Nodes.create 1024;
      roots = Hashtbl.create 256;
      texts = Texts.create 16;
      next = 0;
    }

  let with_memo f =
    if memo.next <> 0 then invalid_arg "Optimizer.optimize: nested search";
    Fun.protect
      ~finally:(fun () ->
        Nodes.clear memo.nodes;
        Hashtbl.clear memo.roots;
        Texts.clear memo.texts;
        memo.next <- 0)
      (fun () -> f memo)

  let mix h x = ((h * 0x01000193) lxor x) land max_int

  (* [e]'s subtrees paired with their canonical nodes, [n] being
     [e]'s. *)
  let rec subtrees acc e n =
    List.fold_left2 subtrees ((e, n) :: acc) (Expr.subexpressions e) n.kids

  (* The canonical node of [e].  [shared] pairs subtrees already
     interned with their nodes: a rewrite shares all but the rewritten
     path with its parent plan, physically, so only that path is hashed
     and compared. *)
  let rec intern m ~shared e =
    match List.assq_opt e shared with
    | Some n -> n
    | None -> (
        let kids = List.map (intern m ~shared) (Expr.subexpressions e) in
        let hash =
          List.fold_left (fun h k -> mix h k.id) (Expr.local_hash e) kids
        in
        let probe =
          { id = m.next; hash; expr = e; kids; bytes = -1; costs = [] }
        in
        match Nodes.find_opt m.nodes probe with
        | Some n -> n
        | None ->
            Nodes.add m.nodes probe probe;
            m.next <- m.next + 1;
            probe)

  (* [add_root m n] is true when plan [n] was not visited before (and
     records it). *)
  let add_root m n =
    if Hashtbl.mem m.roots n.id then false
    else begin
      Hashtbl.add m.roots n.id ();
      true
    end

  let text m q =
    match Texts.find_opt m.texts q with
    | Some s -> s
    | None ->
        let s = Ast.to_string q in
        Texts.add m.texts q s;
        s

  (* The canonical node of [e], a direct child of [n.expr] — the cost
     model and the sizer only ever ask about those. *)
  let kid n e =
    let rec find es ks =
      match (es, ks) with
      | e' :: es, k :: ks -> if e' == e then k else find es ks
      | _ -> invalid_arg "Optimizer.Memo.kid: not a child"
    in
    find (Expr.subexpressions n.expr) n.kids

  let rec bytes m n =
    if n.bytes < 0 then
      n.bytes <-
        Expr_xml.node_size
          ~child:(fun e -> bytes m (kid n e))
          ~query_text:(text m) n.expr;
    n.bytes

  let rec cost_from ctx = function
    | [] -> None
    | (p, c) :: costs ->
        if Peer_id.equal p ctx then Some c else cost_from ctx costs

  let rec cost m env ~ctx n =
    match cost_from ctx n.costs with
    | Some c -> c
    | None ->
        let c =
          Cost.step env
            {
              Cost.child = (fun ~ctx e -> cost m env ~ctx (kid n e));
              plan_bytes = (fun e -> bytes m (kid n e));
              query_text = text m;
            }
            ~ctx n.expr
        in
        n.costs <- (ctx, c) :: n.costs;
        c
end

let default_objective c = Cost.weighted c

let optimize ~env ~ctx ?(objective = default_objective) ?peers strategy expr =
  Memo.with_memo @@ fun memo ->
  let peers =
    match peers with
    | Some ps -> ps
    | None -> Axml_net.Topology.peers env.Cost.topology
  in
  (* [Some (node, cost)] for a plan not visited before, [None] for a
     repeat. *)
  let visit ~shared e =
    let n = Memo.intern memo ~shared e in
    if Memo.add_root memo n then Some (n, Memo.cost memo env ~ctx n) else None
  in
  let root, initial_cost = Option.get (visit ~shared:[] expr) in
  let explored = ref 1 in
  let expansions = ref 0 in
  (* The rewrites of visited plan [e] (node [n]), each to be visited
     with [e]'s subtrees as its shared ones. *)
  let expand e n k =
    incr expansions;
    let shared = Memo.subtrees [] e n in
    List.iter
      (fun (r : Rewrite.rewrite) -> k r (visit ~shared r.result))
      (Rewrite.everywhere ~peers ~fresh:(fresh_for e) e)
  in
  (* Paths accumulate reversed (cons per step); reversed once when a
     result is built — the seed's [trace @ [step]] was quadratic. *)
  let finish (plan, cost, rev_trace) =
    let r =
      {
        plan;
        cost;
        initial_cost;
        explored = !explored;
        expansions = !expansions;
        trace = List.rev rev_trace;
      }
    in
    (* Observability: one instant per accepted rewrite step of the
       winning plan, tagged with the rule that produced it (the
       search's causal record, on the planner's wall clock), plus
       search-volume counters. *)
    (if Trace.enabled () then
       let peer = Axml_net.Peer_id.to_string ctx in
       List.iter
         (fun (s : step) ->
           Trace.instant
             ~args:
               [
                 ("cost_bytes", string_of_int s.cost.Cost.bytes);
                 ("cost_messages", string_of_int s.cost.Cost.messages);
               ]
             ~cat:"rewrite" ~peer ~ts:(Trace.wall_ms ()) s.rule)
         r.trace);
    if Metrics.is_on Metrics.default then begin
      let peer = Axml_net.Peer_id.to_string ctx in
      Metrics.incr Metrics.default ~peer ~by:r.explored ~subsystem:"plan"
        "explored";
      Metrics.incr Metrics.default ~peer ~by:r.expansions ~subsystem:"plan"
        "expansions";
      Metrics.incr Metrics.default ~peer ~by:(List.length r.trace)
        ~subsystem:"plan" "rewrite_steps"
    end;
    r
  in
  match strategy with
  | Exhaustive { depth } ->
      (* Breadth-first enumeration of the rewrite closure; remember
         the cheapest plan and the rule path that produced it. *)
      let best = ref (expr, initial_cost, []) in
      let frontier = ref [ (expr, root, []) ] in
      let level = ref 0 in
      while !level < depth && !frontier <> [] do
        incr level;
        let next_frontier = ref [] in
        List.iter
          (fun (e, n, rev_path) ->
            expand e n (fun r -> function
              | None -> ()
              | Some (n, c) ->
                  incr explored;
                  let rev_path = { rule = r.rule; cost = c } :: rev_path in
                  let _, best_c, _ = !best in
                  if objective c < objective best_c then
                    best := (r.result, c, rev_path);
                  next_frontier := (r.result, n, rev_path) :: !next_frontier))
          !frontier;
        frontier := !next_frontier
      done;
      finish !best
  | Best_first { max_expansions } ->
      (* Cheapest-first search on the cost objective: pop the best
         unexpanded plan, generate its rewrites, push the unseen ones.
         The priority queue is the simulator's pairing heap
         ({!Axml_net.Pqueue}); insertion order breaks objective ties,
         which keeps runs deterministic.

         Pure cheapest-first starves on this rewrite system: rules
         like (14) with the evaluating peer itself are cost-neutral,
         so the closure contains unbounded plateaus at the current
         minimum, and a marginally costlier plan whose children hold
         the real optimum is never popped no matter the budget.  Each
         queue entry therefore carries a slack counter — reset on
         strict improvement over the parent, decremented on plateau or
         uphill steps — and chains that fail to improve for
         [plateau_limit] consecutive steps are not re-enqueued (their
         costs still count toward the best plan found). *)
      let plateau_limit = 4 in
      let queue = Axml_net.Pqueue.create () in
      Axml_net.Pqueue.push queue
        ~time:(objective initial_cost)
        (expr, root, initial_cost, [], plateau_limit);
      let best = ref (expr, initial_cost, []) in
      let continue = ref true in
      while !continue && !expansions < max_expansions do
        match Axml_net.Pqueue.pop queue with
        | None -> continue := false
        | Some (_, (e, n, e_cost, rev_path, slack)) ->
            expand e n (fun r -> function
              | None -> ()
              | Some (n, c) ->
                  incr explored;
                  let rev_path = { rule = r.rule; cost = c } :: rev_path in
                  let _, best_c, _ = !best in
                  if objective c < objective best_c then
                    best := (r.result, c, rev_path);
                  let slack =
                    if objective c < objective e_cost then plateau_limit
                    else slack - 1
                  in
                  if slack >= 0 then
                    Axml_net.Pqueue.push queue ~time:(objective c)
                      (r.result, n, c, rev_path, slack))
      done;
      finish !best

let pp_result fmt r =
  Format.fprintf fmt
    "@[<v>initial: %a@ best:    %a@ explored %d plans (%d expansions), %d \
     rewrite steps@ "
    Cost.pp r.initial_cost Cost.pp r.cost r.explored r.expansions
    (List.length r.trace);
  List.iter
    (fun s -> Format.fprintf fmt "  %s -> %a@ " s.rule Cost.pp s.cost)
    r.trace;
  Format.fprintf fmt "plan: %a@]" Expr.pp r.plan
