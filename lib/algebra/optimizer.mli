(** Plan optimizer.

    Searches the space of equivalent expressions generated by
    {!module:Rewrite} for a plan with minimal estimated {!module:Cost}.
    Two strategies:

    - {!Best_first}: cheapest-first expansion on a priority queue of
      unexpanded plans, bounded by an expansion budget — the search the
      runtime plans with ([Exec.default_strategy] in the runtime);
    - {!Exhaustive}: breadth-first closure of the rewrite relation up
      to a depth bound; optimal within the bound, exponential in it —
      the oracle tests and benchmarks compare against.

    Both hash-cons the plans they meet.  Within one search every node
    of every candidate is interned into a canonical node, keyed by its
    node-local hash ({!Expr.local_hash}) and its children's canonical
    ids and compared by {!Expr.equal_local}, so two subtrees share a
    canonical node iff they are {!Expr.equal}.  A canonical node
    carries its {!Cost.t} per driving peer and its serialized size,
    each computed once per search by {!Cost.step} and
    {!Expr_xml.node_size}; query texts are computed once per AST.  A
    rewrite changes one position of its parent plan, so a candidate
    pays only for the nodes on the rewritten path.  The visited set is
    a set of interned plan-root ids.  Plans, costs, counts and traces
    are those of costing every candidate from scratch
    ([test/test_planner.ml] keeps that search as the oracle). *)

type strategy =
  | Exhaustive of { depth : int }
  | Best_first of { max_expansions : int }
      (** Expand at most [max_expansions] plans, always the cheapest
          unexpanded one first. *)

type step = { rule : string; cost : Cost.t }

type result = {
  plan : Expr.t;  (** Best plan found. *)
  cost : Cost.t;  (** Its estimated cost. *)
  initial_cost : Cost.t;
  explored : int;  (** Plans examined. *)
  expansions : int;  (** Plans whose rewrites were generated. *)
  trace : step list;  (** Rules on the path from input to best plan. *)
}

val strategy_name : strategy -> string
(** Short human/machine-readable tag, e.g. ["best-first(expansions=64)"]. *)

val optimize :
  env:Cost.env ->
  ctx:Expr.Peer_id.t ->
  ?objective:(Cost.t -> float) ->
  ?peers:Expr.Peer_id.t list ->
  strategy ->
  Expr.t ->
  result
(** [optimize ~env ~ctx strategy e] searches from [e], driven from
    peer [ctx].  [objective] defaults to {!Cost.weighted}; [peers]
    defaults to the topology's peer list (the candidate delegates and
    relays).

    Auxiliary names introduced by rewrites (rules (10), (13)) are
    derived from the rewritten expression's fingerprint, so the same
    rewrite path yields the same plan under every strategy — plans are
    reproducible across strategies and runs. *)

val pp_result : Format.formatter -> result -> unit
