(* Property-based suites (qcheck, registered through qcheck-alcotest).

   Strategy: properties are parameterized by an integer seed; all
   structured values (trees, queries, streams) are derived
   deterministically from the seed through Workload.Rng, so failures
   reproduce exactly. *)

open Axml
module Rng = Workload.Rng
module Xml_gen = Workload.Xml_gen
module Query_gen = Workload.Query_gen

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000)

let qtest ?(count = 60) name prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name seed_arb prop)

let fresh_gen =
  let n = ref 0 in
  fun () ->
    incr n;
    Xml.Node_id.Gen.create ~namespace:(Printf.sprintf "prop%d" !n)

(* --- XML --- *)

let serialize_parse_roundtrip seed =
  let rng = Rng.create ~seed in
  let g = fresh_gen () in
  let t = Xml_gen.random_tree ~gen:g ~rng () in
  match t with
  | Xml.Tree.Text _ -> true (* bare text does not serialize standalone *)
  | Xml.Tree.Element _ ->
      let s = Xml.Serializer.to_string t in
      let t' = Xml.Parser.parse_exn ~keep_ws:true ~gen:(fresh_gen ()) s in
      Xml.Canonical.equal t t'

(* Serialize → parse → serialize must be byte-stable even on
   adversarial content: control characters and quotes in attribute
   values, carriage returns and markup characters in text, astral-
   plane code points, whitespace-only strings.  The first serialization
   fixes a canonical escaped form; reparsing and reserializing must
   reproduce it exactly (this is what lets serialized forests serve as
   dedup keys in batched transport frames). *)
let adversarial_fragments =
  [|
    "plain"; "two words"; ""; " "; "\n"; "\t"; "\r"; "\r\n"; "&"; "<"; ">";
    "\""; "'"; "&amp;"; "&#10;"; "]]>"; "\xc3\xa9" (* é *);
    "\xf0\x9d\x84\x9e" (* U+1D11E, astral *); "\xe2\x82\xac" (* € *);
    "a\nb\tc\rd"; "  leading and trailing  ";
  |]

let adversarial_string rng =
  String.concat ""
    (List.init (Rng.int rng 4) (fun _ ->
         adversarial_fragments.(Rng.int rng (Array.length adversarial_fragments))))

let rec adversarial_tree rng depth =
  let attrs =
    List.init (Rng.int rng 3) (fun i ->
        (Printf.sprintf "a%d" i, adversarial_string rng))
  in
  let children =
    if depth = 0 then []
    else
      List.init (Rng.int rng 4) (fun _ ->
          if Rng.int rng 3 = 0 then adversarial_tree rng (depth - 1)
          else Xml.Tree.Text (adversarial_string rng))
  in
  Xml.Tree.element_of_string ~attrs ~gen:(fresh_gen ())
    (Rng.pick rng [ "e"; "node"; "x-y"; "ns:tag" ])
    children

let adversarial_roundtrip_byte_stable seed =
  let rng = Rng.create ~seed in
  let t = adversarial_tree rng 3 in
  let s = Xml.Serializer.to_string t in
  let t' = Xml.Parser.parse_exn ~keep_ws:true ~gen:(fresh_gen ()) s in
  String.equal s (Xml.Serializer.to_string t')

(* Permute sibling elements only: element order is semantically free,
   while text segments keep their relative order (they denote one
   concatenated character stream). *)
let rec shuffle_tree rng = function
  | Xml.Tree.Text s -> Xml.Tree.Text s
  | Xml.Tree.Element e ->
      let children = List.map (shuffle_tree rng) e.children in
      let texts = List.filter Xml.Tree.is_text children in
      let elements =
        Rng.shuffle rng (List.filter Xml.Tree.is_element children)
      in
      Xml.Tree.rebuild ~children:(texts @ elements) e

let canonical_invariant_under_permutation seed =
  let rng = Rng.create ~seed in
  let g = fresh_gen () in
  let t = Xml_gen.random_tree ~gen:g ~rng () in
  let shuffled = shuffle_tree (Rng.create ~seed:(seed + 1)) t in
  Xml.Canonical.equal t shuffled

let copy_preserves_canonical seed =
  let rng = Rng.create ~seed in
  let g = fresh_gen () in
  let t = Xml_gen.random_tree ~gen:g ~rng () in
  Xml.Canonical.equal t (Xml.Tree.copy ~gen:(fresh_gen ()) t)

let size_positive_and_additive seed =
  let rng = Rng.create ~seed in
  let g = fresh_gen () in
  let t = Xml_gen.random_tree ~gen:g ~rng () in
  let children_sum =
    List.fold_left (fun acc c -> acc + Xml.Tree.size c) 0 (Xml.Tree.children t)
  in
  Xml.Tree.size t = 1 + children_sum && Xml.Tree.size t > 0

let zipper_roundtrip seed =
  let rng = Rng.create ~seed in
  let g = fresh_gen () in
  let t = Xml_gen.random_tree ~gen:g ~rng () in
  let rec walk z budget =
    if budget = 0 then z
    else
      let moves =
        List.filter_map Fun.id
          [ Xml.Zipper.down z; Xml.Zipper.right z; Xml.Zipper.up z ]
      in
      match moves with
      | [] -> z
      | ms -> walk (Rng.pick rng ms) (budget - 1)
  in
  let z = walk (Xml.Zipper.of_tree t) 10 in
  Xml.Tree.equal_strict (Xml.Zipper.to_tree z) t

(* --- Content models --- *)

let alphabet = [ "a"; "b"; "c" ]

let rec random_model rng depth =
  let module Cm = Schema.Content_model in
  if depth = 0 then Cm.ref_ (Rng.pick rng alphabet)
  else
    match Rng.int rng 6 with
    | 0 -> Cm.seq [ random_model rng (depth - 1); random_model rng (depth - 1) ]
    | 1 -> Cm.alt [ random_model rng (depth - 1); random_model rng (depth - 1) ]
    | 2 -> Cm.star (random_model rng (depth - 1))
    | 3 -> Cm.plus (random_model rng (depth - 1))
    | 4 -> Cm.opt (random_model rng (depth - 1))
    | _ -> Cm.ref_ (Rng.pick rng alphabet)

let cm_matches m items =
  Schema.Content_model.matches_seq
    ~matches:(fun atom item ->
      match atom with
      | Schema.Content_model.Ref s -> s = item
      | Schema.Content_model.Text | Schema.Content_model.Wildcard -> true)
    items m

let nullable_iff_matches_empty seed =
  let rng = Rng.create ~seed in
  let m = random_model rng 3 in
  Schema.Content_model.nullable m = cm_matches m []

let star_closure seed =
  let module Cm = Schema.Content_model in
  let rng = Rng.create ~seed in
  let m = random_model rng 2 in
  let w = List.init (1 + Rng.int rng 3) (fun _ -> Rng.pick rng alphabet) in
  (* If m accepts w, star m accepts w repeated k times. *)
  if cm_matches m w then
    let k = 1 + Rng.int rng 3 in
    cm_matches (Cm.star m) (List.concat (List.init k (fun _ -> w)))
  else true

let seq_concatenation seed =
  let module Cm = Schema.Content_model in
  let rng = Rng.create ~seed in
  let m1 = random_model rng 2 and m2 = random_model rng 2 in
  let w1 = List.init (Rng.int rng 3) (fun _ -> Rng.pick rng alphabet) in
  let w2 = List.init (Rng.int rng 3) (fun _ -> Rng.pick rng alphabet) in
  if cm_matches m1 w1 && cm_matches m2 w2 then
    cm_matches (Cm.seq [ m1; m2 ]) (w1 @ w2)
  else true

(* --- Queries --- *)

let query_roundtrip seed =
  let rng = Rng.create ~seed in
  let q =
    if Rng.bool rng then Query_gen.random_flwr ~rng Query_gen.default_config
    else Query_gen.random_composed ~rng Query_gen.default_config
  in
  let s = Query.Ast.to_string q in
  match Query.Parser.parse s with
  | Ok q' -> Query.Ast.equal q q'
  | Error _ -> false

let query_eval_deterministic seed =
  let rng = Rng.create ~seed in
  let q = Query_gen.random_flwr ~rng Query_gen.default_config in
  let data_rng = Rng.create ~seed:(seed * 3) in
  let input =
    Xml_gen.random_forest ~gen:(fresh_gen ()) ~rng:data_rng ~trees:2 ()
  in
  let out1 = Query.Eval.eval ~gen:(fresh_gen ()) q [ input ] in
  let out2 = Query.Eval.eval ~gen:(fresh_gen ()) q [ input ] in
  Xml.Canonical.equal_forest out1 out2

let push_selection_equivalence seed =
  let rng = Rng.create ~seed in
  let q = Query_gen.random_flwr ~rng Query_gen.default_config in
  match Query.Compose.push_selection q with
  | None -> true
  | Some split ->
      let data_rng = Rng.create ~seed:(seed * 7) in
      let input =
        Xml_gen.random_forest ~gen:(fresh_gen ()) ~rng:data_rng ~trees:2 ()
      in
      let direct = Query.Eval.eval ~gen:(fresh_gen ()) q [ input ] in
      let composed =
        Query.Eval.eval ~gen:(fresh_gen ())
          (Query.Compose.apply_split split)
          [ input ]
      in
      Xml.Canonical.equal_forest direct composed

let incremental_equals_batch seed =
  let rng = Rng.create ~seed in
  let q = Query_gen.random_flwr ~rng Query_gen.default_config in
  let data_rng = Rng.create ~seed:(seed * 13) in
  let stream =
    Xml_gen.random_forest ~gen:(fresh_gen ()) ~rng:data_rng ~trees:4 ()
  in
  let g = fresh_gen () in
  let state = Query.Incremental.create q in
  let deltas =
    List.concat_map
      (fun t -> Query.Incremental.push ~gen:g state ~input:0 t)
      stream
  in
  Xml.Canonical.equal_forest deltas (Query.Incremental.total_output ~gen:g state)

let unfold_preserves_composition seed =
  (* Evaluating a composed query equals evaluating it unfolded by hand
     (rule 11 at the query level). *)
  let rng = Rng.create ~seed in
  let q = Query_gen.random_composed ~rng Query_gen.default_config in
  match q with
  | Query.Ast.Flwr _ -> true
  | Query.Ast.Compose (head, subs) ->
      let data_rng = Rng.create ~seed:(seed * 17) in
      let input =
        Xml_gen.random_forest ~gen:(fresh_gen ()) ~rng:data_rng ~trees:2 ()
      in
      let g = fresh_gen () in
      let direct = Query.Eval.eval ~gen:g q [ input ] in
      let intermediates =
        List.map (fun sub -> Query.Eval.eval ~gen:g sub [ input ]) subs
      in
      let staged =
        Query.Eval.eval ~gen:g (Query.Ast.Flwr head) intermediates
      in
      Xml.Canonical.equal_forest direct staged

(* --- Expressions --- *)

let random_expr rng =
  let module Expr = Algebra.Expr in
  let peers = [ "p1"; "p2"; "p3" ] in
  let rpeer () = Net.Peer_id.of_string (Rng.pick rng peers) in
  let rec go depth =
    if depth = 0 then
      match Rng.int rng 3 with
      | 0 ->
          let data_rng = Rng.split rng in
          Expr.tree_at
            (Xml_gen.random_tree ~gen:(fresh_gen ()) ~rng:data_rng ())
            ~at:(rpeer ())
      | 1 -> Expr.doc "d" ~at:(Rng.pick rng peers)
      | _ -> Expr.doc_any "cls"
    else
      match Rng.int rng 5 with
      | 0 ->
          let q = Query_gen.random_flwr ~rng Query_gen.default_config in
          Expr.query_at q ~at:(rpeer ()) ~args:[ go (depth - 1) ]
      | 1 -> Expr.send_to_peer (rpeer ()) (go (depth - 1))
      | 2 -> Expr.eval_at (rpeer ()) (go (depth - 1))
      | 3 ->
          Expr.shared
            ~name:(Printf.sprintf "_tmp_p%d" (Rng.int rng 1000))
            ~at:(rpeer ()) ~value:(go (depth - 1)) ~body:(go (depth - 1))
      | _ -> Expr.send_as_doc ~name:"out" ~at:(rpeer ()) (go (depth - 1))
  in
  go (1 + Rng.int rng 2)

let expr_xml_roundtrip seed =
  let rng = Rng.create ~seed in
  let e = random_expr rng in
  match Algebra.Expr_xml.of_xml_string (Algebra.Expr_xml.to_xml_string e) with
  | Ok e' -> Algebra.Expr.equal e e'
  | Error _ -> false

let rewrites_are_wellformed seed =
  (* Every rewrite of a random expression serializes and deserializes:
     rewriting never produces garbage. *)
  let rng = Rng.create ~seed in
  let e = random_expr rng in
  let peers = List.map Net.Peer_id.of_string [ "p1"; "p2"; "p3" ] in
  let n = ref 0 in
  let fresh () =
    incr n;
    Printf.sprintf "_tmp_r%d" !n
  in
  List.for_all
    (fun (r : Algebra.Rewrite.rewrite) ->
      match
        Algebra.Expr_xml.of_xml_string (Algebra.Expr_xml.to_xml_string r.result)
      with
      | Ok e' -> Algebra.Expr.equal r.result e'
      | Error _ -> false)
    (Algebra.Rewrite.everywhere ~peers ~fresh e)

(* --- Rng --- *)

let rng_int_bounds seed =
  let rng = Rng.create ~seed in
  let bound = 1 + (seed mod 100) in
  List.for_all
    (fun _ ->
      let x = Rng.int rng bound in
      x >= 0 && x < bound)
    (List.init 50 Fun.id)

let rng_deterministic seed =
  let a = Rng.create ~seed and b = Rng.create ~seed in
  List.for_all (fun _ -> Rng.int a 1000 = Rng.int b 1000) (List.init 20 Fun.id)

let rng_shuffle_permutation seed =
  let rng = Rng.create ~seed in
  let l = List.init 20 Fun.id in
  let s = Rng.shuffle rng l in
  List.sort compare s = l

let suite =
  [
    qtest "serialize/parse round-trip" serialize_parse_roundtrip;
    qtest "adversarial round-trip is byte-stable" ~count:200
      adversarial_roundtrip_byte_stable;
    qtest "canonical invariant under sibling permutation"
      canonical_invariant_under_permutation;
    qtest "copy preserves canonical form" copy_preserves_canonical;
    qtest "tree size additive" size_positive_and_additive;
    qtest "zipper navigation preserves tree" zipper_roundtrip;
    qtest "nullable iff matches empty" nullable_iff_matches_empty;
    qtest "star closure" star_closure;
    qtest "seq concatenation" seq_concatenation;
    qtest "query print/parse round-trip" query_roundtrip;
    qtest "query evaluation deterministic" query_eval_deterministic;
    qtest "push-selection equivalence" push_selection_equivalence;
    qtest "incremental equals batch" ~count:40 incremental_equals_batch;
    qtest "unfold preserves composition" unfold_preserves_composition;
    qtest "expression xml round-trip" expr_xml_roundtrip;
    qtest "rewrites serialize cleanly" ~count:30 rewrites_are_wellformed;
    qtest "rng bounds" rng_int_bounds;
    qtest "rng deterministic" rng_deterministic;
    qtest "shuffle is a permutation" rng_shuffle_permutation;
  ]
