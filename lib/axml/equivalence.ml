module Tree = Axml_xml.Tree
module Label = Axml_xml.Label
module Canonical = Axml_xml.Canonical

(* Rebuild sc subtrees in a canonical shape: peer, service, params (in
   index order, canonicalized), forw targets sorted textually.  Fresh
   structure reuses the original sc node identifier so that normalize
   is identity on identifiers (Canonical ignores them anyway). *)
let rec normalize t =
  match t with
  | Tree.Text _ -> t
  | Tree.Element e when Label.equal e.label Sc.sc_label -> (
      match Sc.of_element e with
      | Error _ -> normalize_children t
      | Ok sc ->
          let mk label kids = Tree.with_id e.id (Label.of_string label) kids in
          let peer =
            mk "peer" [ Tree.text (Format.asprintf "%a" Names.pp_location sc.provider) ]
          in
          let service =
            mk "service" [ Tree.text (Names.Service_name.to_string sc.service) ]
          in
          let params =
            List.mapi
              (fun i forest ->
                Tree.with_id e.id
                  (Label.of_string (Printf.sprintf "param%d" (i + 1)))
                  (List.map normalize forest))
              sc.params
          in
          let forward =
            sc.forward
            |> List.map Names.Node_ref.to_string
            |> List.sort String.compare
            |> List.map (fun s -> mk "forw" [ Tree.text s ])
          in
          Canonical.canonicalize
            (Tree.with_id e.id Sc.sc_label ((peer :: service :: params) @ forward)))
  | Tree.Element _ -> normalize_children t

and normalize_children t =
  match t with
  | Tree.Text _ -> t
  | Tree.Element e ->
      Canonical.canonicalize
        (Tree.rebuild ~children:(List.map normalize e.children) e)

let fingerprint t = Canonical.fingerprint (normalize t)
let equivalent a b = String.equal (fingerprint a) (fingerprint b)

let equivalent_documents d1 d2 =
  equivalent (Document.root d1) (Document.root d2)
