module Tree = Axml_xml.Tree
module Label = Axml_xml.Label
module Validate = Axml_schema.Validate

type report = {
  conforms : bool;
  rounds : int;
  activated : int;
  last_error : string option;
}

let rec erase_calls t =
  match t with
  | Tree.Text _ -> t
  | Tree.Element e ->
      let children =
        e.children
        |> List.filter (fun c -> not (Axml_doc.Sc.is_sc c))
        |> List.map erase_calls
      in
      Tree.rebuild ~children e

let conforms_modulo_calls ~schema ~type_name t =
  (* Unordered: call results accumulate at arbitrary sibling
     positions, which must not affect conformance. *)
  Validate.tree ~unordered:true ~schema ~type_name (erase_calls t)

(* The calls to try next, given a validation failure: the ones owned by
   the failing node, or — when the failure does not pin a node (or the
   node holds none) — every remaining call.  [exclude] lists calls
   already fired. *)
let candidate_calls root (error : Validate.error) ~exclude =
  let all = Axml_doc.Sc.find_calls root in
  let fresh =
    List.filter
      (fun (node, _) ->
        not (List.exists (Axml_xml.Node_id.equal node) exclude))
      all
  in
  match error.at with
  | Some failing ->
      let owned =
        List.filter
          (fun (node, _) ->
            match Tree.parent_of node root with
            | Some parent -> Axml_xml.Node_id.equal parent.Tree.id failing
            | None -> false)
          fresh
      in
      if owned <> [] then owned else fresh
  | None -> fresh

let activate_until_valid sys ~owner ~doc ~schema ~type_name ?(max_rounds = 8)
    () =
  let doc_name =
    match System.find_document sys owner doc with
    | Some d -> Axml_doc.Document.name d
    | None ->
        invalid_arg
          (Printf.sprintf "Type_driven.activate_until_valid: no document %S" doc)
  in
  let fired = ref [] in
  let activated = ref 0 in
  let rec loop round =
    let root =
      match System.find_document sys owner doc with
      | Some d -> Axml_doc.Document.root d
      | None -> assert false
    in
    match conforms_modulo_calls ~schema ~type_name root with
    | Ok () ->
        { conforms = true; rounds = round; activated = !activated; last_error = None }
    | Error err ->
        if round >= max_rounds then
          {
            conforms = false;
            rounds = round;
            activated = !activated;
            last_error = Some (Format.asprintf "%a" Validate.pp_error err);
          }
        else begin
          match candidate_calls root err ~exclude:!fired with
          | [] ->
              {
                conforms = false;
                rounds = round;
                activated = !activated;
                last_error = Some (Format.asprintf "%a" Validate.pp_error err);
              }
          | candidates ->
              List.iter
                (fun (node, _) ->
                  fired := node :: !fired;
                  if System.activate_call sys ~owner ~doc:doc_name ~node then
                    incr activated)
                candidates;
              ignore (System.run sys);
              loop (round + 1)
        end
  in
  loop 0
