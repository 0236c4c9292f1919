(* Canonicalization of unordered trees.

   Sibling *elements* form a multiset: they are sorted by their
   canonical serialization, computed bottom-up.  Sibling *text* nodes
   are concatenated in document order into a single text node — the
   same identification the XML serialization makes (adjacent text
   nodes are indistinguishable on the wire), which keeps query
   construction (several text pieces) and reparsing (one text node)
   canonically equal.  The fingerprint doubles as the sort key. *)

let split_children kids =
  let texts =
    List.filter_map
      (function Tree.Text s -> Some s | Tree.Element _ -> None)
      kids
  in
  let elements = List.filter Tree.is_element kids in
  (String.concat "" texts, elements)

let rec key = function
  | Tree.Text s -> "t:" ^ s
  | Tree.Element e ->
      let attrs =
        List.sort compare e.attrs
        |> List.map (fun (k, v) -> k ^ "=" ^ v)
        |> String.concat ","
      in
      let text, elements = split_children e.children in
      let kids = List.map key elements |> List.sort String.compare in
      let kids = if text = "" then kids else ("t:" ^ text) :: kids in
      Printf.sprintf "e:%s[%s]{%s}"
        (Label.to_string e.label)
        attrs
        (String.concat "|" kids)

let rec canonicalize = function
  | Tree.Text s -> Tree.Text s
  | Tree.Element e ->
      let text, elements = split_children e.children in
      let elements = List.map canonicalize elements in
      let elements =
        List.sort (fun a b -> String.compare (key a) (key b)) elements
      in
      let children =
        if text = "" then elements else Tree.Text text :: elements
      in
      Tree.rebuild ~attrs:(List.sort compare e.attrs) ~children e

let fingerprint t = key t
let compare a b = String.compare (key a) (key b)
let equal a b = compare a b = 0
let hash t = Hashtbl.hash (key t)

let equal_forest a b =
  let sorted f = List.map key f |> List.sort String.compare in
  List.equal String.equal (sorted a) (sorted b)
