type t = Element of element | Text of string

and element = {
  id : Node_id.t;
  label : Label.t;
  attrs : (string * string) list;
  children : t list;
  bytes : int;
  mutable shape : int;
  mutable blob_len : int;
  mutable blob : Bytes.t;
}

let byte_size = function Text s -> String.length s | Element e -> e.bytes

(* <label attrs>children</label>: the node's own markup plus its
   children's stored sizes, so building a node costs O(children). *)
let node_bytes label attrs children =
  let tag = String.length (Label.to_string label) in
  let own =
    List.fold_left
      (fun acc (k, v) -> acc + String.length k + String.length v + 4)
      ((2 * tag) + 5)
      attrs
  in
  List.fold_left (fun acc c -> acc + byte_size c) own children

(* The one place an element is built: every constructor, update and
   copy below goes through it, so the stored size always matches the
   children and the lazy slots always start empty. *)
let make id label attrs children =
  Element
    {
      id;
      label;
      attrs;
      children;
      bytes = node_bytes label attrs children;
      shape = 0;
      blob_len = -1;
      blob = Bytes.empty;
    }

let element ?(attrs = []) ~gen label children =
  make (Node_id.Gen.fresh gen) label attrs children

let element_of_string ?attrs ~gen name children =
  element ?attrs ~gen (Label.of_string name) children

let text s = Text s
let with_id id ?(attrs = []) label children = make id label attrs children

let rebuild ?attrs ?children e =
  make e.id e.label
    (Option.value attrs ~default:e.attrs)
    (Option.value children ~default:e.children)

let set_blob_len e n = e.blob_len <- n

let set_blob e b =
  e.blob <- b;
  e.blob_len <- Bytes.length b

let is_element = function Element _ -> true | Text _ -> false
let is_text = function Text _ -> true | Element _ -> false
let id = function Element e -> Some e.id | Text _ -> None
let label = function Element e -> Some e.label | Text _ -> None
let children = function Element e -> e.children | Text _ -> []
let attrs = function Element e -> e.attrs | Text _ -> []
let attr t name = List.assoc_opt name (attrs t)

let rec text_content = function
  | Text s -> s
  | Element e -> String.concat "" (List.map text_content e.children)

let rec size = function
  | Text _ -> 1
  | Element e -> List.fold_left (fun acc c -> acc + size c) 1 e.children

let rec depth = function
  | Text _ -> 1
  | Element e ->
      1 + List.fold_left (fun acc c -> max acc (depth c)) 0 e.children

(* FNV-1a-style structural digest over labels, attributes and text —
   the same distinctions as [equal_shape], no node identifiers.  An
   element mixes its children's digests rather than their content, so
   asking again after a path-copying update re-hashes only the rebuilt
   spine.  Never 0: 0 marks the element slot as not yet filled. *)
let mix h x = (h lxor x) * 0x01000193 land max_int

let mix_string h s =
  let rec go h i =
    if i = String.length s then h
    else go (mix h (Char.code (String.unsafe_get s i))) (i + 1)
  in
  go (mix h (String.length s)) 0

let nonzero h = if h = 0 then 1 else h

let rec shape_hash = function
  | Text s -> nonzero (mix_string (mix 0x811c9dc5 2) s)
  | Element e ->
      if e.shape <> 0 then e.shape
      else begin
        let h = mix_string (mix 0x811c9dc5 1) (Label.to_string e.label) in
        let h =
          List.fold_left
            (fun h (k, v) -> mix_string (mix_string h k) v)
            h e.attrs
        in
        let h =
          List.fold_left (fun h c -> mix h (shape_hash c)) h e.children
        in
        let h = nonzero (mix h 3) in
        e.shape <- h;
        h
      end

let rec fold f acc t =
  let acc = f acc t in
  match t with
  | Text _ -> acc
  | Element e -> List.fold_left (fold f) acc e.children

let iter f t = fold (fun () n -> f n) () t

let elements t =
  List.rev
    (fold
       (fun acc -> function Element e -> e :: acc | Text _ -> acc)
       [] t)

exception Found_element of element

let find pred t =
  let check = function
    | Element e when pred e -> raise_notrace (Found_element e)
    | Element _ | Text _ -> ()
  in
  match iter check t with
  | () -> None
  | exception Found_element e -> Some e

let find_all pred t = List.filter pred (elements t)
let find_by_id nid t = find (fun e -> Node_id.equal e.id nid) t
let mem_id nid t = Option.is_some (find_by_id nid t)

let parent_of nid t =
  let is_target = function
    | Element e -> Node_id.equal e.id nid
    | Text _ -> false
  in
  find (fun e -> List.exists is_target e.children) t

let children_by_label t l =
  List.filter
    (function Element e -> Label.equal e.label l | Text _ -> false)
    (children t)

let first_child_by_label t l =
  match children_by_label t l with [] -> None | c :: _ -> Some c

(* Functional update of a single identified node.  [changed] tracks
   whether the target was found so callers can distinguish a no-op.
   Path-copying: only the root-to-target spine is rebuilt; every
   untouched subtree is returned physically unchanged, so consumers
   keyed on pointer identity (the structural index) can repair in
   O(spine) instead of O(document). *)
let update_node nid f t =
  let changed = ref false in
  let rec map_shared l =
    match l with
    | [] -> l
    | x :: tl ->
        let x' = go x in
        let tl' = map_shared tl in
        if x' == x && tl' == tl then l else x' :: tl'
  and go t =
    match t with
    | Text _ -> t
    | Element e when Node_id.equal e.id nid ->
        changed := true;
        f e
    | Element e ->
        let children = map_shared e.children in
        if children == e.children then t else rebuild ~children e
  in
  let t' = go t in
  if !changed then Some t' else None

let insert_children ~under ts t =
  update_node under (fun e -> rebuild ~children:(e.children @ ts) e) t

let insert_siblings ~of_ ts t =
  match parent_of of_ t with
  | None -> None
  | Some parent ->
      let insert_after kids =
        List.concat_map
          (fun c ->
            match c with
            | Element e when Node_id.equal e.id of_ -> c :: ts
            | Element _ | Text _ -> [ c ])
          kids
      in
      update_node parent.id
        (fun e -> rebuild ~children:(insert_after e.children) e)
        t

let remove_node nid t =
  match parent_of nid t with
  | None -> None
  | Some parent ->
      let keep = function
        | Element e -> not (Node_id.equal e.id nid)
        | Text _ -> true
      in
      update_node parent.id
        (fun e -> rebuild ~children:(List.filter keep e.children) e)
        t

let rec copy ~gen = function
  | Text s -> Text s
  | Element e ->
      (* Children draw their identifiers before the parent: identifiers
         reach Σ and binary frame sizes, so the order is part of the
         determinism contract. *)
      let children = List.map (copy ~gen) e.children in
      make (Node_id.Gen.fresh gen) e.label e.attrs children

let rec equal_strict a b =
  match (a, b) with
  | Text x, Text y -> String.equal x y
  | Element x, Element y ->
      Node_id.equal x.id y.id
      && Label.equal x.label y.label
      && x.attrs = y.attrs
      && List.equal equal_strict x.children y.children
  | (Text _ | Element _), _ -> false

let rec equal_shape a b =
  match (a, b) with
  | Text x, Text y -> String.equal x y
  | Element x, Element y ->
      Label.equal x.label y.label
      && x.attrs = y.attrs
      && List.equal equal_shape x.children y.children
  | (Text _ | Element _), _ -> false

let rec pp fmt = function
  | Text s -> Format.fprintf fmt "%S" s
  | Element e ->
      Format.fprintf fmt "@[<hv 1>%a" Label.pp e.label;
      List.iter (fun (k, v) -> Format.fprintf fmt "[@%s=%S]" k v) e.attrs;
      if e.children <> [] then begin
        Format.fprintf fmt "(";
        Format.pp_print_list
          ~pp_sep:(fun fmt () -> Format.fprintf fmt ",@ ")
          pp fmt e.children;
        Format.fprintf fmt ")"
      end;
      Format.fprintf fmt "@]"
