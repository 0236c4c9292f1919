type t = Element of element | Text of string

and element = {
  id : Node_id.t;
  label : Label.t;
  attrs : (string * string) list;
  children : t list;
}

let element ?(attrs = []) ~gen label children =
  Element { id = Node_id.Gen.fresh gen; label; attrs; children }

let element_of_string ?attrs ~gen name children =
  element ?attrs ~gen (Label.of_string name) children

let text s = Text s

let with_id id ?(attrs = []) label children =
  Element { id; label; attrs; children }

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

let rec byte_size = function
  | Text s -> String.length s
  | Element e ->
      (* <label attrs>children</label> *)
      let tag = String.length (Label.to_string e.label) in
      let attr_bytes =
        List.fold_left
          (fun acc (k, v) -> acc + String.length k + String.length v + 4)
          0 e.attrs
      in
      (2 * tag) + 5 + attr_bytes
      + List.fold_left (fun acc c -> acc + byte_size c) 0 e.children

(* Root-level memo for the two O(subtree) measures the messaging hot
   path recomputes per charge: the byte-size model and the structural
   shape digest.  Keys are compared by pointer: trees are immutable
   and functional updates path-copy (see [update_node]), so a pointer
   hit can never alias a different tree.  The table is weak-keyed, so
   entries die with the trees they describe. *)
module Memo = Ephemeron.K1.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type memo = { mutable m_bytes : int; mutable m_shape : int }

let memo_tbl = Memo.create 1024
let reset_memo () = Memo.reset memo_tbl

let memo_of t =
  match Memo.find_opt memo_tbl t with
  | Some m -> m
  | None ->
      let m = { m_bytes = -1; m_shape = 0 } in
      Memo.add memo_tbl t m;
      m

let byte_size_cached t =
  let m = memo_of t in
  if m.m_bytes >= 0 then m.m_bytes
  else begin
    let n = byte_size t in
    m.m_bytes <- n;
    n
  end

(* FNV-1a-style structural digest over labels, attributes and text —
   the same distinctions as [equal_shape], no node identifiers.  Equal
   shapes hash equal.  Never 0: 0 is the "unset" memo sentinel. *)
let shape_hash t =
  let mix h x = (h lxor x) * 0x01000193 land max_int in
  let mix_string h s =
    let h = ref (mix h (String.length s)) in
    String.iter (fun c -> h := mix !h (Char.code c)) s;
    !h
  in
  let rec go h = function
    | Text s -> mix_string (mix h 2) s
    | Element e ->
        let h = mix_string (mix h 1) (Label.to_string e.label) in
        let h =
          List.fold_left
            (fun h (k, v) -> mix_string (mix_string h k) v)
            h e.attrs
        in
        mix (List.fold_left go h e.children) 3
  in
  let m = memo_of t in
  if m.m_shape <> 0 then m.m_shape
  else begin
    let h = go 0x811c9dc5 t in
    let h = if h = 0 then 1 else h in
    m.m_shape <- h;
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

let rec map_elements f = function
  | Text s -> Text s
  | Element e ->
      let children = List.map (map_elements f) e.children in
      Element (f { e with children })

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
        Element (f e)
    | Element e ->
        let children = map_shared e.children in
        if children == e.children then t else Element { e with children }
  in
  let t' = go t in
  if !changed then Some t' else None

let insert_children ~under ts t =
  update_node under (fun e -> { e with children = e.children @ ts }) t

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
        (fun e -> { e with children = insert_after e.children })
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
        (fun e -> { e with children = List.filter keep e.children })
        t

let rec copy ~gen = function
  | Text s -> Text s
  | Element e ->
      Element
        {
          e with
          id = Node_id.Gen.fresh gen;
          children = List.map (copy ~gen) e.children;
        }

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
