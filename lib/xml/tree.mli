(** XML trees.

    The data model of the paper (Section 2.1): an XML tree is unranked
    and unordered; each internal node carries a label from [L] and an
    identifier from [N]; leaves are either labeled internal nodes with
    no children or text nodes.

    Trees are immutable.  Children are stored in a list; order is
    preserved for serialization purposes but carries no semantics —
    unordered comparison lives in {!Canonical}. *)

type t = Element of element | Text of string

and element = {
  id : Node_id.t;
  label : Label.t;
  attrs : (string * string) list;
  children : t list;
}

(** {1 Constructors} *)

val element :
  ?attrs:(string * string) list -> gen:Node_id.Gen.t -> Label.t -> t list -> t
(** [element ~gen label children] builds an element node with a fresh
    identifier drawn from [gen]. *)

val element_of_string :
  ?attrs:(string * string) list -> gen:Node_id.Gen.t -> string -> t list -> t
(** Like {!element} but validates the label string.
    @raise Invalid_argument on an invalid label. *)

val text : string -> t

val with_id : Node_id.t -> ?attrs:(string * string) list -> Label.t -> t list -> t
(** [with_id id label children] builds an element with an explicit
    identifier.  Used when reconstructing trees whose identity must be
    preserved (e.g. in-place child insertion). *)

(** {1 Accessors} *)

val is_element : t -> bool
val is_text : t -> bool

val id : t -> Node_id.t option
val label : t -> Label.t option
val children : t -> t list
val attrs : t -> (string * string) list
val attr : t -> string -> string option
val text_content : t -> string
(** Concatenation of all text descendants, document order. *)

(** {1 Measures} *)

val size : t -> int
(** Number of nodes (elements and texts). *)

val depth : t -> int
(** Length of the longest root-to-leaf path; a leaf has depth 1. *)

val byte_size : t -> int
(** Approximate serialized size in bytes; the unit of the network cost
    model. *)

val byte_size_cached : t -> int
(** {!byte_size} memoized per root in a weak table keyed on pointer
    identity.  Safe because trees are immutable and functional updates
    path-copy; meant for hot paths that re-measure the same shipped
    tree on every charge. *)

val shape_hash : t -> int
(** Structural digest consistent with {!equal_shape}: equal shapes
    hash equal; node identifiers are ignored.  Memoized like
    {!byte_size_cached}.  Never returns 0. *)

val reset_memo : unit -> unit
(** Empty the memo behind {!byte_size_cached} and {!shape_hash}; later
    calls recompute.  Bindings of dead trees leave the table only when
    it next resizes, so a process that builds system after system
    carries their count (and the cost of cleaning them) into every
    later run; a harness that measures allocation empties it before
    building each system. *)

(** {1 Traversal} *)

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Pre-order fold over all nodes. *)

val iter : (t -> unit) -> t -> unit
val elements : t -> element list
(** All element nodes, pre-order. *)

val find : (element -> bool) -> t -> element option
val find_all : (element -> bool) -> t -> element list
val find_by_id : Node_id.t -> t -> element option
val mem_id : Node_id.t -> t -> bool
val parent_of : Node_id.t -> t -> element option
(** [parent_of id t] is the element whose child list contains the
    element identified by [id], if any. *)

val children_by_label : t -> Label.t -> t list
(** Element children with the given label, in order. *)

val first_child_by_label : t -> Label.t -> t option

(** {1 Functional updates}

    All updates return a new tree; identifiers of untouched nodes are
    preserved. *)

val map_elements : (element -> element) -> t -> t
(** Bottom-up rewrite of every element node. *)

val update_node : Node_id.t -> (element -> element) -> t -> t option
(** [update_node id f t] rewrites the node identified by [id] with [f].
    [None] if [id] does not occur in [t]. *)

val insert_children : under:Node_id.t -> t list -> t -> t option
(** [insert_children ~under ts t] appends [ts] to the child list of the
    node identified by [under]. *)

val insert_siblings : of_:Node_id.t -> t list -> t -> t option
(** [insert_siblings ~of_ ts t] inserts [ts] immediately after the node
    identified by [of_] in its parent's child list — the accumulation
    semantics of AXML service results (Section 2.2, step 3).  [None] if
    [of_] is absent or is the root. *)

val remove_node : Node_id.t -> t -> t option
(** Remove the identified node (and its subtree).  [None] if absent or
    if it is the root. *)

val copy : gen:Node_id.Gen.t -> t -> t
(** Deep copy with fresh identifiers from [gen].  This is the copy
    performed by [send] evaluation: the instance that lands on the
    destination peer has its own node identities. *)

(** {1 Comparison} *)

val equal_strict : t -> t -> bool
(** Structural equality including identifiers and child order. *)

val equal_shape : t -> t -> bool
(** Structural equality ignoring identifiers but respecting order.
    Unordered equality lives in {!Canonical.equal}. *)

val pp : Format.formatter -> t -> unit
(** One-line rendering, for debugging. *)
