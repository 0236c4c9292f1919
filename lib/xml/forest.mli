(** XML forests: ordered lists of trees.

    Service parameters and continuous-service outputs are forests
    (Section 2.1: a service receives "an XML forest of type τin"). *)

type t = Tree.t list

val empty : t
val size : t -> int
val byte_size : t -> int
(** Sum of {!Tree.byte_size}: O(number of trees). *)

val shape_hash : t -> int
(** Structural digest consistent with {!equal_shape}; order-sensitive
    combination of {!Tree.shape_hash}.  Never returns 0. *)

val equal_shape : t -> t -> bool
val copy : gen:Node_id.Gen.t -> t -> t
val concat_map : (Tree.t -> t) -> t -> t
val elements : t -> Tree.element list
val pp : Format.formatter -> t -> unit
