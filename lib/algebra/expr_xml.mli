(** XML serialization of expressions.

    "An expression can be viewed (serialized) as an XML tree, whose
    root is labeled with the expression constructor, and whose children
    are the expression parameters" (Section 3.1).  This encoding is the
    wire format used when a peer delegates evaluation of an expression
    to another peer, and its byte size is what the cost model charges
    for shipping plans. *)

val to_tree : gen:Axml_xml.Node_id.Gen.t -> Expr.t -> Axml_xml.Tree.t

val of_tree : Axml_xml.Tree.t -> (Expr.t, string) result
(** Inverse of {!to_tree} modulo node identifiers. *)

val to_xml_string : Expr.t -> string
(** [to_tree] composed with the XML serializer (private identifier
    namespace). *)

val of_xml_string : string -> (Expr.t, string) result

val byte_size : Expr.t -> int
(** [String.length (to_xml_string e)], computed without serializing —
    the shipping cost of the plan itself. *)

val node_size :
  child:(Expr.t -> int) ->
  query_text:(Axml_query.Ast.t -> string) ->
  Expr.t ->
  int
(** One node of {!byte_size}: the serialized size of [e], given the
    size of each direct child ([child]) and the text an embedded
    query serializes as ([query_text], {!Axml_query.Ast.to_string}).
    [byte_size e = node_size ~child:byte_size
    ~query_text:Axml_query.Ast.to_string e]; plan search passes
    memoized children instead. *)
