(** Compact binary wire codec for {!Message.t}.

    A length-prefixed binary framing with an interned-label,
    offset-indexed encoding for shipped forests (see DESIGN.md §16):

    {v
    frame  := uvarint(body_len) body
    body   := magic version zv(corr) zv(seq) zv(op) kind payload
    forest := uvarint(ntrees) { uvarint(blob_len) tree_blob }*
    blob   := string table (labels, attr names, id namespaces) + nodes
    v}

    Two properties the rest of the stack builds on:

    - {b Exact sizing without encoding.}  {!frame_bytes} computes the
      encoded length arithmetically from per-tree blob lengths; a
      qcheck property pins it to [Bytes.length (encode m)].
    - {b Lazy decode.}  {!decode} materializes scalars eagerly but
      leaves every forest as a {!Message.lforest} thunk backed by the
      frame buffer; nothing is parsed until first touch
      ({!Message.force}), and {!Message.payload_decodes} counts
      touches.

    A shipped tree keeps its blob and the blob's length in its own
    root node ({!Axml_xml.Tree.element}'s [blob] and [blob_len]
    slots): a tree shared by many messages is sized once and encoded
    once, and sizing it again is a field read. *)

type error = Truncated | Malformed of string

val pp_error : Format.formatter -> error -> unit

val frame_bytes : Message.t -> int
(** Exact length of [encode m], computed without materializing the
    frame.  The binary-wire byte charge ({!System.wire}). *)

val encode : Message.t -> Bytes.t
(** Never forces a lazy forest: an undecoded forest section is blitted
    from the originating frame. *)

val decode : Bytes.t -> (Message.t, error) result
(** Checks framing, lengths and scalar fields eagerly; forests decode
    lazily on first {!Message.force}.  A corrupt forest blob therefore
    surfaces at force time (as {!decode_strict} observes), never as a
    crash.  Rejects truncated, over-length and malformed frames. *)

val decode_strict : Bytes.t -> (Message.t, error) result
(** {!decode}, then force every carried forest, converting deferred
    blob errors into [Error]. *)

val encode_tree_blob : Axml_xml.Tree.t -> Bytes.t
(** The self-contained blob of one tree, encoded afresh. *)

val tree_blob : Axml_xml.Tree.t -> Bytes.t
(** {!encode_tree_blob}, kept in the root's [blob] slot after the
    first call. *)

val tree_blob_len : Axml_xml.Tree.t -> int
(** [Bytes.length (tree_blob t)], computed arithmetically (no blob is
    built) and kept in the root's [blob_len] slot. *)

val roundtrip : Message.t -> Message.t
(** [decode (encode m)], lazily.  The strict wire mode routes every
    send through this so the whole stack exercises the codec.
    @raise Invalid_argument if decoding fails (encode/decode mismatch
    — a codec bug, not an input condition). *)
