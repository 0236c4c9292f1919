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
      encoded length arithmetically from cached per-tree blob lengths;
      a qcheck property pins it to [Bytes.length (encode m)].
    - {b Lazy decode.}  {!decode} materializes scalars eagerly but
      leaves every forest as a {!Message.lforest} thunk backed by the
      frame buffer; nothing is parsed until first touch
      ({!Message.force}), and {!Message.payload_decodes} counts
      touches.

    Per-tree blobs are cached in a weak pointer-keyed table: a tree
    shared by many messages is encoded once, and sizing it again is a
    length lookup. *)

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

val roundtrip : Message.t -> Message.t
(** [decode (encode m)], lazily.  The strict wire mode routes every
    send through this so the whole stack exercises the codec.
    @raise Invalid_argument if decoding fails (encode/decode mismatch
    — a codec bug, not an input condition). *)
