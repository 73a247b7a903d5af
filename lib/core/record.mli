(** S-Net records: non-recursive sets of label–value pairs.

    Labels split into {e fields} (opaque values, see {!Value}) and
    {e tags} (integers visible to both layers). A record has at most
    one entry per label; field and tag namespaces are distinct, as in
    S-Net where tag labels are written in angular brackets. *)

type t

val empty : t

(** {1 Building} *)

val with_field : string -> Value.t -> t -> t
(** Add or replace a field. *)

val with_tag : string -> int -> t -> t
(** Add or replace a tag. *)

val of_list : fields:(string * Value.t) list -> tags:(string * int) list -> t

val without_field : string -> t -> t
val without_tag : string -> t -> t

(** {1 Access} *)

val field : string -> t -> Value.t option
val field_exn : string -> t -> Value.t
(** @raise Not_found_label with a descriptive message. *)

val tag : string -> t -> int option
val tag_exn : string -> t -> int

exception Not_found_label of string

val has_field : string -> t -> bool
val has_tag : string -> t -> bool

val fields : t -> (string * Value.t) list
(** Sorted by label. *)

val tags : t -> (string * int) list
(** Sorted by label. *)

val field_labels : t -> string list
val tag_labels : t -> string list

val arity : t -> int
(** Total number of labels. *)

val map_values :
  tag:(string -> int -> int) -> field:(string -> Value.t -> Value.t) -> t -> t
(** The record with the same labels and every value replaced: [tag] is
    called on each tag, then [field] on each field, each in label
    order. Decoders use it to fill a template of a known label set
    without re-sorting the labels. *)

(** {1 Flow inheritance}

    When a component consumes a record whose type is a proper subtype
    of the component's input type, the excess fields and tags are kept
    by the runtime and attached to every output record — unless the
    output already carries the label, in which case the inherited entry
    is discarded (Section 4). *)

val excess : consumed_fields:string list -> consumed_tags:string list -> t -> t
(** The sub-record of labels not consumed by the component. *)

val inherit_from : excess:t -> t -> t
(** [inherit_from ~excess out] adds each label of [excess] to [out]
    unless [out] already defines it. *)

(** {1 Misc} *)

val equal : t -> t -> bool
(** Labels equal and tag values equal; field values are compared by
    physical identity of their payloads (fields are opaque). *)

val compare_structure : t -> t -> int
(** Total order on (field labels, tag labels, tag values) — field
    contents ignored. Used for canonical sorting in tests. *)

val to_string : t -> string
(** E.g. [{board, opts, <k>=3}] with field values rendered via their
    keys. *)

val pp : Format.formatter -> t -> unit
