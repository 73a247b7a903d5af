(** S-Net records: non-recursive sets of label–value pairs.

    Labels split into {e fields} (opaque values, see {!Value}) and
    {e tags} (integers visible to both layers). A record has at most
    one entry per label; field and tag namespaces are distinct, as in
    S-Net where tag labels are written in angular brackets. *)

type t

val empty : t

(** {1 Shapes}

    A record is stored as its {e shape} — its sorted field labels and
    sorted tag labels — plus one array of values per kind, in label
    order. Shapes are interned: every record with one label set shares
    one shape, so a component can key per-variant work on it (box
    plans, engine admission, wire variant tables).

    The intern table is process-wide, shared by all domains, and holds
    at most {!Shape.cap} shapes; it never shrinks. Label sets also
    arrive from untrusted peers (gateway JSON, wire envelopes), so the
    table stops at its cap: a label set first seen once it is full, or
    one whose labels total more than 1 KiB, gets a private shape with
    id [-1], built without taking the intern lock. Such records behave
    exactly like any other; only the per-shape caches skip them. *)

module Shape : sig
  type t

  val cap : int
  (** 4096 interned shapes. *)

  val count : unit -> int
  (** Shapes interned so far (at most {!cap}). *)

  val id : t -> int
  (** Dense from 0 in interning order and stable for the process;
      [-1] for a private shape. *)

  val equal : t -> t -> bool
  (** Same labels. Physical equality for interned shapes. *)

  val make : fields:string list -> tags:string list -> t
  (** The shape of a label set given in any order; repeats are
      ignored. *)

  val nfields : t -> int
  val ntags : t -> int

  val field_label : t -> int -> string
  (** The [i]-th field label in sorted order. *)

  val tag_label : t -> int -> string

  val field_index : string -> t -> int
  (** The label's position among the shape's field labels, or [-1]. *)

  val tag_index : string -> t -> int
end

val shape : t -> Shape.t

val field_at : t -> int -> Value.t
(** The value of the [i]-th field of the record's shape. *)

val tag_at : t -> int -> int

val of_shape : Shape.t -> fields:Value.t array -> tags:int array -> t
(** The record of the given shape with these values, in the shape's
    label order. The record takes the arrays over: the caller must not
    change them afterwards.
    @raise Invalid_argument if an array's length differs from the
    shape's count of that kind. *)

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
    order. *)

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
