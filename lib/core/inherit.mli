(** Flow inheritance planned once per input shape.

    A component consumes some labels of its input and emits records
    with its own labels; the input's other labels (its excess) are
    attached to each output that lacks them (Section 4). For one input
    shape the output shape and the slot of every value are fixed, so
    {!Box} and {!Filter} compute them once per shape and then fill
    value arrays. *)

type t

val plan :
  input:Record.Shape.t ->
  consumed_fields:string list ->
  consumed_tags:string list ->
  fields:string list ->
  tags:string list ->
  t
(** Outputs carrying own labels [fields] and [tags] (a label may
    repeat; its last value wins) built from an [input]-shaped record
    of which the component consumed [consumed_fields] and
    [consumed_tags]. *)

val shape : t -> Record.Shape.t
(** Own labels plus the excess labels the output lacks. *)

val field_slot : t -> int -> int
(** The slot in {!shape} of the [j]-th own field. *)

val tag_slot : t -> int -> int

val fields : t -> Value.t array
(** Fresh value arrays sized for {!shape}. *)

val tags : t -> int array

val finish : t -> input:Record.t -> Value.t array -> int array -> Record.t
(** Copy the excess values of [input] into the arrays, whose own slots
    the caller has filled, and make the output record. The record
    takes the arrays over. *)
