(** Boxes: user computation wrapped as stream components.

    A box declares a {e box signature} — an ordered input tuple of
    fields and tags and a disjunction of ordered output tuples — and an
    implementation. The implementation receives the input values in
    signature order and emits any number of output records through the
    [emit] callback, which is this library's rendering of the paper's
    [snet_out] interface: [emit n args] corresponds to
    [snet_out(n, args...)] with [n] the 1-based output variant number.
    Emitted records are delivered in emission order.

    The box never sees labels it did not declare; the runtime detaches
    excess labels from the consumed record and re-attaches them to each
    emitted record by flow inheritance. *)

type label =
  | F of string  (** A field parameter. *)
  | T of string  (** A tag parameter. *)

type arg =
  | Field of Value.t
  | Tag of int

type emitter = int -> arg list -> unit
(** [emit variant args]: [variant] is 1-based. *)

type impl = emit:emitter -> arg list -> unit

type t

val make :
  name:string ->
  ?policy:Supervise.policy ->
  ?timeout:float ->
  input:label list ->
  outputs:label list list ->
  impl ->
  t
(** [policy] (default [Fail_fast]) and [timeout] (default none) set the
    box's {!Supervise.config}, honoured by every engine.
    @raise Invalid_argument on duplicate labels within the input or
    within one output variant, an empty output disjunction, a negative
    retry count or a non-positive timeout. *)

val name : t -> string

val supervision : t -> Supervise.config

val with_supervision : Supervise.config -> t -> t
(** A copy of the box with a different supervision config; used by
    engines and the CLI to impose a network-wide [--on-error] policy. *)

val input_labels : t -> label list
val output_variants : t -> label list list

val signature : t -> Rectype.signature
(** The type signature induced by the box signature: ordering dropped,
    tuples become label sets (Section 4). *)

val execute : t -> Record.t -> Record.t list
(** Run the box on one record: project the declared input labels (in
    order), apply the implementation, collect its emissions, apply flow
    inheritance.

    The box keeps a plan per input {!Record.Shape.t} — the slot of each
    argument and, per output variant, the output shape after flow
    inheritance and the slots of its values — so a call on a known
    shape fills value arrays instead of merging labels. It keeps at
    most {!max_plans}; other shapes, and private ones, take the
    unplanned path, which gives the same results and errors.
    @raise Invalid_argument if the record lacks a declared label (a
    routing bug), if [emit] names an unknown variant, or if an
    emission's arguments do not match the variant's arity and kinds. *)

val max_plans : int
(** 8 input shapes per box. *)

val to_string : t -> string
(** The declaration form, e.g.
    [box foo ((a,<b>) -> (c) | (c,d,<e>))]. *)
