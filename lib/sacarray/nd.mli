(** Stateless n-dimensional arrays — the SaC value domain.

    Arrays are immutable from the user's point of view: every operation
    returns a fresh array (the with-loop machinery in {!With_loop}
    mutates only arrays it has just allocated). Scalars are rank-0
    arrays holding exactly one element, as in SaC. *)

type 'a t

(** {1 Construction} *)

val create : Shape.t -> 'a -> 'a t
(** [create shp v]: all elements set to [v]. *)

val init : Shape.t -> (int array -> 'a) -> 'a t
(** [init shp f]: element at index [iv] is [f iv]. [f] receives a fresh
    vector each call, in unspecified order. *)

val scalar : 'a -> 'a t
(** A rank-0 array. *)

val of_array : Shape.t -> 'a array -> 'a t
(** Adopt a row-major data array (copied).
    @raise Invalid_argument when lengths disagree. *)

val vector : 'a list -> 'a t
(** A rank-1 array from a list. *)

val matrix : 'a list list -> 'a t
(** A rank-2 array from rows.
    @raise Invalid_argument if the rows are ragged or empty overall
    with inconsistent widths. *)

(** {1 Structure} *)

val dim : 'a t -> int
(** Rank — SaC's [dim]. *)

val shape : 'a t -> Shape.t
(** Shape vector (a copy) — SaC's [shape]. *)

val size : 'a t -> int

val is_scalar : 'a t -> bool

(** {1 Element and subarray access} *)

val get : 'a t -> int array -> 'a
(** Full-rank element selection [array[iv]].
    @raise Invalid_argument out of bounds. *)

val get_scalar : 'a t -> 'a
(** The element of a rank-0 array.
    @raise Invalid_argument on arrays of rank > 0. *)

val sel : 'a t -> int array -> 'a t
(** SaC selection: an index vector of length [k <= dim a] selects the
    subarray of shape [drop k (shape a)]; with [k = dim a] the result
    is a rank-0 array. *)

val set : 'a t -> int array -> 'a -> 'a t
(** Functional single-element update: a copy of the array with the
    element at the (full-rank) index replaced. *)

(** {1 Bulk operations} *)

val map : ('a -> 'b) -> 'a t -> 'b t
val mapi : (int array -> 'a -> 'b) -> 'a t -> 'b t
val map2 : ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t
(** @raise Invalid_argument on shape mismatch. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Row-major fold over all elements. *)

val iteri : (int array -> 'a -> unit) -> 'a t -> unit

val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool
(** Same shape and element-wise equal. *)

val reshape : Shape.t -> 'a t -> 'a t
(** Same data, new shape of identical size.
    @raise Invalid_argument when sizes differ. *)

val to_flat_array : 'a t -> 'a array
(** Row-major copy of the data. *)

val to_list : 'a t -> 'a list
(** Row-major element list. *)

val pp :
  (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
(** Nested-bracket rendering, e.g. [[[1,2],[3,4]]]. *)

val to_string : ('a -> string) -> 'a t -> string

(** {1 Unsafe interface for the with-loop engine}

    These expose the underlying row-major buffer without copying. They
    exist so that {!With_loop} can build results in place, and so that
    a kernel that has checked an array's shape once can read its
    elements by flat offset. Nothing may write to the buffer of an
    array it did not just allocate. *)

val unsafe_data : 'a t -> 'a array
val unsafe_of_array : Shape.t -> 'a array -> 'a t
val unsafe_get_flat : 'a t -> int -> 'a
