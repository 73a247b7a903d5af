(** Sudoku boards as SaC arrays.

    A board of box size [n] is an [n² × n²] integer array; entries are
    [1 .. n²] and [0] for empty, exactly the paper's representation.
    The options array is the paper's [n² × n² × n²] boolean array:
    [opts.[i; j; k]] is true while number [k+1] is still possible at
    position [(i, j)]. *)

type t = int Sacarray.Nd.t
type opts = bool Sacarray.Nd.t

val side : t -> int
(** Board side length [n²].
    @raise Invalid_argument if the array is not square or its side is
    not a perfect square. *)

val box_size : t -> int
(** [n], the side of the sub-boards. *)

val empty : int -> t
(** [empty n]: an all-zero board of box size [n] (side [n²]). *)

val of_rows : int list list -> t
(** Rows of numbers, [0] for empty.
    @raise Invalid_argument on ragged input, bad dimensions or
    out-of-range entries. *)

val parse : string -> t
(** Accepts the common 81-character line format for 9×9 boards (digits
    with [.], [0] or [_] for empty, whitespace and newlines ignored, so
    nine lines of nine cells also qualify) and a general
    whitespace-separated number grid for any size.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Pretty grid with box separators. *)

val opts_side : ?board:t -> opts -> int
(** [opts_side opts] is [s] when [opts] has shape [[s; s; s]]; with
    [~board], the board must also have side [s]. The kernels check
    shapes with it once per call, then read by flat offset: cell
    [(i, j)] is board offset [i * s + j], and its options are the [s]
    consecutive options offsets from [(i * s + j) * s].
    @raise Invalid_argument otherwise. *)

val get : t -> int -> int -> int
(** @raise Invalid_argument if the position is off the board. *)

val set : t -> int -> int -> int -> t
(** Functional update. *)

val cells : t -> (int * int * int) list
(** All [(i, j, v)] triples in row-major order. *)

val filled : t -> (int * int * int) list
(** The non-zero cells. *)

val count_filled : t -> int

val equal : t -> t -> bool

val valid : t -> bool
(** No number repeated in any row, column or sub-board (empties
    ignored). *)

val solved : t -> bool
(** Completely filled and {!valid}. *)
