(** Sudoku boards as SaC arrays.

    A board of box size [n] is an [n² × n²] integer array; entries are
    [1 .. n²] and [0] for empty, exactly the paper's representation.
    The paper's options array is an [n² × n² × n²] boolean array,
    true at [[i; j; k]] while number [k+1] is still possible at
    position [(i, j)]. Here it is packed: {!opts} is an [n² × n²]
    integer array whose entry at [[i; j]] is a bit mask, with bit [k]
    set exactly when the paper's [opts[i, j, k]] is true. So one cell's
    options are one word, and {!options_nd} unpacks the whole array
    back into the paper's boolean cube. *)

type t = int Sacarray.Nd.t

type opts = int Sacarray.Nd.t
(** Packed options: one mask per cell, bit [k - 1] set while number
    [k] is possible there. A mask is an OCaml [int], so a side holds
    at most {!max_opts_side} numbers. *)

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

val max_opts_side : int
(** [62]: the widest side whose masks fit in a 63-bit [int] with the
    sign bit clear, so box size [n ≤ 7] (a 49 × 49 board). Larger
    boards still parse, but no options array exists for them. *)

val opts_side : ?board:t -> opts -> int
(** [opts_side opts] is [s] when [opts] has shape [[s; s]]; with
    [~board], the board must also have side [s]. The kernels check
    shapes with it once per call, then read by flat offset: cell
    [(i, j)] is offset [i * s + j] of both the board and the options,
    and bit [k - 1] of that options entry stands for number [k].
    @raise Invalid_argument on any other shape, or when
    [s > max_opts_side]. *)

val count_options : int -> int
(** Number of options in one cell's mask (its set bits). *)

val options_nd : opts -> bool Sacarray.Nd.t
(** The paper's [[s; s; s]] boolean cube of the same options:
    [get (options_nd o) [| i; j; k |]] is true exactly when bit [k]
    of [o]'s [(i, j)] mask is set. For interop with code that keeps the
    paper's literal layout (the mini-SaC program) and for reference
    checks.
    @raise Invalid_argument as {!opts_side}. *)

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
