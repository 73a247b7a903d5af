(** The paper's SaC sudoku kernel (Section 3), generalised to
    [n² × n²] boards.

    [add_number] is a literal transliteration of the paper's
    [addNumber]: a single-element board update plus a four-generator
    modarray with-loop that falsifies the options eliminated by the
    three sudoku rules. On the packed {!Board.opts} each generator
    covers cells rather than [[i; j; k]] points: the row, column and
    sub-board parts clear bit [k - 1] of their masks and the cell part
    empties the placed cell's mask. The cell part is the last
    generator because the placed cell also lies in the other three,
    and when generators overlap the later one wins (paper Section 2,
    {!Sacarray.With_loop}); placed first, it would be overwritten by a
    mask that keeps the cell's other options.

    Passing [~pool] makes the with-loops data-parallel — the
    concurrency the paper says "comes for free" in SaC. *)

val all_options : int -> Board.opts
(** [all_options side]: everything still possible — every cell's mask
    has bits [0 .. side - 1] set (the paper's all-[true]
    [side × side × side] array).
    @raise Invalid_argument if [side < 0] or
    [side > Board.max_opts_side]. *)

val add_number :
  ?pool:Scheduler.Pool.t ->
  i:int ->
  j:int ->
  k:int ->
  Board.t ->
  Board.opts ->
  Board.t * Board.opts
(** Place number [k] (1-based) at [(i, j)]: returns the updated board
    and options.
    @raise Invalid_argument if the position or number is out of
    range. *)

val init_options : ?pool:Scheduler.Pool.t -> Board.t -> Board.opts
(** The paper's [computeOpts] box body: fold {!add_number} over every
    pre-filled cell of the board, starting from {!all_options}. *)

val possible : Board.opts -> i:int -> j:int -> k:int -> bool
(** Number [k] (1-based) is still possible at [(i, j)]: the paper's
    [opts[i, j, k-1]].
    @raise Invalid_argument if the position or number is out of
    range. *)

val options_at : Board.opts -> i:int -> j:int -> int list
(** Numbers (1-based) still possible at [(i, j)], ascending. *)

val count_options_at : Board.opts -> i:int -> j:int -> int

val is_completed : ?pool:Scheduler.Pool.t -> Board.t -> bool
(** No empty cell — the paper's [isCompleted], a fold with-loop. *)

val is_stuck : ?pool:Scheduler.Pool.t -> Board.t -> Board.opts -> bool
(** Some empty cell has no options left — the search cannot
    proceed. *)
