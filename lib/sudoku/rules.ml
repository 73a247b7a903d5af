module Nd = Sacarray.Nd
module With_loop = Sacarray.With_loop

let all_options side =
  if side < 0 || side > Board.max_opts_side then
    invalid_arg
      (Printf.sprintf "Rules.all_options: side %d, at most %d" side
         Board.max_opts_side);
  (* At side 62, 1 lsl 62 is min_int and the subtraction wraps to
     max_int: bits 0 .. 61, as wanted. *)
  Nd.create [| side; side |] ((1 lsl side) - 1)

(* The paper's addNumber (Section 3, lines 1-14), generalised from 9 to
   any side s and sub-board size n = sqrt s:

     board[i,j] = k;
     k = k-1; is = (i/n)*n; js = (j/n)*n;
     opts = with {
       ([i,j,0]   <= iv <= [i,j,s-1])      : false;   -- cell
       ([i,0,k]   <= iv <= [i,s-1,k])      : false;   -- row
       ([0,j,k]   <= iv <= [s-1,j,k])      : false;   -- column
       ([is,js,k] <= iv <= [is+n-1,js+n-1,k]) : false -- sub-board
     } : modarray( opts);

   On packed options the k axis is the bits of one mask, so each
   generator drops it: the row, column and sub-board parts clear bit k
   of their cells, and the cell part empties the whole mask. The cell
   also lies in the other three parts, where it keeps its other bits,
   so the cell part comes last: later generators win. *)
let add_number ?pool ~i ~j ~k board opts =
  let s = Board.opts_side ~board opts in
  let n = Board.box_size board in
  if i < 0 || i >= s || j < 0 || j >= s then
    invalid_arg (Printf.sprintf "Rules.add_number: position %d,%d" i j);
  if k < 1 || k > s then
    invalid_arg (Printf.sprintf "Rules.add_number: number %d" k);
  let board = Nd.set board [| i; j |] k in
  let keep = lnot (1 lsl (k - 1)) in
  let is = i / n * n and js = j / n * n in
  let src = Nd.unsafe_data opts in
  let clear_k iv = src.((iv.(0) * s) + iv.(1)) land keep in
  let opts =
    With_loop.modarray ?pool opts
      [
        (With_loop.range_incl [| i; 0 |] [| i; s - 1 |], clear_k);
        (With_loop.range_incl [| 0; j |] [| s - 1; j |], clear_k);
        ( With_loop.range_incl [| is; js |] [| is + n - 1; js + n - 1 |],
          clear_k );
        (With_loop.range_incl [| i; j |] [| i; j |], fun _ -> 0);
      ]
  in
  (board, opts)

let init_options ?pool board =
  let s = Board.side board in
  List.fold_left
    (fun opts (i, j, v) ->
      let _, opts = add_number ?pool ~i ~j ~k:v board opts in
      opts)
    (all_options s) (Board.filled board)

(* The kernels below check shapes once per call, then read board and
   options by flat offset (the layout is in Board.opts_side). *)
let cell_mask name opts ~i ~j =
  let s = Board.opts_side opts in
  if i < 0 || i >= s || j < 0 || j >= s then
    invalid_arg (Printf.sprintf "Rules.%s: position %d,%d" name i j);
  (s, (Nd.unsafe_data opts).((i * s) + j))

let possible opts ~i ~j ~k =
  let s, mask = cell_mask "possible" opts ~i ~j in
  if k < 1 || k > s then
    invalid_arg (Printf.sprintf "Rules.possible: number %d" k);
  mask land (1 lsl (k - 1)) <> 0

let options_at opts ~i ~j =
  let s, mask = cell_mask "options_at" opts ~i ~j in
  List.filter (fun k -> mask land (1 lsl (k - 1)) <> 0) (List.init s succ)

let count_options_at opts ~i ~j =
  Board.count_options (snd (cell_mask "count_options_at" opts ~i ~j))

let is_completed ?pool board =
  let s = Board.side board in
  let b = Nd.unsafe_data board in
  With_loop.fold ?pool ~neutral:true ~combine:( && )
    [
      ( With_loop.range [| 0; 0 |] [| s; s |],
        fun iv -> b.((iv.(0) * s) + iv.(1)) <> 0 );
    ]

let is_stuck ?pool board opts =
  let s = Board.opts_side ~board opts in
  let b = Nd.unsafe_data board and o = Nd.unsafe_data opts in
  With_loop.fold ?pool ~neutral:false ~combine:( || )
    [
      ( With_loop.range [| 0; 0 |] [| s; s |],
        fun iv ->
          let cell = (iv.(0) * s) + iv.(1) in
          b.(cell) = 0 && o.(cell) = 0 );
    ]
