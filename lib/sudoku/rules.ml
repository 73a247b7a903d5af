module Nd = Sacarray.Nd
module With_loop = Sacarray.With_loop

let all_options side = Nd.create [| side; side; side |] true

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
*)
let add_number ?pool ~i ~j ~k board opts =
  let s = Board.opts_side ~board opts in
  let n = Board.box_size board in
  if i < 0 || i >= s || j < 0 || j >= s then
    invalid_arg (Printf.sprintf "Rules.add_number: position %d,%d" i j);
  if k < 1 || k > s then
    invalid_arg (Printf.sprintf "Rules.add_number: number %d" k);
  let board = Nd.set board [| i; j |] k in
  let k = k - 1 in
  let is = i / n * n and js = j / n * n in
  let falsify = fun _iv -> false in
  let opts =
    With_loop.modarray ?pool opts
      [
        (With_loop.range_incl [| i; j; 0 |] [| i; j; s - 1 |], falsify);
        (With_loop.range_incl [| i; 0; k |] [| i; s - 1; k |], falsify);
        (With_loop.range_incl [| 0; j; k |] [| s - 1; j; k |], falsify);
        ( With_loop.range_incl [| is; js; k |] [| is + n - 1; js + n - 1; k |],
          falsify );
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
let cell_options name opts ~i ~j =
  let s = Board.opts_side opts in
  if i < 0 || i >= s || j < 0 || j >= s then
    invalid_arg (Printf.sprintf "Rules.%s: position %d,%d" name i j);
  (s, ((i * s) + j) * s)

let options_at opts ~i ~j =
  let s, base = cell_options "options_at" opts ~i ~j in
  let o = Nd.unsafe_data opts in
  List.filter (fun k -> o.(base + k - 1)) (List.init s (fun k -> k + 1))

let count_options_at opts ~i ~j =
  let s, base = cell_options "count_options_at" opts ~i ~j in
  let o = Nd.unsafe_data opts in
  let n = ref 0 in
  for off = base to base + s - 1 do
    if o.(off) then incr n
  done;
  !n

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
          b.(cell) = 0
          &&
          (* Empty with no option left: stop at the first true one. *)
          let off = ref (cell * s) and stop = (cell + 1) * s in
          while !off < stop && not o.(!off) do
            incr off
          done;
          !off = stop );
    ]
