type outcome = {
  board : Board.t;
  opts : Board.opts;
  solved : bool;
  invocations : int;
  placements : int;
}

(* The paper's solve (Section 3):

     if (!isStuck(board, opts) && !isCompleted(board)) {
       i,j = findMinTrues(opts);
       mem_board = board; mem_opts = opts;
       for (k = 1; k <= 9 && !isCompleted(board); k++)
         if (mem_opts[i,j,k-1]) {
           board, opts = addNumber(i, j, k, mem_board, mem_opts);
           board, opts = solve(board, opts);
         }
     }
     return board, opts;
*)
let solve_from ?pool ?(choice = Heuristics.Min_trues) board opts =
  let s = Board.side board in
  let invocations = ref 0 and placements = ref 0 in
  let rec solve board opts =
    incr invocations;
    if Rules.is_stuck ?pool board opts || Rules.is_completed ?pool board then
      (board, opts)
    else begin
      match Heuristics.pick choice board opts with
      | None -> (board, opts)
      | Some (i, j) ->
          let mem_board = board and mem_opts = opts in
          let rec try_k k board opts =
            if k > s || Rules.is_completed ?pool board then (board, opts)
            else if Rules.possible mem_opts ~i ~j ~k then begin
              incr placements;
              let board', opts' =
                Rules.add_number ?pool ~i ~j ~k mem_board mem_opts
              in
              let board', opts' = solve board' opts' in
              try_k (k + 1) board' opts'
            end
            else try_k (k + 1) board opts
          in
          try_k 1 board opts
    end
  in
  let board, opts = solve board opts in
  {
    board;
    opts;
    solved = Rules.is_completed ?pool board;
    invocations = !invocations;
    placements = !placements;
  }

let solve ?pool ?choice board =
  let opts = Rules.init_options ?pool board in
  solve_from ?pool ?choice board opts

let count_solutions ?pool ?(choice = Heuristics.Min_trues) ?(limit = 2) board =
  let s = Board.side board in
  let count = ref 0 in
  let opts = Rules.init_options ?pool board in
  let rec go board opts =
    if !count >= limit then ()
    else if Rules.is_completed ?pool board then incr count
    else if Rules.is_stuck ?pool board opts then ()
    else
      match Heuristics.pick choice board opts with
      | None -> ()
      | Some (i, j) ->
          for k = 1 to s do
            if !count < limit && Rules.possible opts ~i ~j ~k then begin
              let board', opts' = Rules.add_number ?pool ~i ~j ~k board opts in
              go board' opts'
            end
          done
  in
  go board opts;
  !count
