type choice =
  | Find_first
  | Min_trues

module Nd = Sacarray.Nd

(* Both searches scan by flat offset (the layout is in Board.opts_side). *)
let find_first board =
  let s = Board.side board in
  let b = Nd.unsafe_data board in
  let rec go cell =
    if cell >= s * s then None
    else if b.(cell) = 0 then Some (cell / s, cell mod s)
    else go (cell + 1)
  in
  go 0

let find_min_trues board opts =
  let s = Board.opts_side ~board opts in
  let b = Nd.unsafe_data board and o = Nd.unsafe_data opts in
  (* Strictly fewer options replaces the best: ties keep the first. *)
  let best = ref (-1) and best_count = ref max_int in
  for cell = 0 to (s * s) - 1 do
    if b.(cell) = 0 then begin
      let n = Board.count_options o.(cell) in
      if n < !best_count then begin
        best := cell;
        best_count := n
      end
    end
  done;
  if !best < 0 then None else Some (!best / s, !best mod s)

let pick = function
  | Find_first -> fun board _opts -> find_first board
  | Min_trues -> find_min_trues
