(* baseline: Section 3's claim that the pure-SaC sequential solver
   handles 9x9 sudokus "in far less than a second", per corpus puzzle.
   Its rows go into BENCH_kernels.json beside dataparallel's. *)

open Bechamel
open Bench_core

let run () =
  let r = report "kernels" in
  let puzzles =
    if smoke then [ Sudoku.Puzzles.find "easy" ] else Sudoku.Puzzles.all
  in
  bench ~into:r "solver, min-options heuristic"
    (List.map
       (fun e ->
         let board = e.Sudoku.Puzzles.board in
         Test.make ~name:("solve/" ^ e.Sudoku.Puzzles.name)
           (Staged.stage (fun () -> Sudoku.Solver.solve board)))
       puzzles);
  if not smoke then
    bench ~into:r "solver, 16x16 board"
      [
        Test.make ~name:"solve/16x16-60holes"
          (Staged.stage (fun () -> Sudoku.Solver.solve Sudoku.Puzzles.sixteen));
      ];
  (* The findFirst-vs-findMinTrues refinement the paper motivates. *)
  let p = if smoke then "easy" else "medium" in
  bench ~into:r "heuristic refinement (findFirst vs findMinTrues)"
    (List.map
       (fun (h, choice) ->
         Test.make ~name:(Printf.sprintf "solve/%s/%s" p h)
           (Staged.stage (fun () -> Sudoku.Solver.solve ~choice (board_of p))))
       Sudoku.Heuristics.
         [ ("findFirst", Find_first); ("findMinTrues", Min_trues) ]);
  (* The kernel call interpreted times against its mini-SaC twin, here
     in a process with no extra domains: dataparallel's pools make
     every minor collection a stop-the-world across their domains. *)
  let board = Sudoku.Board.empty 3 and opts = Sudoku.Rules.all_options 9 in
  bench ~into:r "one addNumber on a 9x9 board"
    [
      Test.make ~name:"addNumber/n=3/seq"
        (Staged.stage (fun () ->
             Sudoku.Rules.add_number ~i:4 ~j:5 ~k:7 board opts));
    ];
  finish r
