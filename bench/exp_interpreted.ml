(* interpreted: mini-SaC source boxes against native OCaml boxes, on
   the whole fig2 network and on one addNumber call. *)

open Bechamel
open Bench_core

let run () =
  let sac_net =
    Snet_lang.Elaborate.elaborate
      (Saclang.Sac_sudoku.registry ())
      (Snet_lang.Parser.parse_string Saclang.Sac_sudoku.fig2_snet)
  in
  let native_net = Sudoku.Networks.fig2 () in
  bench "fig2 on the sequential engine, easy puzzle" ~quota:1.0
    [
      Test.make ~name:"fig2/native"
        (Staged.stage (fun () ->
             Snet.Engine_seq.run native_net
               [ Sudoku.Boxes.inject_board Sudoku.Puzzles.easy ]));
      Test.make ~name:"fig2/mini-SaC"
        (Staged.stage (fun () ->
             Snet.Engine_seq.run sac_net
               [ Saclang.Sac_sudoku.inject_board Sudoku.Puzzles.easy ]));
    ];
  let prog = Saclang.Sac_sudoku.program () in
  let v_board = Saclang.Svalue.of_int_nd (Sudoku.Board.empty 3) in
  let v_opts =
    Saclang.Svalue.of_bool_nd
      (Sudoku.Board.options_nd (Sudoku.Rules.all_options 9))
  in
  bench "one addNumber call"
    [
      Test.make ~name:"addNumber/native"
        (Staged.stage (fun () ->
             Sudoku.Rules.add_number ~i:4 ~j:5 ~k:7 (Sudoku.Board.empty 3)
               (Sudoku.Rules.all_options 9)));
      Test.make ~name:"addNumber/mini-SaC"
        (Staged.stage (fun () ->
             Saclang.Sac_interp.call prog "addNumber"
               [
                 Saclang.Svalue.int 4; Saclang.Svalue.int 5;
                 Saclang.Svalue.int 7; v_board; v_opts;
               ]));
    ]
