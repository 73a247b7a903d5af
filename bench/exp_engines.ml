(* engines: the same network (fig2, medium puzzle) on the sequential
   and the actor engine. *)

open Bechamel
open Bench_core

let run () =
  let board = board_of (if smoke then "easy" else "medium") in
  let net = Sudoku.Networks.fig2 () in
  let inputs () = [ Sudoku.Boxes.inject_board board ] in
  bench "fig2 on the medium puzzle" ~quota:1.5
    [
      Test.make ~name:"engine/seq"
        (Staged.stage (fun () -> Snet.Engine_seq.run net (inputs ())));
      Test.make ~name:"engine/actors"
        (Staged.stage (fun () ->
             Snet.Engine_conc.run ~pool:(Lazy.force conc_pool) net
               (inputs ())));
    ]
