(* ablation: the actor engine's batch size and the cost of
   deterministic combinators on a real workload (fig2, medium). *)

open Bechamel
open Bench_core

let run () =
  let board = board_of (if smoke then "easy" else "medium") in
  let inputs () = [ Sudoku.Boxes.inject_board board ] in
  let conc ?batch net () =
    Snet.Engine_conc.run ~pool:(Lazy.force conc_pool) ?batch net (inputs ())
  in
  let net = Sudoku.Networks.fig2 () in
  bench "actor engine batch size (fig2, medium)" ~quota:1.0
    (List.map
       (fun b ->
         Test.make ~name:(Printf.sprintf "actors/batch=%d" b)
           (Staged.stage (conc ~batch:b net)))
       (if smoke then [ 1; 64 ] else [ 1; 8; 64; 512 ]));
  bench "determinism overhead on the real workload" ~quota:1.0
    [
      Test.make ~name:"fig2/nondet"
        (Staged.stage (fun () -> conc (Sudoku.Networks.fig2 ()) ()));
      Test.make ~name:"fig2/det"
        (Staged.stage (fun () -> conc (Sudoku.Networks.fig2 ~det:true ()) ()));
    ]
