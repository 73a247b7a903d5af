(* scaling: the hybrid networks of Section 5 on the concurrent engine
   across domain counts. *)

open Bechamel
open Bench_core

let run () =
  let board = board_of (if smoke then "easy" else "gen-hard-55") in
  let pools =
    List.map
      (fun d -> (d, Scheduler.Pool.create ~num_domains:d ()))
      (if smoke then [ 0; 2 ] else [ 0; 1; 2; 4 ])
  in
  List.iter
    (fun figure ->
      bench (figure ^ " on the concurrent engine") ~quota:2.0
        (List.map
           (fun (d, pool) ->
             let net = net_of figure in
             Test.make ~name:(Printf.sprintf "%s/conc/domains=%d" figure d)
               (Staged.stage (fun () ->
                    Snet.Engine_conc.run ~pool net
                      [ Sudoku.Boxes.inject_board board ])))
           pools))
    [ "fig2"; "fig3" ];
  List.iter (fun (_, p) -> Scheduler.Pool.shutdown p) pools
