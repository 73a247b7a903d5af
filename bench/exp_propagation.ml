(* propagation: constraint deduction against pure search inside Fig.
   1's network (an extension ablation), timed and unfolded. *)

open Bechamel
open Bench_core

let run () =
  let configs =
    [
      ("plain", fun () -> Sudoku.Networks.fig1 ());
      ("propagating", fun () -> Sudoku.Propagate.fig1_propagating ());
    ]
  in
  let puzzles =
    if smoke then [ "easy" ] else [ "easy"; "medium"; "escargot" ]
  in
  bench "fig1 with and without the propagate box" ~quota:1.0
    (List.concat_map
       (fun p ->
         let board = board_of p in
         List.map
           (fun (c, net) ->
             Test.make ~name:(Printf.sprintf "fig1/%s/%s" c p)
               (Staged.stage (fun () -> run_network_seq (net ()) board)))
           configs)
       puzzles);
  Printf.printf "\n  search-tree size:\n";
  topology_header "config";
  List.iter
    (fun p ->
      List.iter
        (fun (c, net) -> topology_row (p ^ " " ^ c) (net ()) (board_of p))
        configs)
    puzzles
