(* fig1/fig2/fig3: the three networks of Section 5, timed on both
   engines, and their unfolding (pipeline depth, split replicas, box
   instances) against the paper's bounds. *)

open Bechamel
open Bench_core

let run ~figure () =
  let puzzles =
    if smoke then [ "easy" ] else [ "easy"; "medium"; "gen-hard-55" ]
  in
  let timing engine ?quota ps run =
    bench (Printf.sprintf "%s timing, %s engine" figure engine) ?quota
      (List.map
         (fun p ->
           let board = board_of p and net = net_of figure in
           Test.make ~name:(Printf.sprintf "%s/%s/%s" figure engine p)
             (Staged.stage (fun () -> run net board)))
         ps)
  in
  timing "seq" puzzles run_network_seq;
  (* The concurrent engine skips the hard puzzle. *)
  timing "conc" ~quota:1.0
    (List.filteri (fun i _ -> i < 2) puzzles)
    run_network_conc;
  Printf.printf
    "\n\
    \  topology (paper bounds: depth <= 81; fig2 <= 9 replicas/stage, <= \
     729 boxes; fig3 <= throttle/stage)\n";
  topology_header "puzzle";
  List.iter (fun p -> topology_row p (net_of figure) (board_of p)) puzzles
