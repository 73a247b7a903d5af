(* fig3-sweep: Fig. 3's control parameters, throttle width and star
   cutoff, timed and unfolded on the medium puzzle. *)

open Bechamel
open Bench_core

let run () =
  let board = board_of "medium" in
  let widths = if smoke then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  let cutoffs = if smoke then [ 0; 40 ] else [ 0; 20; 40; 60; 80 ] in
  let configs =
    List.map
      (fun w ->
        (Printf.sprintf "throttle=%d" w, Sudoku.Networks.fig3 ~throttle:w ()))
      widths
    @ List.map
        (fun c ->
          (Printf.sprintf "cutoff=%d" c, Sudoku.Networks.fig3 ~cutoff:c ()))
        cutoffs
  in
  bench "throttle sweep (cutoff 40), cutoff sweep (throttle 4)"
    (List.map
       (fun (name, net) ->
         Test.make ~name:("fig3/" ^ name)
           (Staged.stage (fun () -> run_network_seq net board)))
       configs);
  Printf.printf "\n  unfolding under the sweep:\n";
  topology_header "config";
  List.iter (fun (name, net) -> topology_row name net board) configs
