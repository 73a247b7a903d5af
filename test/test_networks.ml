(* The three hybrid networks of Section 5 and the unfolding bounds the
   paper derives for them. *)

module Board = Sudoku.Board
module Boxes = Sudoku.Boxes
module Networks = Sudoku.Networks
module Puzzles = Sudoku.Puzzles
module Solver = Sudoku.Solver
module Stats = Snet.Stats

let with_pool n f =
  let pool = Scheduler.Pool.create ~num_domains:n () in
  Fun.protect ~finally:(fun () -> Scheduler.Pool.shutdown pool) (fun () ->
      f pool)

let run_seq ?stats net board =
  Networks.solved_boards
    (Snet.Engine_seq.run ?stats net [ Boxes.inject_board board ])

let solution_key boards = List.sort_uniq compare (List.map Board.to_string boards)

let test_fig1_solves_corpus () =
  List.iter
    (fun e ->
      let sols = run_seq (Networks.fig1 ()) e.Puzzles.board in
      Alcotest.(check bool) (e.Puzzles.name ^ " has a solution") true (sols <> []);
      List.iter
        (fun s -> Alcotest.(check bool) "each output solved" true (Board.solved s))
        sols;
      (* The network's first solution set contains the sequential
         solver's answer. *)
      let reference = (Solver.solve e.Puzzles.board).Solver.board in
      Alcotest.(check bool) "reference solution found" true
        (List.mem (Board.to_string reference) (solution_key sols)))
    (List.filter (fun e -> e.Puzzles.difficulty <> Puzzles.Hard) Puzzles.all)

let test_fig1_pipeline_bound () =
  (* "this unfolding cannot lead to pipelines longer than 81 replicas"
     — and more precisely: one replica per number still to place, plus
     one to signal completion. *)
  List.iter
    (fun e ->
      let stats = Stats.create () in
      ignore (run_seq ~stats (Networks.fig1 ()) e.Puzzles.board);
      let s = Stats.snapshot stats in
      let holes = 81 - Board.count_filled e.Puzzles.board in
      Alcotest.(check bool)
        (Printf.sprintf "%s: depth %d <= holes+1 = %d" e.Puzzles.name
           s.Stats.max_star_depth (holes + 1))
        true
        (s.Stats.max_star_depth <= holes + 1);
      Alcotest.(check bool) "never beyond 81+1" true (s.Stats.max_star_depth <= 82))
    (List.filter (fun e -> e.Puzzles.difficulty <> Puzzles.Hard) Puzzles.all)

let test_fig2_solution_set_matches_fig1 () =
  List.iter
    (fun name ->
      let board = (Puzzles.find name).Puzzles.board in
      let s1 = run_seq (Networks.fig1 ()) board in
      let s2 = run_seq (Networks.fig2 ()) board in
      Alcotest.(check (list string)) (name ^ ": same solutions")
        (solution_key s1) (solution_key s2))
    [ "trivial"; "easy"; "medium"; "gen-easy-30"; "gen-medium-45" ]

let test_fig2_split_bound () =
  (* At most 9 replicas per stage: split replicas <= 9 * stages, and
     the box-instance count can never exceed 9 * 81 = 729. *)
  let stats = Stats.create () in
  ignore (run_seq ~stats (Networks.fig2 ()) Puzzles.medium);
  let s = Stats.snapshot stats in
  Alcotest.(check bool) "splits bounded by 9 per stage" true
    (s.Stats.split_replicas <= 9 * s.Stats.max_star_depth);
  Alcotest.(check bool) "729 bound" true (s.Stats.split_replicas <= 729);
  Alcotest.(check bool) "some parallel unfolding happened" true
    (s.Stats.split_replicas > s.Stats.max_star_depth / 2)

let test_fig3_finds_solutions () =
  List.iter
    (fun name ->
      let board = (Puzzles.find name).Puzzles.board in
      let s1 = solution_key (run_seq (Networks.fig1 ()) board) in
      let s3 = run_seq (Networks.fig3 ()) board in
      Alcotest.(check bool) (name ^ ": nonempty") true (s3 <> []);
      List.iter
        (fun b ->
          Alcotest.(check bool) "fig3 solution in the full set" true
            (List.mem (Board.to_string b) s1))
        s3)
    [ "trivial"; "easy"; "medium"; "gen-easy-30" ]

let test_fig3_throttle_bound () =
  (* The paper's {<k>} -> {<k>=<k>%4} caps each stage's split at 4. *)
  List.iter
    (fun throttle ->
      let stats = Stats.create () in
      ignore
        (run_seq ~stats (Networks.fig3 ~throttle ~cutoff:60 ()) Puzzles.medium);
      let s = Stats.snapshot stats in
      Alcotest.(check bool)
        (Printf.sprintf "throttle %d: %d replicas <= %d per stage" throttle
           s.Stats.split_replicas (throttle * s.Stats.max_star_depth))
        true
        (s.Stats.split_replicas <= throttle * s.Stats.max_star_depth))
    [ 1; 2; 4 ]

let test_fig3_cutoff_semantics () =
  (* With cutoff 0 every record exits the star after one placement and
     the residual solve box does all the work. *)
  let stats = Stats.create () in
  let sols = run_seq ~stats (Networks.fig3 ~cutoff:0 ()) Puzzles.easy in
  Alcotest.(check bool) "solved" true (sols <> []);
  Alcotest.(check bool) "shallow star" true
    ((Stats.snapshot stats).Stats.max_star_depth <= 2)

let test_fig3_parameter_validation () =
  Alcotest.(check bool) "throttle < 1" true
    (try ignore (Networks.fig3 ~throttle:0 ()); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "cutoff beyond the board" true
    (try ignore (Networks.fig3 ~cutoff:81 ()); false
     with Invalid_argument _ -> true)

let test_networks_on_conc_engine () =
  with_pool 2 (fun pool ->
      List.iter
        (fun (name, net) ->
          let board = Puzzles.easy in
          let seq = solution_key (run_seq net board) in
          let conc =
            solution_key
              (Networks.solved_boards
                 (Snet.Engine_conc.run ~pool net [ Boxes.inject_board board ]))
          in
          Alcotest.(check (list string)) (name ^ ": engines agree") seq conc)
        [
          ("fig1", Networks.fig1 ());
          ("fig2", Networks.fig2 ());
          ("fig3", Networks.fig3 ());
          ("fig1 det", Networks.fig1 ~det:true ());
          ("fig2 det", Networks.fig2 ~det:true ());
          ("fig3 det", Networks.fig3 ~det:true ());
        ])

let test_conc_multiple_boards () =
  with_pool 2 (fun pool ->
      let boards =
        [ Puzzles.easy; (Puzzles.find "trivial").Puzzles.board; Puzzles.medium ]
      in
      let out =
        Snet.Engine_conc.run ~pool (Networks.fig2 ())
          (List.map Boxes.inject_board boards)
      in
      Alcotest.(check int) "three puzzles, three solutions" 3
        (List.length (Networks.solved_boards out)))

let test_fig1_det_exact_order () =
  with_pool 2 (fun pool ->
      let net = Networks.fig1 ~det:true () in
      let inputs = [ Boxes.inject_board Puzzles.easy ] in
      let seq = Snet.Engine_seq.run net inputs in
      let conc = Snet.Engine_conc.run ~pool net inputs in
      Alcotest.(check int) "same length" (List.length seq) (List.length conc);
      List.iter2
        (fun a b ->
          Alcotest.(check bool) "records pairwise equal" true
            (Board.equal (Boxes.board_of_record a) (Boxes.board_of_record b)))
        seq conc)

let test_unsolvable_produces_no_output () =
  (* Streaming semantics: a dead search branch emits nothing. *)
  let board =
    List.fold_left
      (fun b (i, j, v) -> Board.set b i j v)
      (Board.empty 3)
      [
        (0, 3, 1); (0, 4, 2); (0, 5, 3);
        (3, 0, 4); (4, 0, 5); (5, 0, 6);
        (1, 1, 7); (1, 2, 8); (2, 1, 9);
      ]
  in
  Alcotest.(check int) "no records leave the network" 0
    (List.length (run_seq (Networks.fig1 ()) board))

let test_presolved_board () =
  let solved = Sudoku.Generate.solved_board 3 in
  let sols = run_seq (Networks.fig1 ()) solved in
  Alcotest.(check int) "already-complete board flows through" 1
    (List.length sols)

let suite =
  [
    Alcotest.test_case "fig1 solves the corpus" `Quick test_fig1_solves_corpus;
    Alcotest.test_case "fig1 pipeline depth bound (81)" `Quick test_fig1_pipeline_bound;
    Alcotest.test_case "fig2 = fig1 solution sets" `Quick test_fig2_solution_set_matches_fig1;
    Alcotest.test_case "fig2 split bound (9 per stage, 729 total)" `Quick test_fig2_split_bound;
    Alcotest.test_case "fig3 finds solutions" `Quick test_fig3_finds_solutions;
    Alcotest.test_case "fig3 throttle bound" `Quick test_fig3_throttle_bound;
    Alcotest.test_case "fig3 cutoff semantics" `Quick test_fig3_cutoff_semantics;
    Alcotest.test_case "fig3 parameter validation" `Quick test_fig3_parameter_validation;
    Alcotest.test_case "all networks on the concurrent engine" `Quick test_networks_on_conc_engine;
    Alcotest.test_case "several boards through one network" `Quick test_conc_multiple_boards;
    Alcotest.test_case "fig1 det: exact order across engines" `Quick test_fig1_det_exact_order;
    Alcotest.test_case "unsolvable: silent death" `Quick test_unsolvable_produces_no_output;
    Alcotest.test_case "pre-solved board" `Quick test_presolved_board;
  ]
