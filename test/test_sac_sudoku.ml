(* The whole paper from source text: SaC computation layer + S-Net
   coordination layer, compared against the native implementation. *)

module SS = Saclang.Sac_sudoku
module Nd = Sacarray.Nd

let elaborated snet_src =
  Snet_lang.Elaborate.elaborate (SS.registry ())
    (Snet_lang.Parser.parse_string snet_src)

let solve_with net board =
  Snet.Engine_seq.run net [ SS.inject_board board ]
  |> List.map SS.board_of_record
  |> List.filter Sudoku.Board.solved

let test_source_loads () =
  let prog = SS.program () in
  Alcotest.(check (list string)) "functions"
    [
      "addNumber"; "isCompleted"; "isStuck"; "findMinTrues"; "computeOpts";
      "solveOneLevel"; "solveOneLevelK";
    ]
    (Saclang.Sac_interp.functions prog)

let test_sac_predicates_match_native () =
  let prog = SS.program () in
  let board = Sudoku.Puzzles.easy in
  let opts = Sudoku.Rules.init_options board in
  let v_board = Saclang.Svalue.of_int_nd board in
  let v_opts = Saclang.Svalue.of_bool_nd (Sudoku.Board.options_nd opts) in
  (match Saclang.Sac_interp.call prog "isCompleted" [ v_board ] with
  | [ b ] ->
      Alcotest.(check bool) "isCompleted agrees" (Sudoku.Rules.is_completed board)
        (Saclang.Svalue.to_bool b)
  | _ -> Alcotest.fail "one result");
  (match Saclang.Sac_interp.call prog "isStuck" [ v_board; v_opts ] with
  | [ b ] ->
      Alcotest.(check bool) "isStuck agrees"
        (Sudoku.Rules.is_stuck board opts)
        (Saclang.Svalue.to_bool b)
  | _ -> Alcotest.fail "one result");
  match Saclang.Sac_interp.call prog "findMinTrues" [ v_board; v_opts ] with
  | [ i; j ] ->
      let i = Saclang.Svalue.to_int i and j = Saclang.Svalue.to_int j in
      (match Sudoku.Heuristics.find_min_trues board opts with
      | Some (ri, rj) ->
          (* Both pick a minimum-options cell; the counts must agree. *)
          Alcotest.(check int) "same option count"
            (Sudoku.Rules.count_options_at opts ~i:ri ~j:rj)
            (Sudoku.Rules.count_options_at opts ~i ~j)
      | None -> Alcotest.fail "native heuristic found no cell")
  | _ -> Alcotest.fail "two results"

let test_compute_opts_box_agrees () =
  let board = Sudoku.Puzzles.easy in
  let reg = SS.registry () in
  let box = List.assoc "computeOpts" reg in
  match Snet.Box.execute box (SS.inject_board board) with
  | [ r ] ->
      let opts_field = Snet.Record.field_exn "opts" r in
      (match Saclang.Sac_box.value_of_field opts_field with
      | Saclang.Svalue.VBool opts ->
          Alcotest.(check bool) "options equal native init_options" true
            (Nd.equal Bool.equal opts
               (Sudoku.Board.options_nd (Sudoku.Rules.init_options board)))
      | _ -> Alcotest.fail "opts is not boolean")
  | _ -> Alcotest.fail "one record expected"

let test_fig1_from_source () =
  let net = elaborated SS.fig1_snet in
  let solutions = solve_with net Sudoku.Puzzles.easy in
  Alcotest.(check int) "unique solution" 1 (List.length solutions);
  let native = (Sudoku.Solver.solve Sudoku.Puzzles.easy).Sudoku.Solver.board in
  Alcotest.(check bool) "matches the native solver" true
    (Sudoku.Board.equal native (List.hd solutions))

let test_fig2_from_source_both_engines () =
  let net = elaborated SS.fig2_snet in
  let board = (Sudoku.Puzzles.find "trivial").Sudoku.Puzzles.board in
  let seq = solve_with net board in
  Alcotest.(check int) "seq solves" 1 (List.length seq);
  let pool = Scheduler.Pool.create ~num_domains:2 () in
  Fun.protect
    ~finally:(fun () -> Scheduler.Pool.shutdown pool)
    (fun () ->
      let conc =
        Snet.Engine_conc.run ~pool net [ SS.inject_board board ]
        |> List.map SS.board_of_record
        |> List.filter Sudoku.Board.solved
      in
      Alcotest.(check int) "conc solves" 1 (List.length conc);
      Alcotest.(check bool) "same solution" true
        (Sudoku.Board.equal (List.hd seq) (List.hd conc)))

let test_unfolding_matches_native_fig1 () =
  (* The interpreted stack must unfold exactly like the native one:
     same pipeline depth, same number of box invocations. *)
  let board = Sudoku.Puzzles.easy in
  let stats_sac = Snet.Stats.create () in
  ignore
    (Snet.Engine_seq.run ~stats:stats_sac (elaborated SS.fig1_snet)
       [ SS.inject_board board ]);
  let stats_native = Snet.Stats.create () in
  ignore
    (Snet.Engine_seq.run ~stats:stats_native
       (Sudoku.Networks.fig1 ())
       [ Sudoku.Boxes.inject_board board ]);
  let s1 = Snet.Stats.snapshot stats_sac in
  let s2 = Snet.Stats.snapshot stats_native in
  Alcotest.(check int) "same depth" s2.Snet.Stats.max_star_depth
    s1.Snet.Stats.max_star_depth;
  Alcotest.(check int) "same invocations" s2.Snet.Stats.box_invocations
    s1.Snet.Stats.box_invocations

let suite =
  [
    Alcotest.test_case "source loads" `Quick test_source_loads;
    Alcotest.test_case "SaC predicates match native" `Quick test_sac_predicates_match_native;
    Alcotest.test_case "computeOpts box agrees" `Quick test_compute_opts_box_agrees;
    Alcotest.test_case "fig1 from source" `Quick test_fig1_from_source;
    Alcotest.test_case "fig2 from source, both engines" `Quick test_fig2_from_source_both_engines;
    Alcotest.test_case "unfolding matches native" `Quick test_unfolding_matches_native_fig1;
  ]
