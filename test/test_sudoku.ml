(* Boards, rules, heuristics, sequential solver, generation. *)

module Board = Sudoku.Board
module Rules = Sudoku.Rules
module H = Sudoku.Heuristics
module Solver = Sudoku.Solver
module Puzzles = Sudoku.Puzzles
module Nd = Sacarray.Nd

let test_board_basics () =
  let b = Board.empty 3 in
  Alcotest.(check int) "side" 9 (Board.side b);
  Alcotest.(check int) "box size" 3 (Board.box_size b);
  Alcotest.(check int) "no givens" 0 (Board.count_filled b);
  let b = Board.set b 4 5 7 in
  Alcotest.(check int) "set/get" 7 (Board.get b 4 5);
  Alcotest.(check int) "one given" 1 (Board.count_filled b)

let test_board_parse_9x9 () =
  let b = Puzzles.easy in
  Alcotest.(check int) "givens of the classic example" 30 (Board.count_filled b);
  Alcotest.(check int) "top-left" 5 (Board.get b 0 0);
  Alcotest.(check int) "row 1" 3 (Board.get b 0 1);
  Alcotest.(check bool) "valid" true (Board.valid b);
  (* Dots and underscores also mean empty. *)
  let b2 = Board.parse (String.concat "" (List.init 81 (fun _ -> "."))) in
  Alcotest.(check int) "all empty" 0 (Board.count_filled b2);
  (* Newlines are whitespace: a one-line puzzle read from a file, and
     the nine-line compact layout. *)
  let line =
    String.concat ""
      (List.map (fun (_, _, v) -> string_of_int v) (Board.cells b))
  in
  Alcotest.(check bool) "one line plus newline" true
    (Board.equal b (Board.parse (line ^ "\n")));
  let nine_lines =
    String.concat "\n" (List.init 9 (fun i -> String.sub line (i * 9) 9))
  in
  Alcotest.(check bool) "nine lines of nine" true
    (Board.equal b (Board.parse (nine_lines ^ "\n")));
  Alcotest.(check bool) "dotted nine lines" true
    (Board.equal b
       (Board.parse
          (String.map (fun c -> if c = '0' then '.' else c) nine_lines)))

let test_board_parse_grid () =
  let b = Board.parse "1 2 3 4\n3 4 1 2\n2 1 4 3\n4 3 2 1" in
  Alcotest.(check int) "side 4" 4 (Board.side b);
  Alcotest.(check bool) "solved 4x4" true (Board.solved b);
  (* A spaced 9x9 grid and a 16x16 grid with two-digit cells. *)
  let grid_text b =
    let s = Board.side b in
    String.concat "\n"
      (List.init s (fun i ->
           String.concat " "
             (List.init s (fun j -> string_of_int (Board.get b i j)))))
  in
  Alcotest.(check bool) "spaced 9x9 grid" true
    (Board.equal Puzzles.easy (Board.parse (grid_text Puzzles.easy)));
  let sixteen = Sudoku.Generate.solved_board 4 in
  Alcotest.(check bool) "16x16 grid" true
    (Board.equal sixteen (Board.parse (grid_text sixteen ^ "\n")));
  Alcotest.(check bool) "bad cell" true
    (try ignore (Board.parse "1 2\nx 1"); false with Invalid_argument _ -> true)

let test_board_validity () =
  let good = Board.parse "1 2 3 4\n3 4 1 2\n2 1 4 3\n4 3 2 1" in
  Alcotest.(check bool) "valid" true (Board.valid good);
  let dup_row = Board.set good 0 1 1 in
  Alcotest.(check bool) "row duplicate" false (Board.valid dup_row);
  let dup_col = Board.set good 1 0 1 in
  Alcotest.(check bool) "column duplicate" false (Board.valid dup_col);
  let dup_box = Board.set good 1 1 1 in
  Alcotest.(check bool) "sub-board duplicate" false (Board.valid dup_box);
  Alcotest.(check bool) "incomplete is not solved" false
    (Board.solved (Board.set good 0 0 0))

let test_board_to_string_roundtrip () =
  let s = Board.to_string Puzzles.easy in
  Alcotest.(check bool) "renders dots for empties" true
    (String.contains s '.');
  (* The pretty output of a 4x4 grid parses back. *)
  let g = Board.parse "1 2 3 4\n3 4 1 2\n2 1 4 3\n4 3 2 1" in
  let reparsed =
    Board.parse
      (String.concat "\n"
         (List.filter
            (fun l -> l <> "" && not (String.contains l '-'))
            (String.split_on_char '\n'
               (String.concat ""
                  (String.split_on_char '|' (Board.to_string g))))))
  in
  Alcotest.(check bool) "roundtrip" true (Board.equal g reparsed)

(* The paper's addNumber: placing k at (i,j) falsifies the cell's
   options, k in row i, k in column j and k in the sub-board. *)
let test_add_number_eliminations () =
  let board = Board.empty 3 in
  let opts = Rules.all_options 9 in
  let board, opts = Rules.add_number ~i:4 ~j:5 ~k:7 board opts in
  Alcotest.(check int) "placed" 7 (Board.get board 4 5);
  Alcotest.(check (list int)) "cell has no options left" []
    (Rules.options_at opts ~i:4 ~j:5);
  (* 7 eliminated across row 4, column 5 and the centre sub-board. *)
  for j = 0 to 8 do
    Alcotest.(check bool) (Printf.sprintf "row option 7 at col %d" j) false
      (List.mem 7 (Rules.options_at opts ~i:4 ~j))
  done;
  for i = 0 to 8 do
    Alcotest.(check bool) (Printf.sprintf "col option 7 at row %d" i) false
      (List.mem 7 (Rules.options_at opts ~i ~j:5))
  done;
  for i = 3 to 5 do
    for j = 3 to 5 do
      Alcotest.(check bool) "box option 7" false
        (List.mem 7 (Rules.options_at opts ~i ~j))
    done
  done;
  (* Unrelated cells keep their other options. *)
  Alcotest.(check bool) "far cell keeps 7" true
    (List.mem 7 (Rules.options_at opts ~i:0 ~j:0));
  Alcotest.(check int) "far cell loses nothing" 9
    (Rules.count_options_at opts ~i:0 ~j:0);
  (* Same row loses exactly one option. *)
  Alcotest.(check int) "row cell loses only 7" 8
    (Rules.count_options_at opts ~i:4 ~j:0)

let test_add_number_validation () =
  let board = Board.empty 3 and opts = Rules.all_options 9 in
  Alcotest.(check bool) "bad position" true
    (try ignore (Rules.add_number ~i:9 ~j:0 ~k:1 board opts); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad number" true
    (try ignore (Rules.add_number ~i:0 ~j:0 ~k:10 board opts); false
     with Invalid_argument _ -> true)

let test_init_options () =
  let opts = Rules.init_options Puzzles.easy in
  (* Given cells have no options; empty cells have at least one. *)
  List.iter
    (fun (i, j, v) ->
      if v <> 0 then
        Alcotest.(check int) "given cell" 0 (Rules.count_options_at opts ~i ~j)
      else
        Alcotest.(check bool) "empty cell has options" true
          (Rules.count_options_at opts ~i ~j > 0))
    (Board.cells Puzzles.easy)

let test_is_completed_stuck () =
  Alcotest.(check bool) "empty not completed" false
    (Rules.is_completed (Board.empty 3));
  let solved = Sudoku.Generate.solved_board 3 in
  Alcotest.(check bool) "solved completed" true (Rules.is_completed solved);
  let board = Board.empty 3 in
  let opts = Rules.all_options 9 in
  Alcotest.(check bool) "fresh board not stuck" false (Rules.is_stuck board opts);
  (* Zero out the options mask of an empty cell: stuck. *)
  let dead =
    Sacarray.With_loop.modarray opts
      [ (Sacarray.With_loop.range [| 0; 0 |] [| 1; 1 |], fun _ -> 0) ]
  in
  Alcotest.(check bool) "stuck" true (Rules.is_stuck board dead);
  (* On a 49x49 board, a cell whose one option is 49 (mask bit 48) is
     not stuck, and it is the most constrained cell. *)
  let board49 = Board.empty 7 in
  let only49 =
    Sacarray.With_loop.modarray (Rules.all_options 49)
      [ (Sacarray.With_loop.range [| 3; 5 |] [| 4; 6 |], fun _ -> 1 lsl 48) ]
  in
  Alcotest.(check bool) "only option 49: not stuck" false
    (Rules.is_stuck board49 only49);
  Alcotest.(check (list int)) "only option 49" [ 49 ]
    (Rules.options_at only49 ~i:3 ~j:5);
  Alcotest.(check (option (pair int int))) "only option 49: fewest options"
    (Some (3, 5)) (H.find_min_trues board49 only49)

let test_heuristics () =
  let board = Board.set (Board.empty 3) 0 0 1 in
  Alcotest.(check (option (pair int int))) "find_first skips givens"
    (Some (0, 1)) (H.find_first board);
  Alcotest.(check (option (pair int int))) "complete board"
    None (H.find_first (Sudoku.Generate.solved_board 3));
  let opts = Rules.init_options Puzzles.easy in
  (match H.find_min_trues Puzzles.easy opts with
  | None -> Alcotest.fail "expected a cell"
  | Some (i, j) ->
      let c = Rules.count_options_at opts ~i ~j in
      List.iter
        (fun (i', j', v) ->
          if v = 0 then
            Alcotest.(check bool) "minimum" true
              (Rules.count_options_at opts ~i:i' ~j:j' >= c))
        (Board.cells Puzzles.easy));
  Alcotest.(check (option (pair int int))) "min_trues on complete board" None
    (H.find_min_trues (Sudoku.Generate.solved_board 3) (Rules.all_options 9))

let test_solver_corpus () =
  List.iter
    (fun e ->
      let outcome = Solver.solve e.Puzzles.board in
      Alcotest.(check bool) (e.Puzzles.name ^ " solved") true outcome.Solver.solved;
      Alcotest.(check bool) (e.Puzzles.name ^ " valid solution") true
        (Board.solved outcome.Solver.board);
      (* The solution extends the givens. *)
      List.iter
        (fun (i, j, v) ->
          if v <> 0 then
            Alcotest.(check int) "given preserved" v
              (Board.get outcome.Solver.board i j))
        (Board.cells e.Puzzles.board))
    Puzzles.all

let test_solver_16x16 () =
  let outcome = Solver.solve Puzzles.sixteen in
  Alcotest.(check bool) "16x16 solved" true outcome.Solver.solved;
  Alcotest.(check bool) "16x16 valid" true (Board.solved outcome.Solver.board)

let test_solver_find_first_heuristic () =
  let outcome = Solver.solve ~choice:H.Find_first Puzzles.easy in
  Alcotest.(check bool) "solves with the naive heuristic" true
    outcome.Solver.solved

let test_solver_unsolvable () =
  (* A valid but unsolvable configuration: cell (0,0) sees 1,2,3 in its
     row, 4,5,6 in its column and 7,8,9 in its sub-board, so no number
     fits — the search gets stuck, as the paper's solve reports. *)
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
  Alcotest.(check bool) "configuration is valid" true (Board.valid board);
  let opts = Rules.init_options board in
  Alcotest.(check int) "corner cell has no options" 0
    (Rules.count_options_at opts ~i:0 ~j:0);
  let outcome = Solver.solve board in
  Alcotest.(check bool) "unsolvable reported" false outcome.Solver.solved

let test_count_solutions () =
  Alcotest.(check int) "classic example is unique" 1
    (Solver.count_solutions ~limit:2 Puzzles.easy);
  Alcotest.(check bool) "empty board has many" true
    (Solver.count_solutions ~limit:3 (Board.empty 2) >= 3)

let test_solver_already_solved () =
  let solved = Sudoku.Generate.solved_board 3 in
  let outcome = Solver.solve solved in
  Alcotest.(check bool) "still solved" true outcome.Solver.solved;
  Alcotest.(check bool) "unchanged" true (Board.equal solved outcome.Solver.board)

let test_generate () =
  List.iter
    (fun n ->
      let b = Sudoku.Generate.solved_board n in
      Alcotest.(check bool) (Printf.sprintf "solved_board %d" n) true (Board.solved b))
    [ 2; 3; 4 ];
  let p = Sudoku.Generate.puzzle ~seed:5 ~n:3 ~holes:40 () in
  Alcotest.(check int) "holes dug" (81 - 40) (Board.count_filled p);
  Alcotest.(check bool) "still valid" true (Board.valid p);
  let o = Solver.solve p in
  Alcotest.(check bool) "solvable by construction" true o.Solver.solved;
  let r = Sudoku.Generate.relabel ~seed:9 (Sudoku.Generate.solved_board 3) in
  Alcotest.(check bool) "relabel preserves validity" true (Board.solved r);
  Alcotest.(check bool) "same seed, same puzzle" true
    (Board.equal p (Sudoku.Generate.puzzle ~seed:5 ~n:3 ~holes:40 ()));
  Alcotest.(check bool) "too many holes" true
    (try ignore (Sudoku.Generate.puzzle ~n:2 ~holes:17 ()); false
     with Invalid_argument _ -> true)

let test_data_parallel_rules () =
  let pool = Scheduler.Pool.create ~num_domains:2 () in
  Fun.protect
    ~finally:(fun () -> Scheduler.Pool.shutdown pool)
    (fun () ->
      (* add_number with a pool computes exactly the same arrays. *)
      let b0 = Board.empty 3 and o0 = Rules.all_options 9 in
      let b1, o1 = Rules.add_number ~i:2 ~j:3 ~k:5 b0 o0 in
      let b2, o2 = Rules.add_number ~pool ~i:2 ~j:3 ~k:5 b0 o0 in
      Alcotest.(check bool) "boards agree" true (Board.equal b1 b2);
      Alcotest.(check bool) "options agree" true (Nd.equal Int.equal o1 o2);
      let s1 = Solver.solve Puzzles.easy in
      let s2 = Solver.solve ~pool Puzzles.easy in
      Alcotest.(check bool) "solver agrees under parallel with-loops" true
        (Board.equal s1.Solver.board s2.Solver.board))

(* ------------------------------------------------------------------ *)
(* Differential test of the flat-offset kernels against a naive
   reference written per index through Nd.get, straight from the
   paper's definitions on its [s; s; s] boolean options cube; the
   packed options are compared through Board.options_nd. The e2e
   oracles cannot catch a kernel bug: fig2's reference runs Engine_seq
   on the same kernels. *)

let ref_is_completed b =
  let s = Board.side b in
  let ok = ref true in
  for i = 0 to s - 1 do
    for j = 0 to s - 1 do
      if Nd.get b [| i; j |] = 0 then ok := false
    done
  done;
  !ok

let ref_options o i j =
  let s = (Nd.shape o).(0) in
  List.filter (fun k -> Nd.get o [| i; j; k - 1 |]) (List.init s (fun k -> k + 1))

let ref_count_options o i j = List.length (ref_options o i j)

let ref_is_stuck b o =
  let s = Board.side b in
  let stuck = ref false in
  for i = 0 to s - 1 do
    for j = 0 to s - 1 do
      if Nd.get b [| i; j |] = 0 && ref_count_options o i j = 0 then
        stuck := true
    done
  done;
  !stuck

(* The first empty cell in row-major order with the fewest options. *)
let ref_find_min_trues b o =
  let s = Board.side b in
  let best = ref None in
  for i = 0 to s - 1 do
    for j = 0 to s - 1 do
      if Nd.get b [| i; j |] = 0 then
        let c = ref_count_options o i j in
        match !best with
        | Some (_, _, bc) when bc <= c -> ()
        | _ -> best := Some (i, j, c)
    done
  done;
  Option.map (fun (i, j, _) -> (i, j)) !best

let ref_count_filled b =
  let s = Board.side b in
  let n = ref 0 in
  for i = 0 to s - 1 do
    for j = 0 to s - 1 do
      if Nd.get b [| i; j |] <> 0 then incr n
    done
  done;
  !n

(* addNumber: k at (i, j) removes every option of the cell and option
   k from its row, column and sub-board. *)
let ref_add_number ~i ~j ~k b o =
  let s = Board.side b and n = Board.box_size b in
  let b' =
    Nd.init [| s; s |] (fun iv ->
        if iv.(0) = i && iv.(1) = j then k else Nd.get b iv)
  in
  let o' =
    Nd.init [| s; s; s |] (fun iv ->
        let i', j', k' = (iv.(0), iv.(1), iv.(2)) in
        let same_box = i' / n = i / n && j' / n = j / n in
        let eliminated =
          (i' = i && j' = j) || (k' = k - 1 && (i' = i || j' = j || same_box))
        in
        (not eliminated) && Nd.get o iv)
  in
  (b', o')

(* A reachable state: a generated puzzle, its options, then a random
   sequence of legal placements (a still-possible number at an empty
   cell), checking every kernel against the reference at each state,
   sequentially and on a 2-domain pool. *)
let kernels_match_reference ?(steps = 12) pool (n, seed, hole_pct, walk_seed) =
  let s = n * n in
  let holes = s * s * hole_pct / 100 in
  let board = Sudoku.Generate.puzzle ~seed ~n ~holes () in
  let opts = Rules.init_options board in
  let ref_opts =
    List.fold_left
      (fun o (i, j, k) -> snd (ref_add_number ~i ~j ~k board o))
      (Nd.create [| s; s; s |] true)
      (Board.filled board)
  in
  let rng = Random.State.make [| walk_seed |] in
  (* [o] is packed, [oc] the same options as the reference's cube. *)
  let agree pool b o oc =
    Rules.is_stuck ?pool b o = ref_is_stuck b oc
    && Rules.is_completed ?pool b = ref_is_completed b
    && H.find_min_trues b o = ref_find_min_trues b oc
    && Board.count_filled b = ref_count_filled b
    && List.for_all
         (fun c ->
           let i = c / s and j = c mod s in
           Rules.count_options_at o ~i ~j = ref_count_options oc i j
           && Rules.options_at o ~i ~j = ref_options oc i j)
         (List.init (s * s) Fun.id)
  in
  let rec go steps b o =
    let oc = Board.options_nd o in
    agree None b o oc && agree (Some pool) b o oc
    &&
    let moves =
      List.concat_map
        (fun c ->
          let i = c / s and j = c mod s in
          if Nd.get b [| i; j |] <> 0 then []
          else List.map (fun k -> (i, j, k)) (ref_options oc i j))
        (List.init (s * s) Fun.id)
    in
    steps = 0 || moves = []
    ||
    let i, j, k = List.nth moves (Random.State.int rng (List.length moves)) in
    let rb, ro = ref_add_number ~i ~j ~k b oc in
    let b1, o1 = Rules.add_number ~i ~j ~k b o in
    let b2, o2 = Rules.add_number ~pool ~i ~j ~k b o in
    Board.equal b1 rb && Board.equal b2 rb
    && Nd.equal Bool.equal (Board.options_nd o1) ro
    && Nd.equal Bool.equal (Board.options_nd o2) ro
    && go (steps - 1) b1 o1
  in
  Nd.equal Bool.equal (Board.options_nd opts) ref_opts && go steps board opts

let prop_kernels_match_reference pool =
  QCheck.Test.make ~name:"kernels match the per-index reference" ~count:40
    (QCheck.make
       QCheck.Gen.(
         quad (int_range 2 4) (int_range 0 10_000) (int_range 0 100)
           (int_range 0 10_000)))
    (kernels_match_reference pool)

let test_kernels_differential () =
  let pool = Scheduler.Pool.create ~num_domains:2 () in
  Fun.protect
    ~finally:(fun () -> Scheduler.Pool.shutdown pool)
    (fun () ->
      QCheck.Test.check_exn
        ~rand:(Seeded.state ())
        (prop_kernels_match_reference pool);
      (* One fixed 49x49 state (n = 7, the widest box size masks
         hold) and one placement from it: numbers 33 .. 49 use mask
         bits 32 .. 48, which n <= 4 never reaches. *)
      Alcotest.(check bool) "n = 7 matches the reference" true
        (kernels_match_reference ~steps:1 pool (7, 3, 97, 11)))

let raises f =
  try
    f ();
    false
  with Invalid_argument _ -> true

(* The shape check made once per call, and the coordinate checks. *)
let test_kernel_contracts () =
  let board = Board.empty 3 and opts = Rules.all_options 9 in
  let big = Board.empty 8 in
  let wrong = Nd.create [| 9; 8 |] 511 in
  let short = Rules.all_options 4 in
  List.iter
    (fun (name, f) -> Alcotest.(check bool) name true (raises f))
    [
      ("is_stuck: wrong shape", fun () -> ignore (Rules.is_stuck board wrong));
      ("is_stuck: other side", fun () -> ignore (Rules.is_stuck board short));
      ( "find_min_trues: wrong shape",
        fun () -> ignore (H.find_min_trues board wrong) );
      ( "add_number: wrong shape",
        fun () -> ignore (Rules.add_number ~i:0 ~j:0 ~k:1 board wrong) );
      ( "count_options_at: wrong shape",
        fun () -> ignore (Rules.count_options_at wrong ~i:0 ~j:0) );
      ( "count_options_at: row 9",
        fun () -> ignore (Rules.count_options_at opts ~i:9 ~j:0) );
      ( "count_options_at: column -1",
        fun () -> ignore (Rules.count_options_at opts ~i:0 ~j:(-1)) );
      ("options_at: row 9", fun () -> ignore (Rules.options_at opts ~i:9 ~j:0));
      ("Board.get: row 9", fun () -> ignore (Board.get board 9 0));
      ("Board.get: column -1", fun () -> ignore (Board.get board 0 (-1)));
      ( "is_completed: not square",
        fun () -> ignore (Rules.is_completed (Nd.create [| 9; 8 |] 0)) );
      ( "count_filled: not square",
        fun () -> ignore (Board.count_filled (Nd.create [| 9; 8 |] 0)) );
      ( "is_stuck: options cube",
        fun () -> ignore (Rules.is_stuck board (Nd.create [| 9; 9; 9 |] 1)) );
      ( "possible: number 10",
        fun () -> ignore (Rules.possible opts ~i:0 ~j:0 ~k:10) );
      ("possible: row 9", fun () -> ignore (Rules.possible opts ~i:9 ~j:0 ~k:1));
      (* A mask holds at most 62 numbers: a 64x64 board parses, but no
         options exist for it. *)
      ("all_options: side 64", fun () -> ignore (Rules.all_options 64));
      ("all_options: side 63", fun () -> ignore (Rules.all_options 63));
      ( "opts_side: side 64",
        fun () -> ignore (Board.opts_side (Nd.create [| 64; 64 |] 0)) );
      ( "opts_side: 64x64 board",
        fun () -> ignore (Board.opts_side ~board:big (Nd.create [| 64; 64 |] 0)) );
      ("init_options: 64x64 board", fun () -> ignore (Rules.init_options big));
    ];
  (* The widest side accepted: every mask has bits 0 .. 61 set. *)
  let widest = Rules.all_options 62 in
  Alcotest.(check int) "side 62: all numbers possible" 62
    (Rules.count_options_at widest ~i:61 ~j:61);
  Alcotest.(check bool) "side 62: number 62 possible" true
    (Rules.possible widest ~i:0 ~j:0 ~k:62)

let suite =
  [
    Alcotest.test_case "board basics" `Quick test_board_basics;
    Alcotest.test_case "parse 9x9" `Quick test_board_parse_9x9;
    Alcotest.test_case "parse grids" `Quick test_board_parse_grid;
    Alcotest.test_case "validity" `Quick test_board_validity;
    Alcotest.test_case "pretty printing" `Quick test_board_to_string_roundtrip;
    Alcotest.test_case "addNumber eliminations (paper)" `Quick test_add_number_eliminations;
    Alcotest.test_case "addNumber validation" `Quick test_add_number_validation;
    Alcotest.test_case "init_options" `Quick test_init_options;
    Alcotest.test_case "isCompleted/isStuck" `Quick test_is_completed_stuck;
    Alcotest.test_case "heuristics" `Quick test_heuristics;
    Alcotest.test_case "solver on the corpus" `Quick test_solver_corpus;
    Alcotest.test_case "solver on 16x16" `Quick test_solver_16x16;
    Alcotest.test_case "solver with findFirst" `Quick test_solver_find_first_heuristic;
    Alcotest.test_case "unsolvable boards" `Quick test_solver_unsolvable;
    Alcotest.test_case "count_solutions" `Quick test_count_solutions;
    Alcotest.test_case "already solved input" `Quick test_solver_already_solved;
    Alcotest.test_case "generator" `Quick test_generate;
    Alcotest.test_case "data-parallel rules agree" `Quick test_data_parallel_rules;
    Alcotest.test_case "kernels match reference" `Quick test_kernels_differential;
    Alcotest.test_case "kernel shape checks" `Quick test_kernel_contracts;
  ]
