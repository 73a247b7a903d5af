module Value = Snet.Value
module Record = Snet.Record
module Box = Snet.Box

let board_field : Board.t Value.Key.key =
  Value.Key.create ~to_string:(fun b ->
      Printf.sprintf "board[%d filled]" (Board.count_filled b))
    "board"

let opts_field : Board.opts Value.Key.key =
  Value.Key.create ~to_string:(fun _ -> "opts") "opts"

let inject_board board =
  Record.of_list
    ~fields:[ ("board", Value.inject board_field board) ]
    ~tags:[]

let board_of_record r =
  Value.project_exn board_field (Record.field_exn "board" r)

let opts_of_record r =
  Value.project_exn opts_field (Record.field_exn "opts" r)

let board_arg board = Box.Field (Value.inject board_field board)
let opts_arg opts = Box.Field (Value.inject opts_field opts)

let project_board_opts name args =
  match args with
  | [ Box.Field b; Box.Field o ] ->
      (Value.project_exn board_field b, Value.project_exn opts_field o)
  | _ -> invalid_arg (name ^ ": expected (board, opts) arguments")

let compute_opts ?pool () =
  Box.make ~name:"computeOpts" ~input:[ F "board" ]
    ~outputs:[ [ F "board"; F "opts" ] ]
    (fun ~emit args ->
      match args with
      | [ Box.Field b ] ->
          let board = Value.project_exn board_field b in
          let opts = Rules.init_options ?pool board in
          emit 1 [ board_arg board; opts_arg opts ]
      | _ -> invalid_arg "computeOpts: expected (board)")

(* The shared search step: try every still-possible number at the most
   constrained free cell; call [child] for each new (board, opts)
   state, stopping the loop once a placement completes the board, as
   the paper's for-loop guard does. [completed] handles an input board
   that is already solved. As in the mini-SaC [solveOneLevel(K)]
   (lib/saclang/sac_sudoku.ml), each child's [isCompleted] is evaluated
   once: [child ~completed] gets the value that also stops the loop. *)
let one_level ?pool ~completed ~child board opts =
  if Rules.is_completed ?pool board then completed board opts
  else if not (Rules.is_stuck ?pool board opts) then begin
    match Heuristics.find_min_trues board opts with
    | None -> ()
    | Some (i, j) ->
        let s = Board.side board in
        let mem_board = board and mem_opts = opts in
        let continue_loop = ref true in
        for k = 1 to s do
          if !continue_loop && Rules.possible mem_opts ~i ~j ~k then begin
            let board', opts' =
              Rules.add_number ?pool ~i ~j ~k mem_board mem_opts
            in
            let completed = Rules.is_completed ?pool board' in
            child ~completed ~k board' opts';
            if completed then continue_loop := false
          end
        done
  end

let solve_one_level ?pool () =
  Box.make ~name:"solveOneLevel"
    ~input:[ F "board"; F "opts" ]
    ~outputs:[ [ F "board"; F "opts" ]; [ F "board"; T "done" ] ]
    (fun ~emit args ->
      let board, opts = project_board_opts "solveOneLevel" args in
      one_level ?pool
        ~completed:(fun b _ -> emit 2 [ board_arg b; Box.Tag 1 ])
        ~child:(fun ~completed ~k:_ b o ->
          if completed then emit 2 [ board_arg b; Box.Tag 1 ]
          else emit 1 [ board_arg b; opts_arg o ])
        board opts)

let solve_one_level_k ?pool () =
  Box.make ~name:"solveOneLevelK"
    ~input:[ F "board"; F "opts" ]
    ~outputs:
      [ [ F "board"; F "opts"; T "k" ]; [ F "board"; T "done" ] ]
    (fun ~emit args ->
      let board, opts = project_board_opts "solveOneLevelK" args in
      one_level ?pool
        ~completed:(fun b _ -> emit 2 [ board_arg b; Box.Tag 1 ])
        ~child:(fun ~completed ~k b o ->
          if completed then emit 2 [ board_arg b; Box.Tag 1 ]
          else emit 1 [ board_arg b; opts_arg o; Box.Tag k ])
        board opts)

let solve_one_level_level ?pool () =
  Box.make ~name:"solveOneLevelL"
    ~input:[ F "board"; F "opts" ]
    ~outputs:[ [ F "board"; F "opts"; T "k"; T "level" ] ]
    (fun ~emit args ->
      let board, opts = project_board_opts "solveOneLevelL" args in
      one_level ?pool
        ~completed:(fun b o ->
          emit 1
            [ board_arg b; opts_arg o; Box.Tag 0; Box.Tag (Board.count_filled b) ])
        ~child:(fun ~completed:_ ~k b o ->
          emit 1
            [ board_arg b; opts_arg o; Box.Tag k; Box.Tag (Board.count_filled b) ])
        board opts)

let solve_box ?pool () =
  Box.make ~name:"solve"
    ~input:[ F "board"; F "opts" ]
    ~outputs:[ [ F "board"; F "opts" ] ]
    (fun ~emit args ->
      let board, opts = project_board_opts "solve" args in
      let outcome = Solver.solve_from ?pool board opts in
      emit 1 [ board_arg outcome.Solver.board; opts_arg outcome.Solver.opts ])
