type outcome = {
  board : Board.t;
  opts : Board.opts;
  placed : int;
  contradiction : bool;
}

let naked_singles ?pool board opts =
  let s = Board.side board in
  let board = ref board and opts = ref opts in
  let placed = ref 0 and contradiction = ref false in
  for i = 0 to s - 1 do
    for j = 0 to s - 1 do
      if Board.get !board i j = 0 then begin
        match Rules.options_at !opts ~i ~j with
        | [ k ] ->
            let b, o = Rules.add_number ?pool ~i ~j ~k !board !opts in
            board := b;
            opts := o;
            incr placed
        | [] -> contradiction := true
        | _ -> ()
      end
    done
  done;
  { board = !board; opts = !opts; placed = !placed; contradiction = !contradiction }

(* The cells of the [g]-th house: row g, column g, or sub-board g. *)
let house_cells ~s ~n kind g =
  match kind with
  | `Row -> List.init s (fun j -> (g, j))
  | `Col -> List.init s (fun i -> (i, g))
  | `Box ->
      let bi = g / n * n and bj = g mod n * n in
      List.init s (fun c -> (bi + (c / n), bj + (c mod n)))

let hidden_singles ?pool board opts =
  let s = Board.side board in
  let n = Board.box_size board in
  let board = ref board and opts = ref opts in
  let placed = ref 0 and contradiction = ref false in
  let scan kind =
    for g = 0 to s - 1 do
      let cells = house_cells ~s ~n kind g in
      for k = 1 to s do
        (* Where is number k still possible in this house? *)
        let possible =
          List.filter
            (fun (i, j) ->
              Board.get !board i j = 0 && Rules.possible !opts ~i ~j ~k)
            cells
        in
        let already_placed =
          List.exists (fun (i, j) -> Board.get !board i j = k) cells
        in
        match possible with
        | [ (i, j) ] when not already_placed ->
            let b, o = Rules.add_number ?pool ~i ~j ~k !board !opts in
            board := b;
            opts := o;
            incr placed
        | [] when not already_placed -> contradiction := true
        | _ -> ()
      done
    done
  in
  scan `Row;
  scan `Col;
  scan `Box;
  { board = !board; opts = !opts; placed = !placed; contradiction = !contradiction }

let fixpoint ?pool board opts =
  let rec go board opts placed =
    let nk = naked_singles ?pool board opts in
    if nk.contradiction then { nk with placed = placed + nk.placed }
    else begin
      let hd = hidden_singles ?pool nk.board nk.opts in
      let placed = placed + nk.placed + hd.placed in
      if hd.contradiction then { hd with placed }
      else if nk.placed + hd.placed = 0 then { hd with placed }
      else go hd.board hd.opts placed
    end
  in
  go board opts 0

let propagate_box ?pool () =
  Snet.Box.make ~name:"propagate"
    ~input:[ F "board"; F "opts" ]
    ~outputs:[ [ F "board"; F "opts" ] ]
    (fun ~emit args ->
      match args with
      | [ Snet.Box.Field b; Snet.Box.Field o ] ->
          let board = Snet.Value.project_exn Boxes.board_field b in
          let opts = Snet.Value.project_exn Boxes.opts_field o in
          let r = fixpoint ?pool board opts in
          emit 1
            [
              Snet.Box.Field (Snet.Value.inject Boxes.board_field r.board);
              Snet.Box.Field (Snet.Value.inject Boxes.opts_field r.opts);
            ]
      | _ -> invalid_arg "propagate: expected (board, opts)")

let fig1_propagating ?pool ?det () =
  let body =
    Snet.Net.serial
      (Snet.Net.box (propagate_box ?pool ()))
      (Snet.Net.box (Boxes.solve_one_level ?pool ()))
  in
  Snet.Net.serial
    (Snet.Net.box (Boxes.compute_opts ?pool ()))
    (Snet.Net.star ?det body (Snet.Pattern.make ~fields:[] ~tags:[ "done" ] ()))
