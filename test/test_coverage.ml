(* Assorted coverage of API surface not central to other suites. *)

module Net = Snet.Net
module Box = Snet.Box
module Record = Snet.Record

let test_stats_pp () =
  let s = Snet.Stats.create () in
  Snet.Stats.record_box_invocation s;
  Snet.Stats.record_emission s 3;
  Snet.Stats.record_star_stage s ~depth:2;
  Snet.Stats.record_star_stage s ~depth:1 (* max stays 2 *);
  let str = Format.asprintf "%a" Snet.Stats.pp (Snet.Stats.snapshot s) in
  Alcotest.(check bool) "renders" true (String.length str > 20);
  Alcotest.(check int) "max depth kept" 2
    (Snet.Stats.snapshot s).Snet.Stats.max_star_depth

let test_net_traversal () =
  let b name =
    Box.make ~name ~input:[ Box.T "x" ] ~outputs:[ [ Box.T "x" ] ]
      (fun ~emit:_ _ -> ())
  in
  let net =
    Net.serial (Net.box (b "a"))
      (Net.star
         (Net.split (Net.box (b "c")) "k")
         (Snet.Pattern.make ~fields:[] ~tags:[ "t" ] ()))
  in
  Alcotest.(check int) "two leaf components" 2 (Net.count_boxes net);
  let nodes = ref 0 in
  Net.iter_components (fun _ -> incr nodes) net;
  Alcotest.(check int) "five nodes" 5 !nodes

let test_value_to_string_fallback () =
  let key = Snet.Value.Key.create "mystery" in
  Alcotest.(check string) "no printer" "<mystery>"
    (Snet.Value.to_string (Snet.Value.inject key 42))

let test_record_compare_structure () =
  let a = Snet.record ~tags:[ ("x", 1) ] () in
  let b = Snet.record ~tags:[ ("x", 1) ] () in
  Alcotest.(check int) "equal structures" 0 (Record.compare_structure a b)

let test_channel_unclosed_of_list () =
  let recv_opt ch =
    match Streams.Channel.recv ch with `Msg v -> Some v | `Closed -> None
  in
  let ch = Streams.Channel.of_list ~close:false [ 1 ] in
  Alcotest.(check bool) "still open" false (Streams.Channel.is_closed ch);
  Alcotest.(check (option int)) "first" (Some 1) (recv_opt ch);
  Streams.Channel.send ch 2;
  Alcotest.(check (option int)) "second" (Some 2) (recv_opt ch)

let test_pool_default_configuration () =
  (* The global default pool is created on first use with the
     configured size. (Other suites may have touched it already, so we
     only check it is usable and stable.) *)
  Scheduler.Pool.set_default_num_domains 1;
  let p1 = Scheduler.Pool.default () in
  let p2 = Scheduler.Pool.default () in
  Alcotest.(check bool) "same pool" true (p1 == p2);
  Alcotest.(check int) "usable" 5 (Scheduler.Pool.run p1 (fun () -> 5))

let test_actor_names () =
  let pool = Scheduler.Pool.create ~num_domains:0 () in
  Fun.protect
    ~finally:(fun () -> Scheduler.Pool.shutdown pool)
    (fun () ->
      let sys = Streams.Actors.system ~pool () in
      let named = Streams.Actors.spawn sys ~name:"watcher" (fun () -> ()) in
      let anon = Streams.Actors.spawn sys (fun () -> ()) in
      Alcotest.(check string) "explicit name" "watcher" (Streams.Actors.name named);
      Alcotest.(check bool) "generated name" true
        (String.length (Streams.Actors.name anon) > 0);
      Alcotest.(check bool) "batch validation" true
        (try ignore (Streams.Actors.system ~pool ~batch:0 ()); false
         with Invalid_argument _ -> true))

let test_count_solutions_limit () =
  Alcotest.(check int) "limit respected" 5
    (Sudoku.Solver.count_solutions ~limit:5 (Sudoku.Board.empty 2))

let test_board_of_rows_errors () =
  Alcotest.(check bool) "out of range entry" true
    (try
       ignore
         (Sudoku.Board.of_rows
            [ [ 1; 2; 3; 9 ]; [ 3; 4; 1; 2 ]; [ 2; 1; 4; 3 ]; [ 4; 3; 2; 1 ] ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "non-square" true
    (try ignore (Sudoku.Board.of_rows [ [ 1; 2 ]; [ 2; 1 ]; [ 1; 2 ] ]); false
     with Invalid_argument _ -> true)

let test_generator_accessors () =
  let g = Sacarray.With_loop.range ~step:[| 2; 3 |] [| 0; 0 |] [| 4; 9 |] in
  Alcotest.(check int) "rank" 2 (Sacarray.With_loop.generator_rank g);
  Alcotest.(check int) "size" 6 (Sacarray.With_loop.generator_size g)

let test_engine_conc_stats_accessor () =
  let pool = Scheduler.Pool.create ~num_domains:0 () in
  Fun.protect
    ~finally:(fun () -> Scheduler.Pool.shutdown pool)
    (fun () ->
      let inc =
        Box.make ~name:"inc" ~input:[ Box.T "x" ] ~outputs:[ [ Box.T "x" ] ]
          (fun ~emit -> function
            | [ Tag x ] -> emit 1 [ Tag (x + 1) ]
            | _ -> assert false)
      in
      let inst = Snet.Engine_conc.start ~pool (Net.box inc) in
      Snet.Engine_conc.feed inst (Snet.record ~tags:[ ("x", 0) ] ());
      ignore (Snet.Engine_conc.finish inst);
      Alcotest.(check int) "one invocation" 1
        (Snet.Engine_conc.stats inst).Snet.Stats.box_invocations)

let suite =
  [
    Alcotest.test_case "stats pretty-printing" `Quick test_stats_pp;
    Alcotest.test_case "net traversal" `Quick test_net_traversal;
    Alcotest.test_case "value fallback printer" `Quick test_value_to_string_fallback;
    Alcotest.test_case "record structural compare" `Quick test_record_compare_structure;
    Alcotest.test_case "channel of_list unclosed" `Quick test_channel_unclosed_of_list;
    Alcotest.test_case "default pool" `Quick test_pool_default_configuration;
    Alcotest.test_case "actor names and batch" `Quick test_actor_names;
    Alcotest.test_case "count_solutions limit" `Quick test_count_solutions_limit;
    Alcotest.test_case "board construction errors" `Quick test_board_of_rows_errors;
    Alcotest.test_case "generator accessors" `Quick test_generator_accessors;
    Alcotest.test_case "engine_conc stats accessor" `Quick test_engine_conc_stats_accessor;
  ]
