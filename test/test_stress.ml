(* Stress and scale: larger record volumes, deep stars, bigger boards —
   slower than the unit tests but still bounded.

   Sizes come in two tiers: the default keeps `dune runtest` snappy;
   `SNET_STRESS=1` (the @stress alias) switches every case to its full
   size. Time-driven load (retry backoff storms) instead runs on the
   virtual clock, where the full workload costs microseconds of wall
   time regardless. *)

module Net = Snet.Net
module Box = Snet.Box
module P = Snet.Pattern
module Record = Snet.Record

let stress = Sys.getenv_opt "SNET_STRESS" <> None
let scaled ~light ~heavy = if stress then heavy else light

let with_pool n f =
  let pool = Scheduler.Pool.create ~num_domains:n () in
  Fun.protect ~finally:(fun () -> Scheduler.Pool.shutdown pool) (fun () ->
      f pool)

let tags_of name records = List.filter_map (Record.tag name) records

let inc =
  Box.make ~name:"inc" ~input:[ T "x" ] ~outputs:[ [ T "x" ] ]
    (fun ~emit -> function
      | [ Tag x ] -> emit 1 [ Tag (x + 1) ]
      | _ -> assert false)

let countdown =
  Box.make ~name:"countdown" ~input:[ T "x" ]
    ~outputs:[ [ T "x" ]; [ T "x"; T "done" ] ]
    (fun ~emit -> function
      | [ Tag x ] ->
          if x <= 0 then emit 2 [ Tag 0; Tag 1 ] else emit 1 [ Tag (x - 1) ]
      | _ -> assert false)

let done_pattern = P.make ~fields:[] ~tags:[ "done" ] ()

let test_many_records_all_engines () =
  let n = scaled ~light:500 ~heavy:2000 in
  let net = Net.serial_list (List.init 5 (fun _ -> Net.box inc)) in
  let inputs = List.init n (fun i -> Snet.record ~tags:[ ("x", i) ] ()) in
  let expected = List.init n (fun i -> i + 5) in
  Alcotest.(check (list int)) "seq" expected
    (tags_of "x" (Snet.Engine_seq.run net inputs));
  with_pool 2 (fun pool ->
      Alcotest.(check (list int)) "actors" expected
        (tags_of "x" (Snet.Engine_conc.run ~pool net inputs)))

let test_deep_star () =
  (* Up to 300 pipeline stages — well past the paper's 81. *)
  let depth = scaled ~light:120 ~heavy:300 in
  let net = Net.star (Net.box countdown) done_pattern in
  let stats = Snet.Stats.create () in
  let out =
    Snet.Engine_seq.run ~stats net [ Snet.record ~tags:[ ("x", depth - 1) ] () ]
  in
  Alcotest.(check int) "one result" 1 (List.length out);
  Alcotest.(check int) "star depth" depth
    (Snet.Stats.snapshot stats).Snet.Stats.max_star_depth;
  with_pool 2 (fun pool ->
      Alcotest.(check int) "actor engine too" 1
        (List.length
           (Snet.Engine_conc.run ~pool net
              [ Snet.record ~tags:[ ("x", depth - 1) ] () ])))

let test_wide_split () =
  let replicas = scaled ~light:32 ~heavy:128 in
  let records = scaled ~light:128 ~heavy:512 in
  let net = Net.split (Net.box inc) "k" in
  let inputs =
    List.init records (fun i ->
        Snet.record ~tags:[ ("x", i); ("k", i mod replicas) ] ())
  in
  let stats = Snet.Stats.create () in
  let out = Snet.Engine_seq.run ~stats net inputs in
  Alcotest.(check int) "all processed" records (List.length out);
  Alcotest.(check int) "replica count" replicas
    (Snet.Stats.snapshot stats).Snet.Stats.split_replicas

let test_16x16_network () =
  (* The paper's motivation: bigger boards. A near-complete 16x16
     puzzle through Figure 1. *)
  let board =
    Sudoku.Generate.puzzle ~seed:3 ~n:4
      ~holes:(scaled ~light:12 ~heavy:18)
      ()
  in
  let out =
    Snet.Engine_seq.run (Sudoku.Networks.fig1 ())
      [ Sudoku.Boxes.inject_board board ]
  in
  let sols = Sudoku.Networks.solved_boards out in
  Alcotest.(check bool) "16x16 solved through the network" true (sols <> []);
  List.iter
    (fun b -> Alcotest.(check int) "side 16" 16 (Sudoku.Board.side b))
    sols

let test_deterministic_under_load () =
  with_pool 2 (fun pool ->
      let net =
        Net.split ~det:true
          (Net.star ~det:true (Net.box countdown) done_pattern)
          "k"
      in
      let inputs =
        List.init
          (scaled ~light:100 ~heavy:300)
          (fun i -> Snet.record ~tags:[ ("x", i mod 17); ("k", i mod 5) ] ())
      in
      let expected = tags_of "x" (Snet.Engine_seq.run net inputs) in
      Alcotest.(check (list int)) "det nesting at volume" expected
        (tags_of "x" (Snet.Engine_conc.run ~pool net inputs)))

(* Time-driven load on the virtual clock: a retry storm whose
   backoffs sum to seconds of VIRTUAL time — 4 exhausted retries on
   every one of 200 records — runs in milliseconds of wall time under
   the virtual scheduler, so the full size needs no @stress gate. *)
let test_retry_storm_virtual_clock () =
  let module Sv = Detcheck.Sched_virtual in
  let always_fail =
    Box.make ~name:"alwaysFail" ~policy:(Snet.Supervise.Retry 4)
      ~input:[ T "x" ] ~outputs:[ [ T "x" ] ]
      (fun ~emit:_ _ -> failwith "always fails")
  in
  let n = 200 in
  let inputs = List.init n (fun i -> Snet.record ~tags:[ ("x", i) ] ()) in
  let res, _ =
    Sv.run
      ~strategy:(Detcheck.Strategy.random ~seed:0)
      (fun sched ->
        let t0 = Scheduler.Clock.now () in
        let out =
          Snet.Engine_conc.run ~exec:(Sv.exec sched) (Net.box always_fail)
            inputs
        in
        (out, Scheduler.Clock.now () -. t0))
  in
  match res with
  | Error e -> raise e
  | Ok (out, virtual_elapsed) ->
      Alcotest.(check int) "every record becomes an error record" n
        (List.length (List.filter Snet.Supervise.is_error out));
      (* 1+2+4+8 ms of backoff per record: 3 virtual seconds total. *)
      Alcotest.(check bool)
        (Printf.sprintf "virtual backoff time ~3s (got %.3fs)" virtual_elapsed)
        true
        (virtual_elapsed >= 2.9)

let suite =
  [
    Alcotest.test_case "record volume, all engines" `Slow
      test_many_records_all_engines;
    Alcotest.test_case "deep star" `Slow test_deep_star;
    Alcotest.test_case "wide split" `Slow test_wide_split;
    Alcotest.test_case "16x16 board through fig1" `Slow test_16x16_network;
    Alcotest.test_case "determinism under load" `Slow
      test_deterministic_under_load;
    Alcotest.test_case "retry storm on the virtual clock" `Quick
      test_retry_storm_virtual_clock;
  ]
