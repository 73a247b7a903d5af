(* faults: the supervision layer. The error-record machinery's
   overhead on the no-failure path (bar: <= 10%), and the throughput of
   a flaky pipeline under error-record and retry on both engines.
   Writes BENCH_faults.json. *)

open Bechamel
open Bench_core

let flaky_net () =
  let box name f =
    Snet.Net.box
      (Snet.Box.make ~name ~input:[ Snet.Box.T "x" ]
         ~outputs:[ [ Snet.Box.T "x" ] ]
         (fun ~emit -> function
           | [ Snet.Box.Tag x ] -> emit 1 [ Snet.Box.Tag (f x) ]
           | _ -> assert false))
  in
  Snet.Net.serial
    (box "flaky" (fun x ->
         if x mod 10 = 0 then failwith "injected fault" else x * 3))
    (box "shift" (fun x -> x + 1))

let run () =
  let r = report "faults" in
  let record_cfg = Snet.Supervise.make ~policy:Snet.Supervise.Error_record () in
  (* (a) No-failure path: fig2/medium under the default [Fail_fast]
     fast path vs the full [Error_record] machinery, in paired rounds. *)
  let board = board_of "medium" in
  let net = net_of "fig2" in
  let inputs () = [ Sudoku.Boxes.inject_board board ] in
  let rounds = if smoke then 9 else 15 and reps = if smoke then 4 else 6 in
  List.iter
    (fun (eng, fail_fast, error_record) ->
      let _, _, overhead =
        paired r ("no_failure." ^ eng) ~rounds ~reps
          ("fail_fast", fun () -> fail_fast)
          ("error_record", fun () -> error_record)
      in
      bar r ("no_failure_overhead_" ^ eng) ~value:overhead ~limit:0.10)
    [
      ( "seq",
        (fun () -> Snet.Engine_seq.run net (inputs ())),
        fun () -> Snet.Engine_seq.run ~supervision:record_cfg net (inputs ()) );
      ( "conc",
        (fun () -> run_network_conc net board),
        fun () ->
          Snet.Engine_conc.run ~pool:(Lazy.force conc_pool)
            ~supervision:record_cfg net (inputs ()) );
    ];
  (* (b) Failure path: a two-box pipeline whose first box fails on
     every 10th record, so throughput includes building error records
     and routing them past the second box. *)
  let n_inputs = if smoke then 40 else 200 in
  let inputs =
    List.init n_inputs (fun i ->
        Snet.Record.of_list ~fields:[] ~tags:[ ("x", i) ])
  in
  let retry_cfg = Snet.Supervise.make ~policy:(Snet.Supervise.Retry 2) () in
  bench ~into:r ~quota:1.0
    (Printf.sprintf "flaky pipeline, %d records, 1-in-10 failing" n_inputs)
    [
      Test.make ~name:"flaky/seq/error-record"
        (Staged.stage (fun () ->
             Snet.Engine_seq.run ~supervision:record_cfg (flaky_net ())
               inputs));
      Test.make ~name:"flaky/seq/retry:2"
        (Staged.stage (fun () ->
             Snet.Engine_seq.run ~supervision:retry_cfg (flaky_net ()) inputs));
      Test.make ~name:"flaky/conc/error-record"
        (Staged.stage (fun () ->
             Snet.Engine_conc.run ~pool:(Lazy.force conc_pool)
               ~supervision:record_cfg (flaky_net ()) inputs));
    ];
  (* One instrumented run, for the supervision counters and per-box
     latency percentiles. *)
  let stats = Snet.Stats.create () in
  let outs, lat =
    spans_of ~cat:"box" (fun () ->
        Snet.Engine_conc.run ~pool:(Lazy.force conc_pool) ~stats
          ~supervision:record_cfg (flaky_net ()) inputs)
  in
  let s = Snet.Stats.snapshot stats in
  int r "flaky_run.outputs" (List.length outs);
  int r "flaky_run.error_records"
    (List.length (List.filter Snet.Supervise.is_error outs));
  int r "flaky_run.box_errors" s.Snet.Stats.box_errors;
  int r "flaky_run.box_retries" s.Snet.Stats.box_retries;
  int r "flaky_run.backpressure_stalls" s.Snet.Stats.backpressure_stalls;
  spans r "box_latency_ns" lat;
  finish r
