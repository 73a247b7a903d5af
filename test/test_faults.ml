(* Supervision on the sequential and actor engines: error records, retry,
   timeouts, and the streams-layer failure/backpressure behaviour the
   supervision layer leans on. *)

module Net = Snet.Net
module Box = Snet.Box
module P = Snet.Pattern
module Record = Snet.Record
module Value = Snet.Value
module Sup = Snet.Supervise
module Seq_e = Snet.Engine_seq
module Conc_e = Snet.Engine_conc
module Channel = Streams.Channel
module Actors = Streams.Actors

let record ~f ~t =
  Record.of_list ~fields:(List.map (fun (n, v) -> (n, Value.of_int v)) f) ~tags:t

let xs_in values = List.map (fun x -> record ~f:[] ~t:[ ("x", x) ]) values
let tags_of name records = List.filter_map (Record.tag name) records

let with_pool n f =
  let pool = Scheduler.Pool.create ~num_domains:n () in
  Fun.protect ~finally:(fun () -> Scheduler.Pool.shutdown pool) (fun () ->
      f pool)

(* box flaky ((<x>) -> (<x>)): raises on every multiple of 10. *)
let flaky =
  Box.make ~name:"flaky" ~input:[ T "x" ] ~outputs:[ [ T "x" ] ]
    (fun ~emit -> function
      | [ Tag x ] ->
          if x mod 10 = 0 then failwith "injected fault"
          else emit 1 [ Tag (x * 3) ]
      | _ -> assert false)

let shift =
  Box.make ~name:"shift" ~input:[ T "x" ] ~outputs:[ [ T "x" ] ]
    (fun ~emit -> function
      | [ Tag x ] -> emit 1 [ Tag (x + 1) ]
      | _ -> assert false)

let flaky_net () = Net.serial (Net.box flaky) (Net.box shift)
let record_cfg = Sup.make ~policy:Sup.Error_record ()

(* Canonical multiset view: error-record fields render through their
   keys, so equal records print equally whichever engine built them. *)
let multiset records = List.sort compare (List.map Record.to_string records)

(* The acceptance scenario: a 1-in-10 failing box under [Error_record]
   yields the same multiset of success + error records on the
   sequential engine and on the actor engine with 2 worker domains and
   with none (every actor runs on the caller), and nothing hangs. *)
let test_error_record_all_engines () =
  let inputs = xs_in (List.init 30 (fun i -> i)) in
  let seq = Seq_e.run ~supervision:record_cfg (flaky_net ()) inputs in
  let conc n =
    with_pool n (fun pool ->
        Conc_e.run ~pool ~supervision:record_cfg (flaky_net ()) inputs)
  in
  let conc0 = conc 0 and conc = conc 2 in
  List.iter
    (fun (engine, outs) ->
      let errors = List.filter Sup.is_error outs in
      Alcotest.(check int) (engine ^ ": all records accounted") 30
        (List.length outs);
      Alcotest.(check int) (engine ^ ": three failures") 3
        (List.length errors);
      List.iter
        (fun e ->
          Alcotest.(check (option string)) (engine ^ ": origin box")
            (Some "flaky") (Sup.error_origin e);
          Alcotest.(check bool) (engine ^ ": message kept") true
            (match Sup.error_message e with
            | Some m -> Snet.Trace.contains ~needle:"injected fault" m
            | None -> false))
        errors)
    [ ("seq", seq); ("conc", conc); ("conc/0", conc0) ];
  Alcotest.(check (list string)) "seq = conc as multisets" (multiset seq)
    (multiset conc);
  Alcotest.(check (list string)) "seq = conc/0 as multisets" (multiset seq)
    (multiset conc0)

(* Error records flow-inherit the failing input: the <x> tag survives
   and the shift box downstream never sees the record. *)
let test_error_record_flow_inheritance () =
  let out = Seq_e.run ~supervision:record_cfg (flaky_net ()) (xs_in [ 10 ]) in
  match out with
  | [ e ] ->
      Alcotest.(check bool) "tagged <error>" true (Sup.is_error e);
      Alcotest.(check (option int)) "input tag inherited, not shifted"
        (Some 10) (Record.tag "x" e)
  | _ -> Alcotest.fail "expected exactly one error record"

let test_fail_fast_raises_everywhere () =
  let expect_failure engine run =
    Alcotest.(check bool) (engine ^ ": Failure propagates") true
      (try
         ignore (run (flaky_net ()) (xs_in [ 1; 10; 2 ]));
         false
       with Failure _ -> true)
  in
  expect_failure "seq" (fun net ins -> Seq_e.run net ins);
  List.iter
    (fun n ->
      with_pool n (fun pool ->
          expect_failure (Printf.sprintf "conc/%d" n) (fun net ins ->
              Conc_e.run ~pool net ins)))
    [ 2; 0 ]

(* Retry: a box that fails twice per record then succeeds recovers
   under [Retry 3] with no error records; the stats show the retries. *)
let test_retry_recovers () =
  let attempts = Hashtbl.create 8 in
  let eventually =
    Box.make ~name:"eventually" ~input:[ T "x" ] ~outputs:[ [ T "x" ] ]
      (fun ~emit -> function
        | [ Tag x ] ->
            let seen =
              Option.value ~default:0 (Hashtbl.find_opt attempts x)
            in
            Hashtbl.replace attempts x (seen + 1);
            if seen < 2 then failwith "transient" else emit 1 [ Tag x ]
        | _ -> assert false)
  in
  let stats = Snet.Stats.create () in
  let out =
    Seq_e.run ~stats
      ~supervision:(Sup.make ~policy:(Sup.Retry 3) ())
      (Net.box eventually) (xs_in [ 1; 2 ])
  in
  Alcotest.(check (list int)) "both recover" [ 1; 2 ] (tags_of "x" out);
  let s = Snet.Stats.snapshot stats in
  Alcotest.(check int) "two retries per record" 4 s.Snet.Stats.box_retries;
  Alcotest.(check int) "no exhausted failures" 0 s.Snet.Stats.box_errors

let test_retry_exhausted_emits_error () =
  let stats = Snet.Stats.create () in
  let out =
    Seq_e.run ~stats
      ~supervision:(Sup.make ~policy:(Sup.Retry 1) ())
      (flaky_net ()) (xs_in [ 10 ])
  in
  Alcotest.(check int) "error record after exhaustion" 1
    (List.length (List.filter Sup.is_error out));
  let s = Snet.Stats.snapshot stats in
  Alcotest.(check int) "one retry burned" 1 s.Snet.Stats.box_retries;
  Alcotest.(check int) "one terminal failure" 1 s.Snet.Stats.box_errors

(* Post-hoc timeout: a slow box trips its budget; under [Error_record]
   the timeout becomes an error record, under the default it raises. *)
let test_timeout () =
  let slow =
    Box.make ~name:"slow" ~input:[ T "x" ] ~outputs:[ [ T "x" ] ]
      (fun ~emit -> function
        | [ Tag x ] ->
            Thread.delay 0.02;
            emit 1 [ Tag x ]
        | _ -> assert false)
  in
  Alcotest.(check bool) "fail-fast: Box_timeout raised" true
    (try
       ignore
         (Seq_e.run
            ~supervision:(Sup.make ~timeout:0.001 ())
            (Net.box slow) (xs_in [ 1 ]));
       false
     with Sup.Box_timeout _ -> true);
  let stats = Snet.Stats.create () in
  let out =
    Seq_e.run ~stats
      ~supervision:(Sup.make ~policy:Sup.Error_record ~timeout:0.001 ())
      (Net.box slow) (xs_in [ 1 ])
  in
  (match List.filter Sup.is_error out with
  | [ e ] ->
      Alcotest.(check bool) "timeout named in message" true
        (match Sup.error_message e with
        | Some m -> Snet.Trace.contains ~needle:"Box_timeout" m
        | None -> false)
  | _ -> Alcotest.fail "expected one timeout error record");
  Alcotest.(check bool) "timeout counted" true
    ((Snet.Stats.snapshot stats).Snet.Stats.box_timeouts >= 1)

(* Error records bypass combinators: a failure inside a split replica
   or a star body surfaces at the network output (with the replica's
   routing tag intact) instead of wedging the region. *)
let test_error_bypass_split_and_star () =
  let split_net = Net.split (Net.box flaky) "x" in
  let out =
    with_pool 2 (fun pool ->
        Conc_e.run ~pool ~supervision:record_cfg split_net
          (xs_in [ 10; 11; 20 ]))
  in
  let errors = List.filter Sup.is_error out in
  Alcotest.(check int) "both failing replicas report" 2 (List.length errors);
  Alcotest.(check (list int)) "routing tags preserved" [ 10; 20 ]
    (List.sort compare (tags_of "x" errors));
  (* countdown-style star: the body fails at 5, the error exits at the
     next tap instead of unfolding forever. *)
  let decr_flaky =
    Box.make ~name:"decrFlaky" ~input:[ T "x" ]
      ~outputs:[ [ T "x" ]; [ T "x"; T "done" ] ]
      (fun ~emit -> function
        | [ Tag x ] ->
            if x = 5 then failwith "injected fault"
            else if x <= 0 then emit 2 [ Tag 0; Tag 1 ]
            else emit 1 [ Tag (x - 1) ]
        | _ -> assert false)
  in
  let star_net =
    Net.star (Net.box decr_flaky) (P.make ~fields:[] ~tags:[ "done" ] ())
  in
  let out = Seq_e.run ~supervision:record_cfg star_net (xs_in [ 8; 3 ]) in
  Alcotest.(check int) "failing input becomes one error" 1
    (List.length (List.filter Sup.is_error out));
  Alcotest.(check (list int)) "healthy input still terminates" [ 1 ]
    (tags_of "done" out)

(* A handler that raises mid-batch must not take the rest of the batch
   with it: remaining messages drain, the failure is re-raised at
   await_quiescence. *)
let test_actor_failure_keeps_draining () =
  with_pool 2 (fun pool ->
      let sys = Actors.system ~pool ~batch:64 () in
      let handled = Atomic.make 0 in
      let a =
        Actors.spawn sys ~name:"bombed" (fun m ->
            if m = 5 then failwith "handler bomb"
            else Atomic.incr handled)
      in
      List.iter (Actors.send a) (List.init 10 (fun i -> i));
      Alcotest.(check bool) "await re-raises" true
        (try
           Actors.await_quiescence sys;
           false
         with Failure _ -> true);
      Alcotest.(check int) "other nine messages handled" 9
        (Atomic.get handled);
      Alcotest.(check bool) "failure recorded" true
        (Actors.failure sys <> None))

(* Closing a channel must wake both a sender blocked on a full buffer
   (raising [Closed]) and a receiver blocked on an empty one. *)
let test_close_wakes_blocked_send_and_recv () =
  let full = Channel.create ~capacity:1 () in
  Channel.send full 0;
  let sender_result = ref `Pending in
  let sender =
    Thread.create
      (fun () ->
        try
          Channel.send full 1;
          sender_result := `Sent
        with Channel.Closed -> sender_result := `Raised)
      ()
  in
  Thread.delay 0.05;
  Channel.close full;
  Thread.join sender;
  Alcotest.(check bool) "blocked sender raised Closed" true
    (!sender_result = `Raised);
  Alcotest.(check bool) "buffered element survives" true
    (Channel.recv full = `Msg 0);
  let empty = Channel.create ~capacity:1 () in
  let recv_result = ref `Pending in
  let receiver =
    Thread.create
      (fun () ->
        recv_result :=
          match Channel.recv empty with
          | `Closed -> `Saw_close
          | `Msg _ -> `Saw_msg)
      ()
  in
  Thread.delay 0.05;
  Channel.close empty;
  Thread.join receiver;
  Alcotest.(check bool) "blocked receiver drained to Closed" true
    (!recv_result = `Saw_close)

(* Property: however many messages a producer pushes at a slow actor,
   the bounded mailbox never holds more than its bound — backpressure
   parks the producer instead of letting the queue grow. *)
let prop_mailbox_never_exceeds_bound =
  QCheck.Test.make ~name:"bounded mailbox respects its bound" ~count:25
    (QCheck.make
       QCheck.Gen.(pair (int_range 1 8) (int_range 1 120))
       ~print:(fun (m, n) -> Printf.sprintf "mailbox=%d msgs=%d" m n))
    (fun (mailbox, n) ->
      with_pool 2 (fun pool ->
          let sys = Actors.system ~pool ~batch:4 ~mailbox () in
          let max_seen = ref 0 in
          let self = ref None in
          let a =
            Actors.spawn sys ~name:"slow" (fun _ ->
                (match !self with
                | Some a -> max_seen := max !max_seen (Actors.mailbox_length a)
                | None -> ());
                Thread.delay 0.0002)
          in
          self := Some a;
          for i = 1 to n do
            Actors.send a i
          done;
          Actors.await_quiescence sys;
          !max_seen <= mailbox))

let suite =
  [
    Alcotest.test_case "error-record: identical multisets on 3 engines" `Quick
      test_error_record_all_engines;
    Alcotest.test_case "error records flow-inherit the input" `Quick
      test_error_record_flow_inheritance;
    Alcotest.test_case "fail-fast raises on 3 engines" `Quick
      test_fail_fast_raises_everywhere;
    Alcotest.test_case "retry recovers from transient failures" `Quick
      test_retry_recovers;
    Alcotest.test_case "retry exhaustion yields an error record" `Quick
      test_retry_exhausted_emits_error;
    Alcotest.test_case "per-box timeout" `Quick test_timeout;
    Alcotest.test_case "errors bypass split and star" `Quick
      test_error_bypass_split_and_star;
    Alcotest.test_case "actor failure keeps the batch draining" `Quick
      test_actor_failure_keeps_draining;
    Alcotest.test_case "close wakes blocked send and recv" `Quick
      test_close_wakes_blocked_send_and_recv;
    Seeded.to_alcotest prop_mailbox_never_exceeds_bound;
  ]
