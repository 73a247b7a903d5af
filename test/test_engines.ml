(* Both engines: reference semantics sequentially, equivalence
   concurrently. *)

module Net = Snet.Net
module Box = Snet.Box
module Filter = Snet.Filter
module P = Snet.Pattern
module Record = Snet.Record
module Value = Snet.Value
module Seq_e = Snet.Engine_seq
module Conc_e = Snet.Engine_conc

let record ~f ~t =
  Record.of_list ~fields:(List.map (fun (n, v) -> (n, Value.of_int v)) f) ~tags:t

let tags_of name records = List.filter_map (Record.tag name) records

let with_pool n f =
  let pool = Scheduler.Pool.create ~num_domains:n () in
  Fun.protect ~finally:(fun () -> Scheduler.Pool.shutdown pool) (fun () ->
      f pool)

(* box inc ((<x>) -> (<x>)) *)
let inc =
  Box.make ~name:"inc" ~input:[ T "x" ] ~outputs:[ [ T "x" ] ]
    (fun ~emit -> function
      | [ Tag x ] -> emit 1 [ Tag (x + 1) ]
      | _ -> assert false)

(* box dup ((<x>) -> (<x>)): emits x and x+100. *)
let dup =
  Box.make ~name:"dup" ~input:[ T "x" ] ~outputs:[ [ T "x" ] ]
    (fun ~emit -> function
      | [ Tag x ] ->
          emit 1 [ Tag x ];
          emit 1 [ Tag (x + 100) ]
      | _ -> assert false)

(* box drop_odd ((<x>) -> (<x>)): odd inputs vanish. *)
let drop_odd =
  Box.make ~name:"dropOdd" ~input:[ T "x" ] ~outputs:[ [ T "x" ] ]
    (fun ~emit -> function
      | [ Tag x ] -> if x mod 2 = 0 then emit 1 [ Tag x ]
      | _ -> assert false)

let xs_in values = List.map (fun x -> record ~f:[] ~t:[ ("x", x) ]) values

let test_seq_pipeline () =
  let net = Net.serial (Net.box inc) (Net.box inc) in
  Alcotest.(check (list int)) "x+2" [ 3; 12 ]
    (tags_of "x" (Seq_e.run net (xs_in [ 1; 10 ])))

let test_seq_multi_emission_dfs () =
  (* dup .. dup: depth-first expansion of each input record. *)
  let net = Net.serial (Net.box dup) (Net.box dup) in
  Alcotest.(check (list int)) "DFS order" [ 0; 100; 100; 200 ]
    (tags_of "x" (Seq_e.run net (xs_in [ 0 ])))

let test_seq_dropping () =
  let net = Net.box drop_odd in
  Alcotest.(check (list int)) "odds vanish" [ 2; 4 ]
    (tags_of "x" (Seq_e.run net (xs_in [ 1; 2; 3; 4 ])))

(* Choice routing: records with <neg> go left, others right; the left
   branch is more specific for records carrying both labels. *)
let test_seq_choice_best_match () =
  let negate =
    Box.make ~name:"negate" ~input:[ T "x"; T "neg" ] ~outputs:[ [ T "x" ] ]
      (fun ~emit -> function
        | [ Tag x; Tag _ ] -> emit 1 [ Tag (-x) ]
        | _ -> assert false)
  in
  let net = Net.choice (Net.box negate) (Net.box inc) in
  let out =
    Seq_e.run net
      [
        record ~f:[] ~t:[ ("x", 5) ];
        record ~f:[] ~t:[ ("x", 5); ("neg", 1) ];
      ]
  in
  Alcotest.(check (list int)) "routing" [ 6; -5 ] (tags_of "x" out)

let test_seq_choice_no_match () =
  let net = Net.choice (Net.box inc) (Net.box drop_odd) in
  Alcotest.(check bool) "route error" true
    (try ignore (Seq_e.run net [ record ~f:[ ("y", 0) ] ~t:[] ]); false
     with Snet.Typecheck.Type_error _ | Seq_e.Route_error _ -> true)

(* Star: count down to zero, then exit with <done>. *)
let countdown =
  Box.make ~name:"countdown" ~input:[ T "x" ]
    ~outputs:[ [ T "x" ]; [ T "x"; T "done" ] ]
    (fun ~emit -> function
      | [ Tag x ] ->
          if x <= 0 then emit 2 [ Tag 0; Tag 1 ] else emit 1 [ Tag (x - 1) ]
      | _ -> assert false)

let done_pattern = P.make ~fields:[] ~tags:[ "done" ] ()

let test_seq_star_unfolding () =
  let stats = Snet.Stats.create () in
  let net = Net.star (Net.box countdown) done_pattern in
  let out = Seq_e.run ~stats net (xs_in [ 5 ]) in
  Alcotest.(check (list int)) "one result" [ 1 ] (tags_of "done" out);
  let s = Snet.Stats.snapshot stats in
  (* 5 -> 4 -> ... -> 0 -> done: six replicas deep. *)
  Alcotest.(check int) "six stages" 6 s.Snet.Stats.max_star_depth;
  (* A second record reuses the same replicas. *)
  let stats2 = Snet.Stats.create () in
  ignore (Seq_e.run ~stats:stats2 net (xs_in [ 5; 3 ]));
  Alcotest.(check int) "stage count unchanged by shallower record" 6
    (Snet.Stats.snapshot stats2).Snet.Stats.max_star_depth

let test_seq_star_immediate_exit () =
  let net = Net.star (Net.box countdown) done_pattern in
  let out = Seq_e.run net [ record ~f:[] ~t:[ ("x", 9); ("done", 7) ] ] in
  (* Tapped before the first replica: the record leaves untouched. *)
  Alcotest.(check (list int)) "immediate exit" [ 9 ] (tags_of "x" out)

let test_seq_split_replicas () =
  let stats = Snet.Stats.create () in
  let net = Net.split (Net.box inc) "k" in
  let inputs =
    List.map
      (fun (x, k) -> record ~f:[] ~t:[ ("x", x); ("k", k) ])
      [ (1, 0); (2, 1); (3, 0); (4, 2) ]
  in
  let out = Seq_e.run ~stats net inputs in
  Alcotest.(check (list int)) "all processed" [ 2; 3; 4; 5 ] (tags_of "x" out);
  Alcotest.(check int) "three replicas (k=0,1,2)" 3
    (Snet.Stats.snapshot stats).Snet.Stats.split_replicas;
  Alcotest.(check bool) "missing tag is a route error" true
    (try ignore (Seq_e.run net (xs_in [ 1 ])); false
     with Snet.Typecheck.Type_error _ -> true)

let test_seq_observer () =
  let edges = ref [] in
  let observer ~edge _r = edges := edge :: !edges in
  let net = Net.observe "probe" (Net.box inc) in
  ignore (Seq_e.run ~observer net (xs_in [ 1 ]));
  Alcotest.(check bool) "probe edge seen" true
    (List.exists (fun e -> String.length e >= 6 && String.sub e 0 6 = "/probe") !edges);
  Alcotest.(check bool) "box edge seen" true
    (List.exists (fun e -> Filename.basename e = "box:inc") !edges)

(* ---- concurrent engine ---- *)

let test_conc_pipeline_order () =
  with_pool 2 (fun pool ->
      let net = Net.serial (Net.box inc) (Net.box dup) in
      let out = Conc_e.run ~pool net (xs_in [ 1; 2; 3 ]) in
      (* A pure pipeline preserves order even without det combinators. *)
      Alcotest.(check (list int)) "pipeline FIFO" [ 2; 102; 3; 103; 4; 104 ]
        (tags_of "x" out))

let test_conc_matches_seq_det () =
  with_pool 2 (fun pool ->
      (* Deterministic combinators: outputs must match the sequential
         engine exactly, including order. *)
      let net =
        Net.serial
          (Net.split ~det:true (Net.serial (Net.box dup) (Net.box drop_odd)) "k")
          (Net.box inc)
      in
      let inputs =
        List.concat_map
          (fun k ->
            List.map (fun x -> record ~f:[] ~t:[ ("x", x); ("k", k) ]) [ 2; 5 ])
          [ 0; 1; 2 ]
      in
      let expected = tags_of "x" (Seq_e.run net inputs) in
      for _round = 1 to 5 do
        let got = tags_of "x" (Conc_e.run ~pool net inputs) in
        Alcotest.(check (list int)) "det split = reference order" expected got
      done)

let test_conc_det_choice_order () =
  with_pool 2 (fun pool ->
      let negate =
        Box.make ~name:"negate" ~input:[ T "x"; T "neg" ] ~outputs:[ [ T "x" ] ]
          (fun ~emit -> function
            | [ Tag x; Tag _ ] -> emit 1 [ Tag (-x) ]
            | _ -> assert false)
      in
      let net = Net.choice ~det:true (Net.box negate) (Net.box dup) in
      let inputs =
        List.concat_map
          (fun x ->
            [ record ~f:[] ~t:[ ("x", x) ]; record ~f:[] ~t:[ ("x", x); ("neg", 1) ] ])
          [ 1; 2; 3; 4; 5 ]
      in
      let expected = tags_of "x" (Seq_e.run net inputs) in
      for _round = 1 to 5 do
        Alcotest.(check (list int)) "det choice = reference order" expected
          (tags_of "x" (Conc_e.run ~pool net inputs))
      done)

let test_conc_det_star_order () =
  with_pool 2 (fun pool ->
      let net = Net.star ~det:true (Net.box countdown) done_pattern in
      let inputs = xs_in [ 5; 0; 3; 7; 1 ] in
      let expected = tags_of "x" (Seq_e.run net inputs) in
      for _round = 1 to 5 do
        Alcotest.(check (list int)) "det star groups by input order" expected
          (tags_of "x" (Conc_e.run ~pool net inputs))
      done)

let test_conc_nondet_multiset () =
  with_pool 3 (fun pool ->
      let net = Net.split (Net.serial (Net.box dup) (Net.box inc)) "k" in
      let inputs =
        List.init 20 (fun i -> record ~f:[] ~t:[ ("x", i); ("k", i mod 4) ])
      in
      let expected = List.sort compare (tags_of "x" (Seq_e.run net inputs)) in
      let got = List.sort compare (tags_of "x" (Conc_e.run ~pool net inputs)) in
      Alcotest.(check (list int)) "same multiset" expected got)

let test_conc_star_unfolding_stats () =
  with_pool 2 (fun pool ->
      let stats = Snet.Stats.create () in
      let net = Net.star (Net.box countdown) done_pattern in
      ignore (Conc_e.run ~pool ~stats net (xs_in [ 5 ]));
      let s = Snet.Stats.snapshot stats in
      Alcotest.(check int) "six stages" 6 s.Snet.Stats.max_star_depth;
      (* Scheduler observability: the run's actor activations execute
         as pool tasks, and the delta is attributed to this run. *)
      Alcotest.(check bool) "pool tasks attributed to the run" true
        (s.Snet.Stats.sched_tasks > 0);
      Alcotest.(check bool) "scheduler counters non-negative" true
        (s.Snet.Stats.sched_steals >= 0
        && s.Snet.Stats.sched_parks >= 0
        && s.Snet.Stats.sched_splits >= 0))

exception Boom

let test_conc_box_failure () =
  with_pool 2 (fun pool ->
      let bomb =
        Box.make ~name:"bomb" ~input:[ T "x" ] ~outputs:[ [ T "x" ] ]
          (fun ~emit -> function
            | [ Tag x ] -> if x = 3 then raise Boom else emit 1 [ Tag x ]
            | _ -> assert false)
      in
      Alcotest.(check bool) "failure surfaces at finish" true
        (try ignore (Conc_e.run ~pool (Net.box bomb) (xs_in [ 1; 2; 3 ])); false
         with Boom -> true))

(* Records no routing node can take. The admission check in [feed]
   ({!Typecheck.flow}) is exact ("flow acceptance = engine acceptance"
   in test_random_nets), so a record that matches neither branch of a
   choice, or lacks a split's tag, is refused there, at the root and in
   the middle of a pipeline alike, and never reaches the node. What
   does reach a choice or split is its exception path: an [Observe]
   wrapper's observer raising. Routing nodes run on the sending thread,
   yet [feed] only enqueues (a routing root gets an entry actor), and
   the exception surfaces from [finish]. *)
exception Observed

let test_conc_unroutable_record () =
  let negate =
    Box.make ~name:"negate" ~input:[ T "x"; T "neg" ] ~outputs:[ [ T "x" ] ]
      (fun ~emit -> function
        | [ Tag x; Tag _ ] -> emit 1 [ Tag (-x) ]
        | _ -> assert false)
  in
  let with_z =
    Box.make ~name:"withZ" ~input:[ T "x"; T "z" ] ~outputs:[ [ T "x" ] ]
      (fun ~emit -> function
        | [ Tag x; Tag _ ] -> emit 1 [ Tag x ]
        | _ -> assert false)
  in
  let nodes =
    [
      ("choice", Net.choice (Net.box negate) (Net.box with_z), fun x ->
        record ~f:[] ~t:[ ("x", x); ("neg", 1) ]);
      ("split", Net.split (Net.box inc) "k", fun x ->
        record ~f:[] ~t:[ ("x", x); ("k", 0) ]);
    ]
  in
  (* Where the node sits, and the input x that reaches it as 13. *)
  let places =
    [ ("at root", Fun.id, 13); ("mid-pipeline", Net.serial (Net.box inc), 12) ]
  in
  (* The observer raises inside the node's [Observe] wrapper, on x = 13
     only. *)
  let observer ~edge r =
    if Filename.basename edge = "probe" && Record.tag "x" r = Some 13 then
      raise Observed
  in
  with_pool 2 (fun pool ->
      List.iter
        (fun (node, routing, routable) ->
          List.iter
            (fun (place, wrap, x13) ->
              let label = node ^ " " ^ place in
              let net = wrap routing in
              let inst = Conc_e.start ~pool net in
              Alcotest.(check bool) (label ^ ": feed refuses {<x>}") true
                (try Conc_e.feed inst (record ~f:[] ~t:[ ("x", 1) ]); false
                 with Snet.Typecheck.Type_error _ -> true);
              Conc_e.feed inst (routable 1);
              Alcotest.(check (list int)) (label ^ ": a routable record runs")
                (tags_of "x" (Seq_e.run net [ routable 1 ]))
                (tags_of "x" (Conc_e.finish inst));
              let inst =
                Conc_e.start ~pool ~observer (wrap (Net.observe "probe" routing))
              in
              Conc_e.feed inst (routable 1);
              Conc_e.feed inst (routable x13);
              Alcotest.(check bool) (label ^ ": finish raises, feed did not")
                true
                (try ignore (Conc_e.finish inst); false with Observed -> true))
            places)
        nodes)

(* Many records reach the same new star tap and split replica at the
   same moment: in each stage the split's sixteen replicas run on three
   domains, each box call busy for 50 us so that they overlap, and all
   send into the next tap, which has no stage yet. Every stage and
   replica must still be built exactly once, so the unfolding counters
   equal the reference's. Later rounds, with every domain awake, are
   the ones that race. *)
let test_conc_lazy_unfolding_once () =
  let busy_countdown =
    Box.make ~name:"busyCountdown" ~input:[ T "x" ]
      ~outputs:[ [ T "x" ]; [ T "x"; T "done" ] ]
      (fun ~emit -> function
        | [ Tag x ] ->
            let until = Unix.gettimeofday () +. 50e-6 in
            while Unix.gettimeofday () < until do
              ()
            done;
            if x <= 0 then emit 2 [ Tag 0; Tag 1 ] else emit 1 [ Tag (x - 1) ]
        | _ -> assert false)
  in
  let net = Net.star (Net.split (Net.box busy_countdown) "k") done_pattern in
  let inputs =
    List.init 32 (fun i -> record ~f:[] ~t:[ ("x", 6); ("k", i mod 16) ])
  in
  let unfolding stats =
    let s = Snet.Stats.snapshot stats in
    Snet.Stats.(s.star_stages, s.split_replicas, s.max_star_depth)
  in
  let sorted out = List.sort compare (List.map Record.to_string out) in
  let seq_stats = Snet.Stats.create () in
  let expected = sorted (Seq_e.run ~stats:seq_stats net inputs) in
  let expected_unfolding = unfolding seq_stats in
  with_pool 3 (fun pool ->
      for round = 1 to 60 do
        let stats = Snet.Stats.create () in
        let got = sorted (Conc_e.run ~pool ~stats net inputs) in
        let label = Printf.sprintf "round %d" round in
        Alcotest.(check (list string)) (label ^ ": same multiset") expected got;
        Alcotest.(check (triple int int int))
          (label ^ ": stages, replicas, depth = reference")
          expected_unfolding (unfolding stats)
      done)

let test_conc_feed_finish_cycles () =
  with_pool 2 (fun pool ->
      let inst = Conc_e.start ~pool (Net.box inc) in
      Conc_e.feed inst (record ~f:[] ~t:[ ("x", 1) ]);
      let first = Conc_e.finish inst in
      Alcotest.(check (list int)) "first batch" [ 2 ] (tags_of "x" first);
      Conc_e.feed inst (record ~f:[] ~t:[ ("x", 10) ]);
      let second = Conc_e.finish inst in
      Alcotest.(check (list int)) "finish returns only the delta" [ 11 ]
        (tags_of "x" second))

(* A streaming instance hands every output to [on_output] as it
   arrives and retains none of them for [finish]. *)
let test_conc_on_output_retains_nothing () =
  with_pool 2 (fun pool ->
      let seen = ref [] and mu = Mutex.create () in
      let on_output r =
        Mutex.lock mu;
        seen := r :: !seen;
        Mutex.unlock mu
      in
      let inst = Conc_e.start ~pool ~on_output (Net.box inc) in
      List.iter (Conc_e.feed inst) (xs_in [ 1; 2; 3 ]);
      Alcotest.(check int) "finish returns nothing" 0
        (List.length (Conc_e.finish inst));
      Conc_e.feed inst (record ~f:[] ~t:[ ("x", 10) ]);
      Alcotest.(check int) "nor on a later cycle" 0
        (List.length (Conc_e.finish inst));
      Alcotest.(check (list int)) "every output reached the callback"
        [ 2; 3; 4; 11 ]
        (List.sort compare (tags_of "x" !seen)))

let test_conc_admission_check () =
  with_pool 2 (fun pool ->
      let inst = Conc_e.start ~pool (Net.box inc) in
      (* A rejected variant must not count as admitted: the repeat
         feed is rejected too, instead of reaching the box. *)
      List.iter
        (fun attempt ->
          Alcotest.(check bool) (attempt ^ " bad feed rejected") true
            (try Conc_e.feed inst (record ~f:[] ~t:[ ("y", 0) ]); false
             with Snet.Typecheck.Type_error _ -> true))
        [ "first"; "second" ];
      Conc_e.feed inst (record ~f:[] ~t:[ ("x", 1) ]);
      Alcotest.(check (list int)) "a good record still runs" [ 2 ]
        (tags_of "x" (Conc_e.finish inst)))

(* A one-slot mailbox parks producers on nearly every hop; the run
   still completes with the reference output, on the caller alone and
   on worker domains. *)
let test_conc_mailbox_backpressure () =
  let net =
    Net.serial (Net.box dup)
      (Net.star ~det:true (Net.box countdown) done_pattern)
  in
  let inputs = xs_in [ 4; 9; 2 ] in
  let expected = tags_of "x" (Seq_e.run net inputs) in
  List.iter
    (fun domains ->
      with_pool domains (fun pool ->
          let stats = Snet.Stats.create () in
          let label = Printf.sprintf "%d domains" domains in
          Alcotest.(check (list int)) (label ^ ": reference output") expected
            (tags_of "x" (Conc_e.run ~pool ~mailbox:1 ~stats net inputs));
          Alcotest.(check bool) (label ^ ": producers stalled") true
            ((Snet.Stats.snapshot stats).Snet.Stats.backpressure_stalls > 0)))
    [ 0; 1; 2 ];
  Alcotest.(check bool) "mailbox 0 rejected" true
    (try ignore (Conc_e.start ~mailbox:0 (Net.box inc)); false
     with Invalid_argument _ -> true)

(* The actor engine reports the same edges as the reference. *)
let test_conc_observer () =
  let edges run =
    let rec_ = Snet.Trace.recorder () in
    ignore
      (run ~observer:rec_.Snet.Trace.observe
         (Net.observe "probe" (Net.box inc))
         (xs_in [ 1 ]));
    List.sort compare
      (List.map (fun e -> e.Snet.Trace.edge) (rec_.Snet.Trace.entries ()))
  in
  let seq = edges (fun ~observer net rs -> Seq_e.run ~observer net rs) in
  with_pool 2 (fun pool ->
      Alcotest.(check (list string)) "conc edges = seq edges" seq
        (edges (fun ~observer net rs -> Conc_e.run ~pool ~observer net rs)))

let test_conc_zero_worker_pool () =
  with_pool 0 (fun pool ->
      let net = Net.serial (Net.box dup) (Net.box inc) in
      Alcotest.(check (list int)) "runs on the caller" [ 1; 101 ]
        (tags_of "x" (Conc_e.run ~pool net (xs_in [ 0 ]))))

(* Randomised differential test: pipelines of pure components behave
   identically on both engines. *)
let prop_engines_agree =
  QCheck.Test.make ~name:"conc engine = seq engine on deterministic nets"
    ~count:25
    (QCheck.make QCheck.Gen.(list_size (int_range 1 30) (int_range 0 50)))
    (fun values ->
      let net =
        Net.serial (Net.box dup)
          (Net.serial (Net.box drop_odd)
             (Net.star ~det:true (Net.box countdown) done_pattern))
      in
      let inputs = xs_in values in
      let expected = tags_of "x" (Seq_e.run net inputs) in
      let pool = Scheduler.Pool.create ~num_domains:2 () in
      Fun.protect
        ~finally:(fun () -> Scheduler.Pool.shutdown pool)
        (fun () ->
          let got = tags_of "x" (Conc_e.run ~pool net inputs) in
          got = expected))

let suite =
  [
    Alcotest.test_case "seq: pipeline" `Quick test_seq_pipeline;
    Alcotest.test_case "seq: DFS emission order" `Quick test_seq_multi_emission_dfs;
    Alcotest.test_case "seq: dropping boxes" `Quick test_seq_dropping;
    Alcotest.test_case "seq: best-match choice" `Quick test_seq_choice_best_match;
    Alcotest.test_case "seq: unroutable record" `Quick test_seq_choice_no_match;
    Alcotest.test_case "seq: star unfolding" `Quick test_seq_star_unfolding;
    Alcotest.test_case "seq: star immediate exit" `Quick test_seq_star_immediate_exit;
    Alcotest.test_case "seq: split replicas" `Quick test_seq_split_replicas;
    Alcotest.test_case "seq: observer" `Quick test_seq_observer;
    Alcotest.test_case "conc: pipeline order" `Quick test_conc_pipeline_order;
    Alcotest.test_case "conc: det split matches reference" `Quick test_conc_matches_seq_det;
    Alcotest.test_case "conc: det choice matches reference" `Quick test_conc_det_choice_order;
    Alcotest.test_case "conc: det star matches reference" `Quick test_conc_det_star_order;
    Alcotest.test_case "conc: nondet multiset" `Quick test_conc_nondet_multiset;
    Alcotest.test_case "conc: star stats" `Quick test_conc_star_unfolding_stats;
    Alcotest.test_case "conc: box failure" `Quick test_conc_box_failure;
    Alcotest.test_case "conc: unroutable record" `Quick test_conc_unroutable_record;
    Alcotest.test_case "conc: lazy unfolding built once" `Quick
      test_conc_lazy_unfolding_once;
    Alcotest.test_case "conc: feed/finish cycles" `Quick test_conc_feed_finish_cycles;
    Alcotest.test_case "conc: on_output retains nothing" `Quick
      test_conc_on_output_retains_nothing;
    Alcotest.test_case "conc: admission check" `Quick test_conc_admission_check;
    Alcotest.test_case "conc: zero-worker pool" `Quick test_conc_zero_worker_pool;
    Seeded.to_alcotest prop_engines_agree;
  ]

(* The actor engine's start options: the mailbox bound and the
   observer. *)
let actor_options_suite =
  [
    Alcotest.test_case "conc: mailbox 1 backpressure" `Quick
      test_conc_mailbox_backpressure;
    Alcotest.test_case "conc: observer" `Quick test_conc_observer;
  ]
