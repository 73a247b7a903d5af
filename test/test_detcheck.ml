(* The deterministic concurrency-testing subsystem, tested on itself:
   virtual time, seeded schedule exploration, byte-for-byte replay,
   the schedule-exploring differential oracle, and mutation sanity
   (reintroduced known-fixed bugs must be found within a bounded
   schedule budget — and must NOT fire when the fix is in place). *)

module Sv = Detcheck.Sched_virtual
module Strategy = Detcheck.Strategy
module Trace = Detcheck.Trace
module Netgen = Detcheck.Netgen
module Oracle = Detcheck.Oracle

let base_seed () = Seeded.seed () land 0xFFFF

let ok_exn = function
  | Ok v -> v
  | Error e -> raise e

(* --- virtual time ------------------------------------------------ *)

(* An hour of Clock.sleep costs nothing and advances the virtual clock
   exactly — the mechanism that debounces timeout/backoff paths in
   every other suite. *)
let test_virtual_clock () =
  let res, trace =
    Sv.run
      ~strategy:(Strategy.random ~seed:0)
      (fun sched ->
        let t0 = Scheduler.Clock.now () in
        Scheduler.Clock.sleep 3600.;
        let t1 = Scheduler.Clock.now () in
        (t0, t1, Sv.now sched))
  in
  let t0, t1, sched_now = ok_exn res in
  Alcotest.(check (float 1e-9)) "starts at zero" 0. t0;
  Alcotest.(check (float 1e-9)) "sleep advances exactly" 3600. t1;
  Alcotest.(check (float 1e-9)) "scheduler clock agrees" 3600. sched_now;
  Alcotest.(check bool) "single fiber: no recorded choices" true (trace = [])

(* Timers interleave with fibers deterministically: two sleepers wake
   in deadline order regardless of spawn order. *)
let test_timer_order () =
  let res, _ =
    Sv.run
      ~strategy:(Strategy.random ~seed:1)
      (fun _ ->
        let log = ref [] in
        let t1 =
          Sv.Platform.spawn (fun () ->
              Scheduler.Clock.sleep 5.;
              log := "late" :: !log)
        in
        let t2 =
          Sv.Platform.spawn (fun () ->
              Scheduler.Clock.sleep 2.;
              log := "early" :: !log)
        in
        Sv.Platform.join t1;
        Sv.Platform.join t2;
        List.rev !log)
  in
  Alcotest.(check (list string)) "deadline order" [ "early"; "late" ]
    (ok_exn res)

(* --- platform primitives on fibers ------------------------------- *)

let test_mutex_fibers () =
  let res, _ =
    Sv.run
      ~strategy:(Strategy.random ~seed:(base_seed ()))
      (fun _ ->
        let m = Sv.Platform.mutex_create () in
        let counter = ref 0 in
        let bump () =
          for _ = 1 to 100 do
            Sv.Platform.lock m;
            let v = !counter in
            Sv.Platform.relax ();
            (* a schedule point inside the critical section *)
            counter := v + 1;
            Sv.Platform.unlock m
          done
        in
        let ts = List.init 4 (fun _ -> Sv.Platform.spawn bump) in
        List.iter Sv.Platform.join ts;
        !counter)
  in
  Alcotest.(check int) "mutex serialises fibers" 400 (ok_exn res)

let test_channel_on_fibers () =
  let res, _ =
    Sv.run
      ~strategy:(Strategy.random ~seed:(base_seed () + 1))
      (fun _ ->
        let module Ch = Streams.Channel.Make (Sv.Platform) in
        let ch = Ch.create ~capacity:3 () in
        let producer =
          Sv.Platform.spawn (fun () ->
              for i = 1 to 20 do
                Ch.send ch i
              done;
              Ch.close ch)
        in
        let got = Ch.to_list ch in
        Sv.Platform.join producer;
        got)
  in
  Alcotest.(check (list int))
    "FIFO through a bounded channel under fiber scheduling"
    (List.init 20 (fun i -> i + 1))
    (ok_exn res)

(* The batch-flush vs Eof race, pinned under the virtual scheduler: a
   producer pushes a run of records and closes; a consumer drains with
   [recv_batch]. Whatever interleaving the strategy picks — close
   racing a partially-filled batch, close landing between two drains,
   the consumer parking just before the close — every record must come
   out exactly once, in order, before [`Closed] is observed. This is
   the channel-level shape of the cut-edge pump's "flush pending, then
   Eof" step. *)
let test_batch_flush_vs_close () =
  for seed = 0 to 19 do
    let res, _ =
      Sv.run
        ~strategy:(Strategy.random ~seed:(base_seed () + seed))
        (fun _ ->
          let module Ch = Streams.Channel.Make (Sv.Platform) in
          let ch = Ch.create ~capacity:4 () in
          let producer =
            Sv.Platform.spawn (fun () ->
                for i = 1 to 17 do
                  Ch.send ch i
                done;
                Ch.close ch)
          in
          let got = ref [] in
          let batches = ref [] in
          let rec drain () =
            match Ch.recv_batch ch ~max:8 with
            | `Closed -> ()
            | `Batch ms ->
                batches := List.length ms :: !batches;
                got := !got @ ms;
                drain ()
          in
          drain ();
          Sv.Platform.join producer;
          (!got, !batches))
    in
    let got, batches = ok_exn res in
    Alcotest.(check (list int))
      (Printf.sprintf "all records, in order, before Closed (seed %d)" seed)
      (List.init 17 (fun i -> i + 1))
      got;
    Alcotest.(check bool)
      (Printf.sprintf "batch sizes within bound (seed %d)" seed)
      true
      (List.for_all (fun n -> n >= 1 && n <= 8) batches)
  done

(* --- determinism and replay -------------------------------------- *)

let nondet_spec () = Netgen.of_seed Nondet (base_seed ())

(* A fixed spec with enough records and components that every explored
   schedule has nontrivial choice points (the generated [nondet_spec]
   can shrink to a single box on one record, whose schedule is fully
   forced). *)
let replay_spec =
  {
    Netgen.klass = Nondet;
    sync_prefix = false;
    body = Netgen.(Choice (Serial (Leaf Inc, Leaf Double), Leaf Dup));
    inputs = [ (1, 0); (2, 1); (3, 2); (4, 3); (5, 0); (6, 1); (7, 2); (8, 3) ];
  }

let test_seed_determinism () =
  let spec = nondet_spec () in
  let run () =
    Oracle.run_once ~strategy:(Strategy.random ~seed:(base_seed () + 7)) spec
  in
  let r1, t1 = run () in
  let r2, t2 = run () in
  Alcotest.(check string) "same seed, same output" (ok_exn r1) (ok_exn r2);
  Alcotest.(check string) "same seed, same trace" (Trace.to_string t1)
    (Trace.to_string t2)

let test_replay_byte_for_byte () =
  let spec = replay_spec in
  let explored, trace =
    Oracle.run_once ~strategy:(Strategy.pct ~seed:(base_seed () + 3) ()) spec
  in
  let replayed, trace' = Oracle.replay ~trace spec in
  Alcotest.(check bool) "explored a nontrivial schedule" true
    (Trace.length trace > 0);
  Alcotest.(check string) "replay reproduces the output" (ok_exn explored)
    (ok_exn replayed);
  Alcotest.(check string) "replay reproduces the trace byte-for-byte"
    (Trace.to_string trace) (Trace.to_string trace')

let test_replay_divergence () =
  let spec = replay_spec in
  let _, trace =
    Oracle.run_once ~strategy:(Strategy.random ~seed:(base_seed () + 4)) spec
  in
  (* A truncated trace no longer matches the run: replay must refuse
     loudly, never silently pick a different schedule. *)
  let truncated = List.filteri (fun i _ -> i < Trace.length trace / 2) trace in
  if truncated = trace then ()
  else
    match Oracle.replay ~trace:truncated spec with
    | Error (Strategy.Divergence _), _ -> ()
    | Ok _, _ -> Alcotest.fail "truncated trace replayed without divergence"
    | Error e, _ -> raise e

let test_trace_roundtrip () =
  let t =
    [
      { Trace.tag = "fiber"; arity = 3; choice = 1 };
      { Trace.tag = "task"; arity = 2; choice = 0 };
      { Trace.tag = "fiber"; arity = 7; choice = 6 };
    ]
  in
  (match Trace.of_string (Trace.to_string t) with
  | Ok t' -> Alcotest.(check bool) "roundtrip" true (t = t')
  | Error e -> Alcotest.fail e);
  match Trace.of_string "fiber:banana:0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed trace accepted"

(* --- schedule-exploring differential oracle ---------------------- *)

(* The acceptance bar: >= 100 explored schedules per network class,
   spread over several generated networks, every one agreeing with
   the sequential reference. *)
let test_explore klass () =
  let seed = base_seed () in
  let specs = List.init 4 (fun i -> (seed + i, Netgen.of_seed klass (seed + i))) in
  let total =
    List.fold_left
      (fun acc (net_seed, spec) ->
        match Oracle.check ~schedules:30 ~net_seed ~seed:net_seed spec with
        | Ok n -> acc + n
        | Error f -> Alcotest.failf "%s" (Oracle.pp_failure f))
      0 specs
  in
  Alcotest.(check bool)
    (Printf.sprintf "explored %d schedules (>= 100) for %s nets" total
       (Netgen.klass_to_string klass))
    true (total >= 100)

(* Supervision attributes under exploration: a network built from
   every failing leaf (error records, retry exhaustion + backoff,
   timeout overruns) still agrees with the reference on every
   schedule, and the retry backoffs run on virtual time. *)
let test_explore_supervision () =
  let spec =
    {
      Netgen.klass = Det;
      sync_prefix = false;
      body =
        Netgen.Serial
          ( Leaf Flaky_retry,
            Serial (Leaf Sluggish, Serial (Leaf Flaky_record, Leaf Inc)) );
      inputs = [ (0, 0); (3, 1); (4, 2); (5, 0); (7, 3); (15, 1) ];
    }
  in
  match Oracle.check ~schedules:20 ~seed:(base_seed () + 11) spec with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "%s" (Oracle.pp_failure f)

(* --- mutation sanity --------------------------------------------- *)

(* Lost wakeup on close (the seed bug PR 2 fixed): close wakes blocked
   receivers but, under the mutation, not blocked senders. Whether a
   sender is parked at close time depends on the schedule, so this is
   a genuine exploration target: detcheck must find a deadlocking
   schedule within a bounded seed budget, and must find none with the
   fix in place. *)
let channel_close_scenario () =
  let module Ch = Streams.Channel.Make (Sv.Platform) in
  let ch = Ch.create ~capacity:1 () in
  let producer =
    Sv.Platform.spawn (fun () ->
        try
          for i = 1 to 3 do
            Ch.send ch i
          done
        with Streams.Channel.Closed -> ())
  in
  (match Ch.recv ch with `Msg _ -> () | `Closed -> ());
  (* A modeled preemption point between the consumer's last receive
     and the close — the window in which the original OS-thread bug
     bit. Fibers only switch at explicit points, so without it the
     producer could never park inside this window and the lost wakeup
     would be unreachable by construction. *)
  Sv.Platform.relax ();
  Ch.close ch;
  Sv.Platform.join producer

let count_deadlocks ~seeds scenario =
  let found = ref 0 in
  for s = 0 to seeds - 1 do
    let res, _ = Sv.run ~strategy:(Strategy.random ~seed:s) scenario in
    match res with
    | Error (Scheduler.Exec.Deadlock _) -> incr found
    | Error e -> raise e
    | Ok _ -> ()
  done;
  !found

let test_mutation_channel_close () =
  let with_flag v f =
    Streams.Channel.inject_close_no_wake := v;
    Fun.protect ~finally:(fun () -> Streams.Channel.inject_close_no_wake := false) f
  in
  let buggy =
    with_flag true (fun () ->
        count_deadlocks ~seeds:25 (fun _ -> channel_close_scenario ()))
  in
  let fixed =
    with_flag false (fun () ->
        count_deadlocks ~seeds:25 (fun _ -> channel_close_scenario ()))
  in
  Alcotest.(check bool)
    (Printf.sprintf "close-no-wake found within 25 schedules (hit %d)" buggy)
    true (buggy > 0);
  Alcotest.(check int) "fixed close never deadlocks" 0 fixed

(* --- deadlock reporting ------------------------------------------ *)

let test_deadlock_report () =
  let res, _ =
    Sv.run
      ~strategy:(Strategy.random ~seed:0)
      (fun _ ->
        let m1 = Sv.Platform.mutex_create () in
        let m2 = Sv.Platform.mutex_create () in
        Sv.Platform.lock m1;
        let t =
          Sv.Platform.spawn (fun () ->
              Sv.Platform.lock m2;
              Sv.Platform.lock m1 (* blocks forever: m1 held by main *))
        in
        Sv.Platform.lock m2;
        (* blocks forever: m2 held by t *)
        Sv.Platform.join t)
  in
  match res with
  | Error (Scheduler.Exec.Deadlock msg) ->
      Alcotest.(check bool) "report lists blocked fibers" true
        (String.length msg > 0
        && String.index_opt msg ':' <> None)
  | Ok () -> Alcotest.fail "lock cycle did not deadlock"
  | Error e -> raise e

(* A lone fiber yielding forever is a livelock, not a deadlock: the
   step budget must end the run. *)
let test_budget () =
  let res, _ =
    Sv.run ~budget:1000
      ~strategy:(Strategy.random ~seed:0)
      (fun _ ->
        while true do
          Sv.Platform.relax ()
        done)
  in
  match res with
  | Error (Sv.Budget_exhausted _) -> ()
  | Ok _ -> assert false
  | Error e -> raise e

let suite =
  [
    Alcotest.test_case "virtual clock advances without waiting" `Quick
      test_virtual_clock;
    Alcotest.test_case "timers fire in deadline order" `Quick test_timer_order;
    Alcotest.test_case "virtual mutex serialises fibers" `Quick
      test_mutex_fibers;
    Alcotest.test_case "batch flush vs close race (scheduled)" `Quick
      test_batch_flush_vs_close;
    Alcotest.test_case "bounded channel on virtual fibers" `Quick
      test_channel_on_fibers;
    Alcotest.test_case "same seed => same schedule and output" `Quick
      test_seed_determinism;
    Alcotest.test_case "trace replay is byte-for-byte" `Quick
      test_replay_byte_for_byte;
    Alcotest.test_case "replay detects divergence" `Quick
      test_replay_divergence;
    Alcotest.test_case "trace round-trips through text" `Quick
      test_trace_roundtrip;
    Alcotest.test_case "oracle: >= 100 schedules on det nets" `Slow
      (test_explore Netgen.Det);
    Alcotest.test_case "oracle: >= 100 schedules on nondet nets" `Slow
      (test_explore Netgen.Nondet);
    Alcotest.test_case "oracle: supervision attributes explored" `Quick
      test_explore_supervision;
    Alcotest.test_case "mutation: channel close-no-wake is found" `Quick
      test_mutation_channel_close;
    Alcotest.test_case "deadlocks are reported with blocked fibers" `Quick
      test_deadlock_report;
    Alcotest.test_case "step budget ends livelocks" `Quick test_budget;
  ]
