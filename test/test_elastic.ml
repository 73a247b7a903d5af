(* The elastic distribution layer: the cost-model planner that turns
   placement hints into Dist.Plan stages, the health-driven balancer,
   and a crash-point matrix for live migration — 100+ schedules
   varying the shard width, the migrated partition, the migration
   timing and mid-freeze worker death, each checked multiset-identical
   against the sequential reference. Everything is hermetic (loopback
   transport, in-process worker threads). *)

module Plan = Dist.Plan
module Engine_dist = Dist.Engine_dist
module Eplan = Elastic.Plan
module Balancer = Elastic.Balancer
module Record = Snet.Record
module Net = Snet.Net

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let multiset_eq outs1 outs2 =
  let key rs = List.sort compare (List.map Dist.Wire.render rs) in
  key outs1 = key outs2

(* A tag-passthrough box: enough structure for the planner, which only
   reads the spine shape and the hints. *)
let pbox name =
  Net.box
    (Snet.Box.make ~name ~input:[ Snet.Box.T "x" ]
       ~outputs:[ [ Snet.Box.T "x" ] ]
       (fun ~emit vs -> emit 1 vs))

let plan_of net ~workers =
  match Eplan.of_net ~workers net with
  | Ok p -> p
  | Error e -> Alcotest.failf "planner failed: %s" e

let plan_err net ~workers needle =
  match Eplan.of_net ~workers net with
  | Ok p -> Alcotest.failf "planner accepted (%s), wanted %S" (Plan.encode p) needle
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error names the problem: %s" e)
        true (contains e needle)

(* ------------------------------------------------------------------ *)
(* Planner                                                             *)

let test_has_hints () =
  Alcotest.(check bool) "no hints on the bare net" false
    (Eplan.has_hints (Sudoku.Networks.shard ()));
  Alcotest.(check bool) "@shards detected" true
    (Eplan.has_hints (Sudoku.Networks.shard ~shards:2 ()));
  Alcotest.(check bool) "@weight detected" true
    (Eplan.has_hints
       (Net.serial (pbox "a") (Net.place ~weight:3 (pbox "b"))))

let test_plan_shard_net () =
  let net = Sudoku.Networks.shard ~shards:3 () in
  (* Exact budget: route | 3 replicas | merge. *)
  let p = plan_of net ~workers:5 in
  Alcotest.(check string) "exact fit" "0,1!3,2" (Plan.encode p);
  Alcotest.(check int) "five partitions" 5 (Plan.parts p);
  (* Surplus budget is capped at the net's placeable slots, like the
     legacy contiguous cut. *)
  let p = plan_of net ~workers:8 in
  Alcotest.(check string) "surplus capped" "0,1!3,2" (Plan.encode p);
  (* Too little budget names the culprit. *)
  plan_err net ~workers:4 "at least 5 partitions";
  (* The human rendering used by --stats. *)
  let d = Eplan.describe p net in
  Alcotest.(check bool) "describe shows the plan line" true
    (contains d "plan: seg 0 | seg 1 sharded x3 | seg 2");
  Alcotest.(check bool) "describe lists shard slots" true
    (contains d "seg 1 shard 0/3" && contains d "seg 1 shard 2/3")

let test_plan_pins () =
  let abc ?place_b ?place_c () =
    let wrap p n = match p with None -> n | Some w -> Net.place ~place:w n in
    Net.serial_list
      [ pbox "a"; wrap place_b (pbox "b"); wrap place_c (pbox "c") ]
  in
  let p = plan_of (abc ~place_b:1 ()) ~workers:3 in
  Alcotest.(check string) "pin honored, one segment per partition" "0,1,2"
    (Plan.encode p);
  (* A pin the preceding segments cannot fill. *)
  plan_err (abc ~place_b:2 ()) ~workers:4 "leaves a gap";
  (* Pins must be strictly increasing: the second pin lands on a
     partition the first already occupied. *)
  plan_err (abc ~place_b:1 ~place_c:1 ()) ~workers:4 "is not after";
  (* The first segment always starts at partition 0. *)
  plan_err
    (Net.serial (Net.place ~place:1 (pbox "a")) (pbox "b"))
    ~workers:3 "starts at partition 0"

let test_plan_weights () =
  let net ?weight_a () =
    let a =
      match weight_a with
      | None -> pbox "a"
      | Some w -> Net.place ~weight:w (pbox "a")
    in
    Net.serial_list [ a; pbox "b"; pbox "c"; pbox "d" ]
  in
  (* Unweighted, two partitions: the box-count-balanced cut. *)
  Alcotest.(check string) "even cut" "0-1,2-3"
    (Plan.encode (plan_of (net ()) ~workers:2));
  (* A heavy first segment pulls the cut forward. *)
  Alcotest.(check string) "weight shifts the cut" "0,1-3"
    (Plan.encode (plan_of (net ~weight_a:5 ()) ~workers:2))

let test_plan_errors () =
  plan_err
    (Net.serial (Net.place ~shards:2 (pbox "a")) (pbox "b"))
    ~workers:4 "only applies to a parallel replication";
  plan_err
    (Net.serial (Net.place ~weight:0 (pbox "a")) (pbox "b"))
    ~workers:2 "@weight 0 must be >= 1";
  plan_err (Sudoku.Networks.shard ~shards:2 ()) ~workers:0 "must be positive"

(* ------------------------------------------------------------------ *)
(* Balancer                                                            *)

let shard_inputs n =
  List.init n (fun i -> Record.of_list ~fields:[] ~tags:[ ("x", i) ])

(* End-to-end rebalance: partition 0 (the route segment, which every
   record crosses) is throttled, so its coordinator-side queue grows;
   the balancer must notice within a few health reports, migrate it
   onto a fresh (unthrottled) worker, and the output must stay
   multiset-identical to the sequential reference. *)
let test_balancer_rebalances_skewed_run () =
  let inputs = shard_inputs 400 in
  let net () = Sudoku.Networks.shard ~shards:2 () in
  let reference = Snet.Engine_seq.run (net ()) inputs in
  let plan = plan_of (net ()) ~workers:4 in
  let col = Obsv.Agg.create () in
  let policy =
    {
      Balancer.default_policy with
      Balancer.tick = 0.05;
      queue_hi = 4;
      sustain = 2;
      cooldown = 0.5;
      max_migrations = 2;
    }
  in
  let moves = ref [] in
  let moves_mu = Mutex.create () in
  let bal = ref None in
  let outs =
    Fun.protect
      ~finally:(fun () ->
        match !bal with Some b -> Balancer.stop b | None -> ())
      (fun () ->
        Engine_dist.run ~workers:4 ~plan ~collector:col
          ~fault:Dist.Fault.[ Stall { part = 0; us = 4000 } ]
          ~on_handle:(fun h ->
            bal :=
              Some
                (Balancer.start ~policy
                   ~on_migrate:(fun ~part r ->
                     Mutex.lock moves_mu;
                     moves := (part, r) :: !moves;
                     Mutex.unlock moves_mu)
                   ~collector:col ~handle:h ()))
          (net ()) inputs)
  in
  let b = match !bal with Some b -> b | None -> Alcotest.fail "no handle" in
  Alcotest.(check bool) "at least one migration fired" true
    (Balancer.migrations b >= 1);
  Alcotest.(check bool) "the hot partition was the one moved" true
    (List.exists
       (fun (part, r) -> part = 0 && Result.is_ok r)
       !moves);
  Alcotest.(check bool) "rebalanced output multiset equal" true
    (multiset_eq reference outs);
  match
    List.find_opt
      (fun p -> p.Obsv.Health.part = 0)
      (Obsv.Agg.cluster col).Obsv.Agg.parts
  with
  | Some p ->
      Alcotest.(check bool) "health row counts the move" true
        (p.Obsv.Health.migrations >= 1)
  | None -> Alcotest.fail "partition 0 missing from cluster"

(* The balancer never touches a healthy run: same net, no skew, a
   policy that would trigger on any congestion. *)
let test_balancer_leaves_healthy_run_alone () =
  let inputs = shard_inputs 64 in
  let net () = Sudoku.Networks.shard ~shards:2 () in
  let reference = Snet.Engine_seq.run (net ()) inputs in
  let plan = plan_of (net ()) ~workers:4 in
  let col = Obsv.Agg.create () in
  let bal = ref None in
  let outs =
    Fun.protect
      ~finally:(fun () ->
        match !bal with Some b -> Balancer.stop b | None -> ())
      (fun () ->
        Engine_dist.run ~workers:4 ~plan ~collector:col
          ~on_handle:(fun h ->
            bal := Some (Balancer.start ~collector:col ~handle:h ()))
          (net ()) inputs)
  in
  (match !bal with
  | Some b -> Alcotest.(check int) "no migrations" 0 (Balancer.migrations b)
  | None -> Alcotest.fail "no handle");
  Alcotest.(check bool) "output untouched" true (multiset_eq reference outs)

(* ------------------------------------------------------------------ *)
(* Migration crash-point matrix                                        *)

(* 108 schedules: shard width x migrated partition (route, a shard
   replica, merge) x migration delay (racing the in-flight stream and
   the Eof drain) x mode (single move, double move of the same
   partition, worker death mid-freeze). Every schedule must end
   multiset-identical to the sequential reference — no record lost or
   duplicated — whatever the migration outcome (a refusal because the
   run already drained is a legitimate outcome; a wrong multiset is
   not). Failures print one replay line per schedule. *)
type mig_mode = Once | Twice | Kill

let mode_name = function Once -> "once" | Twice -> "twice" | Kill -> "kill"

let run_schedule ~reference ~net ~plan ~target ~delay ~mode inputs =
  let migr = ref None in
  let outs =
    Engine_dist.run
      ~workers:(Plan.parts plan)
      ~plan
      ~fault:
        Dist.Fault.(
          Stall { part = 0; us = 250 }
          :: (if mode = Kill then
                [ Crash { part = target; seam = Freeze; crossing = 1 } ]
              else []))
      ~supervision:(Snet.Supervise.make ~policy:(Snet.Supervise.Retry 2) ())
      ~on_handle:(fun h ->
        migr :=
          Some
            (Thread.create
               (fun () ->
                 if delay > 0. then Thread.delay delay;
                 ignore (Engine_dist.migrate h target);
                 if mode = Twice then ignore (Engine_dist.migrate h target))
               ()))
      (net ()) inputs
  in
  (match !migr with Some t -> Thread.join t | None -> ());
  multiset_eq reference outs

let test_migration_schedule_matrix () =
  let inputs = shard_inputs 24 in
  let schedules = ref 0 and failures = ref [] in
  List.iter
    (fun shards ->
      let net () = Sudoku.Networks.shard ~shards () in
      let reference = Snet.Engine_seq.run (net ()) inputs in
      let plan = plan_of (net ()) ~workers:(shards + 2) in
      let parts = Plan.parts plan in
      List.iter
        (fun target ->
          List.iter
            (fun delay ->
              List.iter
                (fun mode ->
                  incr schedules;
                  if
                    not
                      (run_schedule ~reference ~net ~plan ~target ~delay ~mode
                         inputs)
                  then begin
                    let line =
                      Printf.sprintf
                        "replay: shards=%d target=%d delay_ms=%g mode=%s"
                        shards target (delay *. 1000.) (mode_name mode)
                    in
                    Printf.printf "%s\n%!" line;
                    failures := line :: !failures
                  end)
                [ Once; Twice; Kill ])
            [ 0.; 0.001; 0.003; 0.006; 0.012; 0.025 ])
        [ 0; 1; parts - 1 ])
    [ 2; 3 ];
  Alcotest.(check bool) "matrix covers 100+ schedules" true (!schedules >= 100);
  if !failures <> [] then
    Alcotest.failf "%d/%d schedules diverged:\n%s" (List.length !failures)
      !schedules
      (String.concat "\n" (List.rev !failures))

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "planner: hint detection" `Quick test_has_hints;
    Alcotest.test_case "planner: sharded net" `Quick test_plan_shard_net;
    Alcotest.test_case "planner: pins" `Quick test_plan_pins;
    Alcotest.test_case "planner: weights" `Quick test_plan_weights;
    Alcotest.test_case "planner: errors" `Quick test_plan_errors;
    Alcotest.test_case "balancer rebalances a skewed run" `Quick
      test_balancer_rebalances_skewed_run;
    Alcotest.test_case "balancer leaves a healthy run alone" `Quick
      test_balancer_leaves_healthy_run_alone;
    Alcotest.test_case "migration crash-point matrix (108 schedules)" `Quick
      test_migration_schedule_matrix;
  ]
