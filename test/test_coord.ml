(* The dist coordinator's core (Dist.Coord) without threads or sockets:
   step cases that pin single transitions, and a seeded virtual driver
   that explores whole runs over modelled workers — each partition's
   subnet on Engine_seq — under Detcheck strategies, checked against
   the sequential reference. *)

module Coord = Dist.Coord
module Fault = Dist.Fault
module Plan = Dist.Plan
module Proto = Dist.Proto
module Record = Snet.Record
module Strategy = Detcheck.Strategy
module Trace = Detcheck.Trace

let tagged x = Record.of_list ~fields:[] ~tags:[ ("x", x) ]

let multiset_eq a b =
  let key rs = List.sort compare (List.map Dist.Wire.render rs) in
  key a = key b

(* ------------------------------------------------------------------ *)
(* Step cases                                                          *)

(* Two one-partition stages: inputs go to partition 0, its outputs to
   partition 1, whose outputs are the run's. *)
let pipeline ?(credits = 4) inputs =
  let stage r_base = { Coord.r_base; r_width = 1; r_tag = None } in
  Coord.create ~policy:(Snet.Supervise.Retry 2) ~credits ~batch:64
    ~routes:[| stage 0; stage 1 |] inputs

let step c ev = Coord.step c ~now:0. ev

(* Step [evs] in order, collecting their actions. *)
let steps c evs = List.concat_map (step c) evs

(* End a turn: [Feed] until it returns no action. *)
let rec settle c = match step c Coord.Feed with [] -> [] | acts -> acts @ settle c

let frame ?gen c part msg =
  let gen = Option.value gen ~default:(Coord.gen c part) in
  Coord.Frame { part; gen; msg = Ok msg }

let sent part =
  List.concat_map (function Coord.Send (i, ms) when i = part -> ms | _ -> [])

let answers = List.filter_map (function Coord.Answer (id, _) -> Some id | _ -> None)
let respawns = List.filter_map (function Coord.Respawn i -> Some i | _ -> None)

(* Partition [i]'s connection closes and its replacement comes up. *)
let kill c i =
  steps c
    [
      Coord.Closed { part = i; gen = Coord.gen c i };
      Coord.Respawned { part = i; ok = true };
    ]

let test_retired_frame_dropped () =
  let c = pipeline [ tagged 0 ] in
  ignore (settle c);
  let old = Coord.gen c 0 in
  Alcotest.(check (list int)) "the death respawns partition 0" [ 0 ]
    (respawns (kill c 0));
  let out = Record.with_tag Coord.seq_tag 0 (tagged 0) in
  Alcotest.(check int) "the retired frame causes nothing" 0
    (List.length (step c (frame ~gen:old c 0 (Proto.Data out))));
  Alcotest.(check int) "nor reaches partition 1" 0
    (List.length (sent 1 (settle c)))

let test_eof_needs_no_credit () =
  let c = pipeline ~credits:1 [ tagged 0; tagged 1 ] in
  (match sent 0 (settle c) with
  | [ Proto.Data _ ] -> ()
  | ms -> Alcotest.failf "first write: %d messages" (List.length ms));
  ignore (step c (frame c 0 (Proto.Credit 1)));
  match sent 0 (settle c) with
  | [ Proto.Data _; Proto.Eof ] -> ()
  | ms ->
      Alcotest.failf "the last record and Eof share a write: got %s"
        (String.concat ", " (List.map Proto.to_string ms))

let test_retired_freeze_ack () =
  let c = pipeline (List.init 8 tagged) in
  ignore (settle c);
  let ack =
    Proto.Freeze_ack { state = Dist.Statecodec.encode Snet.Netstate.empty }
  in
  ignore (step c (Coord.Migrate { id = 7; part = 0 }));
  let g0 = Coord.gen c 0 in
  let acts =
    steps c
      [ frame c 0 (Proto.Crash "boom"); Coord.Respawned { part = 0; ok = true } ]
  in
  Alcotest.(check (list int)) "the death answers the migration" [ 7 ]
    (answers acts);
  let g1 = Coord.gen c 0 in
  Alcotest.(check (list int)) "the replacement's death answers nothing" []
    (answers (kill c 0));
  ignore (step c (Coord.Migrate { id = 8; part = 0 }));
  List.iter
    (fun gen ->
      Alcotest.(check int)
        (Printf.sprintf "an ack from generation %d does nothing" gen)
        0
        (List.length (step c (frame ~gen c 0 ack))))
    [ g0; g1 ];
  Alcotest.(check (list int)) "the live ack answers its own migration" [ 8 ]
    (answers
       (steps c [ frame c 0 ack; Coord.Respawned { part = 0; ok = true } ]))

let test_credit_beyond_inflight () =
  let c = pipeline [ tagged 0 ] in
  ignore (settle c);
  ignore (step c (frame c 0 (Proto.Credit 5)));
  Alcotest.(check int) "in flight drains to zero, not below" 0
    (Queue.length c.Coord.ws.(0).Coord.inflight)

let test_held_batch_stashes_death () =
  let c = pipeline ~credits:1 [ tagged 0 ] in
  ignore (settle c);
  let outs = List.map (fun x -> Record.with_tag Coord.seq_tag 0 (tagged x)) [ 10; 11 ] in
  (* Partition 1's window takes the first output; the second is held. *)
  ignore (step c (frame c 0 (Proto.Data_batch outs)));
  let acts =
    steps c
      [
        frame c 0 (Proto.Credit 1); Coord.Closed { part = 0; gen = Coord.gen c 0 };
      ]
  in
  Alcotest.(check int) "the credit and the close wait behind the batch" 0
    (List.length acts);
  Alcotest.(check (list int)) "room downstream replays the death" [ 0 ]
    (respawns (settle c))

let step_suite =
  [
    Alcotest.test_case "coord: retired generation's frame dropped" `Quick
      test_retired_frame_dropped;
    Alcotest.test_case "coord: Eof needs no credit" `Quick
      test_eof_needs_no_credit;
    Alcotest.test_case "coord: retired Freeze_ack answers nothing" `Quick
      test_retired_freeze_ack;
    Alcotest.test_case "coord: Credit beyond in-flight" `Quick
      test_credit_beyond_inflight;
    Alcotest.test_case "coord: held batch stashes the death" `Quick
      test_held_batch_stashes_death;
  ]

(* ------------------------------------------------------------------ *)
(* A seeded virtual driver                                             *)

(* One worker instance: a generation of one partition's connection.
   [inbox] is what the coordinator wrote to it, [outbox] what it wrote
   back (frames, then its close), both FIFO like a socket. A stopped
   worker takes nothing more, but what it already wrote stays
   deliverable. *)
type worker = {
  sn : int;
  part : int;
  gen : int;
  subnet : Snet.Net.t;
  faults : Fault.t;
  inbox : Proto.msg Queue.t;
  outbox : Coord.event Queue.t;
  mutable state : Snet.Netstate.t;
  mutable fed : int;
  mutable stopped : bool;
}

let stop w =
  if not w.stopped then begin
    w.stopped <- true;
    Queue.push (Coord.Closed { part = w.part; gen = w.gen }) w.outbox
  end

(* Take one message off the inbox, as [Engine_dist.serve] would: an
   envelope's outputs then its credit; a record crash stops mid
   envelope, flushing the outputs so far only under [Flush]. *)
let work ~batch w =
  let emit m =
    Queue.push (Coord.Frame { part = w.part; gen = w.gen; msg = Ok m }) w.outbox
  in
  let flush acc = List.iter emit (Proto.chunk ~batch (List.concat (List.rev acc))) in
  let rec consume acc n = function
    | [] ->
        flush acc;
        emit (Proto.Credit n)
    | r :: rest -> (
        w.fed <- w.fed + 1;
        match Fault.record_crash w.faults w.fed with
        | Some flushes ->
            if flushes then flush acc;
            stop w
        | None ->
            let outs, st =
              Snet.Engine_seq.run_state ~restore:w.state w.subnet [ r ]
            in
            w.state <- st;
            consume (outs :: acc) n rest)
  in
  match Queue.pop w.inbox with
  | Proto.Data r -> consume [] 1 [ r ]
  | Proto.Data_batch rs -> consume [] (List.length rs) rs
  | Proto.Eof -> emit Proto.Done
  | Proto.Restore { state } -> (
      match Dist.Statecodec.decode state with
      | Ok st -> w.state <- st
      | Error e -> failwith e)
  | Proto.Migrate ->
      if not (Fault.freeze_crash w.faults) then
        emit (Proto.Freeze_ack { state = Dist.Statecodec.encode w.state });
      stop w
  | _ -> w.stopped <- true

type scenario = { name : string; fault : Fault.t; moves : int list }

(* What one schedule explores: faults and migrations as a function of
   its number, so a seed and a number name it. *)
let scenario ~parts rng n =
  let part = Random.State.int rng parts in
  let crossing = 2 + Random.State.int rng 10 in
  let crash seam = Fault.[ Crash { part; seam; crossing } ] in
  match n mod 5 with
  | 0 -> { name = "kill"; fault = crash Fault.Record; moves = [] }
  | 1 -> { name = "crash-flush"; fault = crash Fault.Flush; moves = [] }
  | 2 -> { name = "migrate once"; fault = []; moves = [ part ] }
  | 3 -> { name = "migrate twice"; fault = []; moves = [ part; part ] }
  | _ ->
      {
        name = "kill in freeze";
        fault = Fault.[ Crash { part; seam = Freeze; crossing = 1 } ];
        moves = [ part ];
      }

let budget = 50_000

(* Run the core to the end over modelled workers. Output frames,
   credits, closes, migrate requests, the work of each worker and each
   [Feed] pass of a turn's end are separate events; [strategy] picks the
   next, and every choice among several is recorded. *)
let drive ~net ~plan ~credits ~batch ~strategy sc inputs =
  let segs = Array.of_list (Coord.segments net) in
  let c =
    Coord.create ~policy:(Snet.Supervise.Retry 2) ~credits ~batch
      ~routes:(Coord.routes_of ~plan net) inputs
  in
  let serial = ref 0 and all = ref [] in
  let spawn i ~first =
    let lo, hi = Plan.segments_of_part plan i in
    let w =
      {
        sn = !serial;
        part = i;
        gen = Coord.gen c i;
        subnet =
          Snet.Net.serial_list (Array.to_list (Array.sub segs lo (hi - lo + 1)));
        faults = Fault.spawn sc.fault ~part:i ~first;
        inbox = Queue.create ();
        outbox = Queue.create ();
        state = Snet.Netstate.empty;
        fed = 0;
        stopped = false;
      }
    in
    incr serial;
    all := !all @ [ w ];
    w
  in
  let live = Array.init (Plan.parts plan) (fun i -> spawn i ~first:true) in
  let moves = ref sc.moves and waiting = ref false and next_id = ref 0 in
  let now = ref 0. and turn_open = ref true in
  let rec exec acts =
    List.iter
      (function
        | Coord.Send (i, ms) ->
            if not live.(i).stopped then
              List.iter (fun m -> Queue.push m live.(i).inbox) ms
        | Coord.Close i -> stop live.(i)
        | Coord.Respawn i ->
            live.(i) <- spawn i ~first:false;
            exec (Coord.step c ~now:!now (Coord.Respawned { part = i; ok = true }))
        | Coord.Answer _ -> waiting := false)
      acts
  in
  let deliver ev =
    exec (Coord.step c ~now:!now ev);
    turn_open := true
  in
  let alternatives () =
    List.filter_map
      (fun w ->
        if w.stopped || Queue.is_empty w.inbox then None
        else Some (2 * w.sn, fun () -> work ~batch w))
      (Array.to_list live)
    @ List.filter_map
        (fun w ->
          if Queue.is_empty w.outbox then None
          else Some ((2 * w.sn) + 1, fun () -> deliver (Queue.pop w.outbox)))
        !all
    @ (match !moves with
      | part :: rest when not !waiting ->
          [
            ( -1,
              fun () ->
                moves := rest;
                waiting := true;
                incr next_id;
                deliver (Coord.Migrate { id = !next_id; part }) );
          ]
      | _ -> [])
    @
    if !turn_open then
      [
        ( -2,
          fun () ->
            let acts = Coord.step c ~now:!now Coord.Feed in
            turn_open := acts <> [];
            exec acts );
      ]
    else []
  in
  let trace = ref [] in
  let rec loop steps =
    if Coord.finished c then Coord.finish c
    else if steps >= budget then Error "step budget exhausted"
    else
      match alternatives () with
      | [] -> Error "no event can move: the run is stuck"
      | alts ->
          let ids = Array.of_list (List.map fst alts) in
          let k =
            if Array.length ids = 1 then 0
            else begin
              let k = Strategy.choose strategy ~tag:"coord" ~ids in
              trace :=
                { Trace.tag = "coord"; arity = Array.length ids; choice = k }
                :: !trace;
              k
            end
          in
          now := !now +. 0.001;
          snd (List.nth alts k) ();
          loop (steps + 1)
  in
  let outs = loop 0 in
  (outs, List.rev !trace)

let shard_net () = Sudoku.Networks.shard ~shards:2 ()

let shard_plan =
  [|
    Plan.Run { lo = 0; hi = 0 };
    Plan.Shard { seg = 1; shards = 2 };
    Plan.Run { lo = 2; hi = 2 };
  |]

let inputs = List.init 24 tagged
let reference = lazy (Snet.Engine_seq.run (shard_net ()) inputs)

(* Schedule [n] under [seed]: its scenario, window and envelope cap,
   and a random walk, all drawn from (seed, n). *)
let schedule ?strategy ~seed n =
  let rng = Random.State.make [| 0xc00d; seed; n |] in
  let sc = scenario ~parts:(Plan.parts shard_plan) rng n in
  (* A flushing crash shows only inside a multi-record envelope. *)
  let least =
    match sc.fault with [ Fault.Crash { seam = Flush; _ } ] -> 2 | _ -> 1
  in
  let credits = least + Random.State.int rng (5 - least) in
  let batch = least + Random.State.int rng (5 - least) in
  let strategy =
    match strategy with
    | Some s -> s
    | None -> Strategy.random ~seed:((seed * 7919) + n)
  in
  let outs, trace =
    drive ~net:(shard_net ()) ~plan:shard_plan ~credits ~batch ~strategy sc
      inputs
  in
  let verdict =
    match outs with
    | Error e -> Error e
    | Ok outs when multiset_eq (Lazy.force reference) outs -> Ok outs
    | Ok outs ->
        Error
          (Printf.sprintf "%d outputs, %d expected" (List.length outs)
             (List.length (Lazy.force reference)))
  in
  (sc, verdict, trace)

(* The first failing schedule among [0, schedules), if any. *)
let first_failure ~seed ~schedules =
  let rec go n =
    if n >= schedules then None
    else
      match schedule ~seed n with
      | sc, Error e, trace -> Some (n, sc, e, trace)
      | _, Ok _, _ -> go (n + 1)
  in
  go 0

let seed () = Seeded.seed () land 0xFFFF
let schedules = 100

let test_explore () =
  match first_failure ~seed:(seed ()) ~schedules with
  | None -> ()
  | Some (n, sc, e, trace) ->
      (* One line replays it: the seed through this suite, the saved
         trace through [Strategy.replay (Trace.load file)]. *)
      let line =
        Printf.sprintf
          "coord replay: DETCHECK_SEED=%d main.exe test detcheck (schedule \
           %d, %s: %s; trace %s)"
          (seed ()) n sc.name e (Trace.save_temp trace)
      in
      print_endline line;
      Alcotest.fail line

(* The resend without its watermark filter delivers the outputs of a
   crash-flushed envelope twice; the exploration must find that. *)
let test_mutation_resend_all () =
  let found =
    Fun.protect
      ~finally:(fun () -> Coord.resend_all := false)
      (fun () ->
        Coord.resend_all := true;
        first_failure ~seed:(seed ()) ~schedules)
  in
  match found with
  | Some (n, _, _, _) ->
      Printf.printf "resend-all mutation found at schedule %d (seed %d)\n" n
        (seed ())
  | None ->
      Alcotest.failf "resend-all mutation not found within %d schedules"
        schedules

let test_replay () =
  let seed = seed () in
  let sc, first, trace = schedule ~seed 4 in
  let _, again, trace' =
    schedule ~strategy:(Strategy.replay trace) ~seed 4
  in
  Alcotest.(check string) "same trace" (Trace.to_string trace)
    (Trace.to_string trace');
  match (first, again) with
  | Ok a, Ok b ->
      Alcotest.(check (list string))
        (sc.name ^ ": same outputs, same order")
        (List.map Dist.Wire.render a) (List.map Dist.Wire.render b)
  | _ -> Alcotest.fail "schedule 4 failed"

let explore_suite =
  [
    Alcotest.test_case "coord: faults and migrations explored" `Quick
      test_explore;
    Alcotest.test_case "coord: mutation resend-all is found" `Quick
      test_mutation_resend_all;
    Alcotest.test_case "coord: schedule replays exactly" `Quick test_replay;
  ]
