(* The virtual scheduler: runs an entire concurrent program —
   engines, actors, channels, pools — single-threaded on effect-based
   fibers, with every scheduling decision (which fiber resumes, which
   posted task runs) delegated to a {!Strategy} and recorded as a
   {!Trace}. Time is virtual: [Clock.now] reads the scheduler's clock
   and [Clock.sleep] parks the fiber on a timer that fires only when
   the schedule would otherwise be idle, so timeout and backoff paths
   run in microseconds and identically on every machine.

   Blocking primitives come in through two seams:
   - {!Platform}: a [Scheduler.Platform.S] whose mutex/condition/
     spawn/join suspend fibers instead of OS threads — the REAL
     [Channel.Make] code runs on it unmodified;
   - {!exec}: a [Scheduler.Exec.t] whose [post]ed tasks go into a bag
     that strategy-chosen [help] calls drain — the actor layer and
     [Engine_conc] run on it unmodified.

   Because exactly one fiber runs at a time and switches only at
   these points, a (program, strategy) pair determines the whole
   execution; replaying a recorded trace reproduces it
   byte-for-byte. *)

type waker = unit -> unit

type _ Effect.t +=
  | Yield : unit Effect.t
  | Suspend : (string * (waker -> unit)) -> unit Effect.t
  | Sleep : float -> unit Effect.t
  | Now : float Effect.t
  | Spawn : (string * (unit -> unit)) -> unit Effect.t

exception Budget_exhausted of int

let () =
  Printexc.register_printer (function
    | Budget_exhausted n ->
        Some (Printf.sprintf "Detcheck budget exhausted after %d steps" n)
    | _ -> None)

type entry = { fid : int; flabel : string; thunk : unit -> unit }

type t = {
  strategy : Strategy.t;
  budget : int;
  mutable steps : int;
  mutable runnable : entry list;  (* scheduling candidates, FIFO-stable *)
  blocked : (int, string) Hashtbl.t;  (* fid -> label:why, for reports *)
  mutable live : int;  (* fibers spawned and not yet finished *)
  mutable time : float;
  mutable timers : (float * int * waker) list;  (* sorted by (time, seq) *)
  mutable timer_seq : int;
  mutable next_fid : int;
  mutable next_task : int;
  mutable task_bag : (int * (unit -> unit)) list;
  mutable trace_rev : Trace.step list;
  mutable failure : exn option;  (* first exception escaping any fiber *)
}

let now t = t.time
let steps t = t.steps

(* One scheduling decision. Forced choices are not recorded (replay
   infers them) but still count against the budget, so livelocks that
   never branch — a lone fiber yielding forever — still terminate. *)
let choose t ~tag ids =
  t.steps <- t.steps + 1;
  if t.steps > t.budget then raise (Budget_exhausted t.budget);
  let n = Array.length ids in
  if n = 1 then 0
  else begin
    let i = Strategy.choose t.strategy ~tag ~ids in
    if i < 0 || i >= n then
      invalid_arg
        (Printf.sprintf "strategy %s returned %d for %d alternatives"
           (Strategy.name t.strategy) i n);
    t.trace_rev <- { Trace.tag; arity = n; choice = i } :: t.trace_rev;
    i
  end

let push_runnable t e = t.runnable <- t.runnable @ [ e ]

let add_timer t delay w =
  let deadline = t.time +. Float.max 0. delay in
  let seq = t.timer_seq in
  t.timer_seq <- seq + 1;
  t.timers <-
    List.sort
      (fun (d1, s1, _) (d2, s2, _) -> compare (d1, s1) (d2, s2))
      ((deadline, seq, w) :: t.timers)

(* Advance virtual time to the earliest pending timer and fire it.
   Returns false when no timer is pending. *)
let fire_next_timer t =
  match t.timers with
  | [] -> false
  | (deadline, _, w) :: rest ->
      t.timers <- rest;
      if deadline > t.time then t.time <- deadline;
      w ();
      true

let describe_stuck t =
  let fibers =
    Hashtbl.fold (fun _ label acc -> label :: acc) t.blocked []
    |> List.sort compare |> String.concat ", "
  in
  Printf.sprintf
    "virtual deadlock: %d fiber(s) blocked [%s], %d task(s) queued, no \
     runnable fiber or pending timer"
    (Hashtbl.length t.blocked) fibers (List.length t.task_bag)

let rec spawn_fiber t flabel (f : unit -> unit) =
  let fid = t.next_fid in
  t.next_fid <- fid + 1;
  t.live <- t.live + 1;
  let resume_of k = fun () -> Effect.Deep.continue k () in
  let body () =
    Effect.Deep.match_with f ()
      {
        retc = (fun () -> t.live <- t.live - 1);
        exnc =
          (fun e ->
            t.live <- t.live - 1;
            if t.failure = None then t.failure <- Some e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Yield ->
                Some
                  (fun (k : (a, unit) Effect.Deep.continuation) ->
                    push_runnable t { fid; flabel; thunk = resume_of k })
            | Suspend (why, register) ->
                Some
                  (fun (k : (a, unit) Effect.Deep.continuation) ->
                    Hashtbl.replace t.blocked fid (flabel ^ ":" ^ why);
                    register (fun () ->
                        Hashtbl.remove t.blocked fid;
                        push_runnable t { fid; flabel; thunk = resume_of k }))
            | Sleep d ->
                Some
                  (fun (k : (a, unit) Effect.Deep.continuation) ->
                    Hashtbl.replace t.blocked fid (flabel ^ ":sleep");
                    add_timer t d (fun () ->
                        Hashtbl.remove t.blocked fid;
                        push_runnable t { fid; flabel; thunk = resume_of k }))
            | Now ->
                Some
                  (fun (k : (a, unit) Effect.Deep.continuation) ->
                    (* Not a scheduling point: answer in place. *)
                    Effect.Deep.continue k t.time)
            | Spawn (lbl, g) ->
                Some
                  (fun (k : (a, unit) Effect.Deep.continuation) ->
                    spawn_fiber t lbl g;
                    Effect.Deep.continue k ())
            | _ -> None);
      }
  in
  push_runnable t { fid; flabel; thunk = body }

(* The driver: repeatedly pick a runnable fiber (by strategy) and run
   it to its next suspension. When nothing is runnable, virtual time
   jumps to the earliest timer; when there is no timer either but
   fibers are still live, the program is deadlocked. *)
let drive t =
  let continue_ = ref true in
  while !continue_ do
    match t.runnable with
    | [] ->
        if fire_next_timer t then ()
        else if t.live > 0 then raise (Scheduler.Exec.Deadlock (describe_stuck t))
        else continue_ := false
    | rs ->
        let ids = Array.of_list (List.map (fun e -> e.fid) rs) in
        let i = choose t ~tag:"fiber" ids in
        let e = List.nth rs i in
        t.runnable <- List.filteri (fun j _ -> j <> i) rs;
        e.thunk ()
  done

(* The virtual executor: posted tasks (actor activations) accumulate
   in a bag; [help] runs a strategy-chosen one inline in the calling
   fiber, exactly like helping on a zero-worker pool; [idle] makes
   blocked-but-polling callers productive — yield to other fibers,
   else advance time, else report the deadlock. *)
let exec t : Scheduler.Exec.t =
  let post f =
    let id = t.next_task in
    t.next_task <- id + 1;
    t.task_bag <- t.task_bag @ [ (id, f) ]
  in
  let help () =
    match t.task_bag with
    | [] -> false
    | bag ->
        let ids = Array.of_list (List.map fst bag) in
        let i = choose t ~tag:"task" ids in
        let _, f = List.nth bag i in
        t.task_bag <- List.filteri (fun j _ -> j <> i) bag;
        f ();
        true
  in
  let idle () =
    if t.task_bag <> [] then ()
    else if t.runnable <> [] then Effect.perform Yield
    else if fire_next_timer t then ()
    else raise (Scheduler.Exec.Deadlock (describe_stuck t))
  in
  { Scheduler.Exec.post; help; idle; workers = 0; label = "virtual" }

(* OS-primitive replacements that suspend fibers. All state lives in
   the primitive itself; the scheduler is reached only through the
   effects, so this module needs no handle on [t]. *)
module Platform : Scheduler.Platform.S = struct
  let name = "virtual"

  type mutex = { mutable locked : bool; mq : waker Queue.t }

  let mutex_create () = { locked = false; mq = Queue.create () }

  let rec lock m =
    if m.locked then begin
      Effect.perform (Suspend ("lock", fun w -> Queue.push w m.mq));
      lock m
    end
    else m.locked <- true

  let unlock m =
    m.locked <- false;
    match Queue.take_opt m.mq with Some w -> w () | None -> ()

  type cond = { cq : waker Queue.t }

  let cond_create () = { cq = Queue.create () }

  let wait c m =
    (* No fiber switch happens between releasing the mutex and parking
       on the condition (neither operation is a scheduling point), so
       the unlock/wait pair is atomic — no missed signals. *)
    unlock m;
    Effect.perform (Suspend ("wait", fun w -> Queue.push w c.cq));
    lock m

  let signal c = match Queue.take_opt c.cq with Some w -> w () | None -> ()

  let broadcast c =
    let rec go () =
      match Queue.take_opt c.cq with
      | Some w ->
          w ();
          go ()
      | None -> ()
    in
    go ()

  type thread = { mutable finished : bool; joiners : waker Queue.t }

  let spawn f =
    let h = { finished = false; joiners = Queue.create () } in
    Effect.perform
      (Spawn
         ( "thread",
           fun () ->
             Fun.protect f ~finally:(fun () ->
                 h.finished <- true;
                 let rec wake () =
                   match Queue.take_opt h.joiners with
                   | Some w ->
                       w ();
                       wake ()
                   | None -> ()
                 in
                 wake ()) ));
    h

  let join h =
    while not h.finished do
      Effect.perform (Suspend ("join", fun w -> Queue.push w h.joiners))
    done

  let relax () = Effect.perform Yield
end

let clock_source =
  {
    Scheduler.Clock.now = (fun () -> Effect.perform Now);
    sleep = (fun d -> Effect.perform (Sleep d));
    label = "virtual";
  }

let run ?(budget = 2_000_000) ~strategy main =
  let t =
    {
      strategy;
      budget;
      steps = 0;
      runnable = [];
      blocked = Hashtbl.create 16;
      live = 0;
      time = 0.;
      timers = [];
      timer_seq = 0;
      next_fid = 0;
      next_task = 0;
      task_bag = [];
      trace_rev = [];
      failure = None;
    }
  in
  let result = ref None in
  Scheduler.Clock.with_source clock_source (fun () ->
      spawn_fiber t "main" (fun () -> result := Some (main t));
      (* Anything escaping the driver — deadlock, budget, a strategy
         divergence at a fiber choice — is the run's failure. *)
      match drive t with
      | () -> ()
      | exception e -> if t.failure = None then t.failure <- Some e);
  let trace = List.rev t.trace_rev in
  match (t.failure, !result) with
  | Some e, _ -> (Error e, trace)
  | None, Some v -> (Ok v, trace)
  | None, None ->
      (Error (Failure "detcheck: main fiber never completed"), trace)
