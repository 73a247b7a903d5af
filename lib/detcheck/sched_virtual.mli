(** The virtual scheduler: deterministic, single-threaded execution of
    concurrent programs on effect-based fibers.

    Every scheduling decision — which fiber resumes, which posted task
    an executor [help] runs — is made by a {!Strategy} and recorded as
    a {!Trace}; virtual time ({!Scheduler.Clock} is redirected for the
    duration of {!run}) advances only when the schedule is otherwise
    idle. A (program, strategy) pair therefore fully determines the
    execution, and {!Strategy.replay} reproduces it byte-for-byte.

    The program under test reaches the scheduler through two seams:
    {!Platform} for blocking primitives (run the real [Channel.Make]
    functor on it) and
    {!exec} for task execution (pass it to
    [Engine_conc.run ~exec] / [Streams.Actors.system ~exec]). *)

type t
(** A running virtual scheduler; valid only inside the callback of
    {!run}. *)

exception Budget_exhausted of int
(** The run exceeded its step budget — a livelock, or a budget set too
    small for the workload. *)

val run :
  ?budget:int ->
  strategy:Strategy.t ->
  (t -> 'a) ->
  ('a, exn) result * Trace.t
(** Execute [main] as the first fiber and drive the schedule to
    completion. Returns the first exception escaping any fiber —
    including {!Scheduler.Exec.Deadlock} when live fibers remain but
    nothing can run, and {!Budget_exhausted} past [budget] (default
    2,000,000) scheduling steps — plus the recorded trace either
    way. The global {!Scheduler.Clock} is virtual for the duration. *)

val exec : t -> Scheduler.Exec.t
(** A strategy-driven executor over this scheduler ([workers = 0]:
    callers help; [help] runs a strategy-chosen pending task). *)

val now : t -> float
(** Current virtual time (starts at 0). *)

val steps : t -> int
(** Scheduling decisions taken so far, forced ones included. *)

module Platform : Scheduler.Platform.S
(** Fiber-suspending mutexes, condition variables and threads. Only
    usable from fibers of the currently running scheduler. *)
