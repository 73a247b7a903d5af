(* The blocking-primitive seam for deterministic concurrency testing.

   Modules whose concurrency bugs we want to explore under a controlled
   scheduler ([Streams.Channel]) are functorized over this signature
   instead of calling [Mutex], [Condition] and [Domain] directly.
   Production code instantiates the functors with {!Os} (a direct,
   zero-cost mapping onto the real primitives — each function is a
   partial application of the stdlib one), while the detcheck library
   instantiates them with a virtual platform whose "threads" are fibers
   multiplexed on one carrier thread and whose every park/wake decision
   is driven by a seeded, replayable strategy. *)

module type S = sig
  val name : string
  (** Identifies the platform in diagnostics ("os", "virtual"). *)

  type mutex

  val mutex_create : unit -> mutex
  val lock : mutex -> unit
  val unlock : mutex -> unit

  type cond

  val cond_create : unit -> cond

  val wait : cond -> mutex -> unit
  (** Atomically release the mutex and block until signalled, then
      reacquire — the [Condition.wait] contract, spurious wakeups
      allowed. *)

  val signal : cond -> unit
  val broadcast : cond -> unit

  type thread

  val spawn : (unit -> unit) -> thread
  val join : thread -> unit

  val relax : unit -> unit
  (** Called inside spin loops: [Domain.cpu_relax] on real hardware, a
      scheduling point on a virtual platform. *)
end

module Os : S = struct
  let name = "os"

  type mutex = Mutex.t

  let mutex_create = Mutex.create
  let lock = Mutex.lock
  let unlock = Mutex.unlock

  type cond = Condition.t

  let cond_create = Condition.create
  let wait = Condition.wait
  let signal = Condition.signal
  let broadcast = Condition.broadcast

  type thread = unit Domain.t

  let spawn f = Domain.spawn f
  let join = Domain.join
  let relax = Domain.cpu_relax
end
