(** A work-stealing pool of worker domains.

    This is the execution substrate standing in for SaC's multithreaded
    runtime: data-parallel with-loops are partitioned into ranges and
    executed by the pool ({!parallel_for_range},
    {!parallel_for_reduce_range}), and the S-Net actor engine runs
    component activations on it ({!async}).

    Each worker domain owns a Chase–Lev deque: it pushes and pops its
    own work LIFO and steals FIFO from siblings when empty, parking on
    a condition variable only after a full sweep finds nothing.
    Submissions from non-worker threads enter through a shared injector
    queue. The range operations use lazy binary splitting: every
    participant owns a contiguous subrange and splits off stealable
    halves only while idle workers are observed, so a saturated pool
    runs straight-line loops with no shared-counter traffic.

    The calling thread always participates in the bracketed operations
    (the range operations and [run]), so a pool created with
    [num_domains:0] is a correct, purely sequential executor — useful
    on single-core machines and for deterministic tests. *)

type t

val create :
  ?num_domains:int -> ?steal_choice:(slot:int -> n:int -> int) -> unit -> t
(** [create ~num_domains ()] spawns [num_domains] worker domains
    (default: [Domain.recommended_domain_count () - 1]).

    [steal_choice], when given, replaces the per-worker seeded RNG
    that picks where an idle worker starts its steal sweep — the
    pool's one tunable nondeterministic choice point. Detcheck routes
    it through a recorded strategy; production leaves it unset, which
    compiles to the direct RNG call. The function receives the
    stealing worker's [slot] and the number of deques [n] and must
    return a value whose [mod n] is the sweep start; it is called
    concurrently from all workers and must be thread-safe. *)

val num_workers : t -> int
(** Number of spawned worker domains (excludes the caller). *)

val parallelism : t -> int
(** [num_workers t + 1]: total parties executing a bracketed
    operation. *)

val shutdown : t -> unit
(** Wait for queued tasks to drain and join all workers. Idempotent.
    Submitting to a shut-down pool raises [Invalid_argument]. *)

val async : t -> (unit -> 'a) -> 'a Future.t
(** Submit a task; the future resolves with its result or exception. *)

val help : t -> bool
(** Run one queued task on the calling thread if any is available
    (the caller's own deque if it is a worker, then the injector, then
    a steal sweep); returns whether one ran. Lets a thread that is
    waiting on pool work make progress on pools created with
    [num_domains:0]. *)

val post : t -> (unit -> unit) -> unit
(** Fire-and-forget submission; the task must not raise (an escaping
    exception terminates the worker's current activation and is
    re-raised there). Used by the actor engine, which does its own
    error containment. From a worker of this pool the task goes to the
    worker's own deque (LIFO); from any other thread it goes through
    the injector queue. *)

val run : t -> (unit -> 'a) -> 'a
(** [run t f] submits [f] and waits, helping to execute other queued
    tasks while waiting (so nested [run] from inside a task cannot
    deadlock the pool). On a pool with no workers the wait is a
    bounded spin followed by a blocking wait, never an unbounded
    busy-loop. *)

val parallel_for_range :
  t -> ?grain:int -> lo:int -> hi:int -> (lo:int -> hi:int -> unit) -> unit
(** [parallel_for_range t ~lo ~hi body] calls [body ~lo:a ~hi:b] on
    machine-assigned subranges [a, b) that partition [lo, hi): every
    index is covered exactly once, in no particular order. The caller
    writes the element loop, so per-chunk state (scratch buffers,
    accumulators) is hoisted out of it.

    On a pool with {!parallelism} [> 1], each call receives at most
    [grain] indices (default: a heuristic based on range size and
    parallelism). On a pool with {!parallelism} [1] (created with
    [num_domains:0]) there is nobody to share with, so a non-empty range
    goes to a single call whatever [grain] is.

    The first exception raised by any [body] is re-raised in the caller
    after all participants stop.
    @raise Invalid_argument if [grain < 1] and the range is non-empty. *)

val parallel_for_reduce_range :
  t ->
  ?grain:int ->
  lo:int ->
  hi:int ->
  combine:('a -> 'a -> 'a) ->
  init:'a ->
  (lo:int -> hi:int -> 'a) ->
  'a
(** Reducing form of {!parallel_for_range}, with the same subranges,
    [grain] contract and exception behaviour: [body ~lo ~hi] computes the
    partial value of a whole subrange (typically folding locally from
    [init]) and the partials are folded with [combine], which must be
    associative and commutative with unit [init]; the combination order
    is unspecified. An empty range returns [init]. *)

(** {1 Observability} *)

type stats = {
  tasks : int;  (** Tasks executed by workers and helping threads. *)
  steals : int;  (** Successful steals from a sibling's deque. *)
  parks : int;  (** Times a worker went to sleep for lack of work. *)
  splits : int;  (** Ranges split off by the data-parallel operations. *)
}

val stats : t -> stats
(** Monotonic per-pool counters since {!create}; cheap racy snapshot. *)

(** {1 Process-global default} *)

val default : unit -> t
(** A process-global pool, created on first use. *)

val set_default_num_domains : int -> unit
(** Configure the size of the pool returned by {!default}; only
    effective before the first call to [default]. *)
