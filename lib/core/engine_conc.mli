(** Concurrent engine: networks as actor graphs over a domain pool.

    Boxes, filters, sync cells and the collectors of deterministic
    regions are actors ({!Streams.Actors}), as are the global output
    and, when the network's root is a routing node, one entry actor.
    Routing nodes — choice and split dispatchers, star taps and
    [Observe] wrappers — only route records, so they are not actors:
    they run inline on the sending thread, and a record crossing one
    pays no mailbox or pool task. Per-edge mailbox metrics therefore
    name actors only. Serial replicators unfold into new pipeline
    stages and parallel replicators into new replicas {e lazily}, when
    the first record demands them, exactly as the paper describes the
    demand-driven unfolding of [**] and [!!]; under concurrent senders
    each stage and replica is built exactly once.

    {2 Determinism}

    Nondeterministic combinators merge output streams by arrival: "any
    record produced proceeds as soon as possible". The deterministic
    variants ([|], [*], [!]) are implemented with a sequencing protocol
    equivalent to S-Net's sort records:

    - the combinator's entry stamps each incoming record with a
      sequence number and registers it in a per-combinator in-flight
      count;
    - every component adjusts the count of each enclosing deterministic
      combinator when it turns one record into [n] (boxes may emit any
      number of records, including none);
    - records additionally carry the path of emission indices that led
      to them, so the collector can restore the depth-first emission
      order within one sequence number;
    - the collector buffers descendants per sequence number and
      releases sequence numbers in order, each one's records sorted by
      emission path.

    Consequently a network built solely from deterministic combinators
    produces {e exactly} the output of {!Engine_seq}; nondeterministic
    merges produce a permutation that respects each merged stream's
    internal order. *)

type observer = edge:string -> Record.t -> unit

type instance

val start :
  ?pool:Scheduler.Pool.t ->
  ?exec:Scheduler.Exec.t ->
  ?batch:int ->
  ?mailbox:int ->
  ?observer:observer ->
  ?on_output:(Record.t -> unit) ->
  ?stats:Stats.t ->
  ?supervision:Supervise.config ->
  ?restore:Netstate.t ->
  Net.t ->
  instance
(** Build the network's initial actor graph. Actors run on [exec] when
    given (detcheck substitutes its virtual scheduler here), else on
    [pool] (default {!Scheduler.Pool.default}[ ()]); [batch] is the actor
    activation batch size and [mailbox] the per-actor queue bound (see
    {!Streams.Actors.system}). [supervision], when given, overrides
    every box's own config ({!Net.with_supervision}); error records
    emitted by supervised boxes bypass the remaining components — taking
    the direct edge to the merge point inside deterministic regions, so
    their position in a deterministic output is preserved. [on_output],
    when given, is called with each record as it arrives at the global
    output stream — the streaming seam long-running services
    ([snet_serve]) use to route responses without waiting for
    quiescence. It runs on the output actor: keep it non-blocking, or
    the network's tail stalls. An instance with [on_output] retains no
    outputs: every {!finish} on it returns [[]]. [restore], when
    given, replays a previously captured {!Netstate.t} into the actor
    graph as it builds: sync cells refill their stores, and recorded
    star stages / split replicas are built eagerly (their nested sync
    cells restore through the same mechanism). The capture may come
    from either engine ({!capture} or {!Engine_seq.run_state}): both
    name components alike. *)

val feed : instance -> Record.t -> unit
(** Inject one record into the network's input stream. May block
    briefly when the entry actor's bounded mailbox is full
    (backpressure); the caller then helps drain the pool. Each record
    is admission-checked against the network with {!Typecheck.flow}
    until one record of its variant has been accepted, so a rejected
    variant is rejected on every feed.
    @raise Typecheck.Type_error when the record cannot flow through
    the network. *)

val finish : instance -> Record.t list
(** Wait until the network is quiescent (every injected record fully
    processed) and return the output records produced since the
    previous [finish] (or since {!start}), in arrival order at the
    global output stream. Re-raises the first component exception, if
    any, routing nodes' included ([Errors.Route_error], or an
    [Observe] wrapper's observer raising): {!feed} never runs a
    routing node itself. May be called repeatedly, with more {!feed}s in between; each
    call hands back only its own delta, so its cost is proportional to
    that delta, not to the stream so far. Returns [[]] on an instance
    started with [on_output]. *)

val stats : instance -> Stats.snapshot

val capture : instance -> Netstate.t
(** Snapshot the network's runtime state — sync-cell stores and
    star/split unfolding extents — as a {!Netstate.t} suitable for
    [?restore] on a fresh instance of the same network. Only sound at
    quiescence (after {!finish}, with no concurrent {!feed}s): the
    capture reads storage otherwise private to component actors. *)

val run :
  ?pool:Scheduler.Pool.t ->
  ?exec:Scheduler.Exec.t ->
  ?batch:int ->
  ?mailbox:int ->
  ?observer:observer ->
  ?stats:Stats.t ->
  ?supervision:Supervise.config ->
  Net.t ->
  Record.t list ->
  Record.t list
(** [start], [feed] each record, [finish]. *)
