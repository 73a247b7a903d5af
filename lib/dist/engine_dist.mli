(** Distributed execution: a compiled network partitioned over workers.

    The paper designed the combinators so boxes can be "deployed on
    separate computing nodes" — serial composition carries no shared
    state, so a network can be cut at its serial seams and each cut
    edge replaced by a {!Transport} connection. This engine does
    exactly that:

    - {!segments} flattens the top-level serial spine [A .. B .. C];
      a placement {!Plan} groups the segments into partitions — by
      default {!Plan.contiguous}, box-count-balanced runs (parallel and
      replication combinators are never split — they stay whole inside
      one partition, or are sharded whole by a [Shard] stage);
    - each partition runs on {!Snet.Engine_conc} inside a {e worker}
      (an in-process thread over a {!Transport.Loopback} pair, or a
      real [snet_worker] process over {!Transport.Tcp});
    - the coordinator bridges the cut edges: inputs go to partition 0,
      each worker's outputs are forwarded to the next partition, the
      last partition's outputs are the run's outputs. Error-stamped
      records ({!Snet.Supervise.is_error}) bypass the remaining
      partitions and surface directly in the output, mirroring the
      in-engine error-bypass semantics.

    {2 Core and driver}

    The coordinator is a core and a driver. The core ([Coord], an
    internal module) holds every cut edge's state — routing, sequence
    stamps, credits, watermarks, respawns and migrations — as one
    transition function from events (a decoded frame or close, a
    migrate request, a respawn's outcome, the end of a turn) to
    actions (send these messages, close, respawn, answer); it touches
    no socket, thread or clock, so tests replay its races under seeded
    schedules. The threaded driver here runs it: the caller of
    {!run}/{!run_spawned} runs the loop, and one reader thread per
    connection only posts what it receives to the loop's inbox. Each
    turn the loop steps everything queued, carries out the actions (a
    respawn at once, its outcome stepped before anything else), and
    ends with passes that feed inputs and write, until one is quiet.

    {2 Flow control and batching}

    A cut edge carries a credit window of [credits] records; the worker
    returns one [Credit k] per input envelope once its records are
    fully processed. Routing queues at most a window of records per
    edge; the loop writes up to [min credits batch] of them per
    [Proto.Data_batch] envelope (a singleton is a plain [Data]), all of
    an edge's envelopes of a pass in one transport write, so light load
    sends each record at once and heavy load amortises framing. A
    worker's output batch that meets a full window downstream is held,
    and that worker's later frames wait behind it: the backpressure of
    a blocked producer, counted by {!Snet.Stats.record_backpressure}
    and [Obsv.Probe.edge_stall], with no thread blocked. The wire [Eof]
    goes out once the queue drains and needs no credit, so a full
    window can never hold it back. [batch = 1] disables batching; the
    default cap is {!default_batch}.

    {2 Worker failure}

    A worker that dies (connection drop, [Crash] message, killed
    process) is handled per the run's supervision policy: [Fail_fast]
    (default) raises after teardown; [Error_record] stamps every record
    in flight to it, or later routed at it, with
    {!Snet.Supervise.error_record} (box [dist:workerN]) while
    downstream partitions keep running; [Retry n] respawns it and
    resends the uncredited in-flight records, up to [n] times per
    worker, then behaves as [Error_record].

    {2 Exactly-once resend (sequence watermark)}

    Every record on a cut edge carries a monotone sequence stamp (tag
    [dist_seq], stripped at the global output), and outputs inherit
    their input's stamp. Workers consume in order and flush only at
    envelope boundaries, so an output stamped [s] from worker [i]
    proves that [i] fully processed every input stamped at or below
    [s]. A respawn resends only the uncredited records {e above} this
    watermark, so a worker that flushed outputs but died before its
    credit arrived (a {!Fault.Flush} crash, or the natural TCP race)
    does not deliver them twice.

    {2 Fault plans}

    [?fault] on {!run}, {!run_spawned} and {!serve} is one {!Fault.t}:
    the crashes and stalls a run injects into its own workers, each
    naming a partition and, for a crash, a seam (a consumed record,
    one with its envelope's outputs flushed, a freeze) and a crossing.
    A fault applies to its partition's first spawn only, so recovery is
    honest. A partition outside the run's plan, a crossing below 1 or a
    negative stall is refused with [Invalid_argument]. Worker processes
    learn their crash from the Hello's [crash_after]/[crash_flush], so
    {!run_spawned} takes one [Record] or [Flush] crash per partition
    and refuses anything else; loopback workers honour every fault.

    {2 Durability taps}

    [?tap] on {!run}/{!run_spawned} observes every record crossing a
    cut edge ([dist:wN.in], stamped) and every record reaching the
    global output ([dist:out], stripped). The [durable] library layers
    its cut-edge journal on this hook; the engine itself stays free of
    journalling policy.

    {2 Cluster observability}

    [?collector] on {!run}/{!run_spawned} turns on metric/trace
    shipping: each Hello carries the coordinator's [Obsv.Sink] flag
    byte, and the worker mirrors those subsystems and ships
    [Proto.Metrics_report] frames (after [Hello_ack], every 0.5 s and
    before [Done]) plus, when tracing, one [Proto.Trace_chunk]. The
    [Obsv.Agg.collector] merges them into HDR histograms,
    {!Obsv.Health} rows and a Chrome trace whose cross-worker arrows
    follow a per-record trace id (tag [Obsv.Probe.trace_tag], stamped
    at ingress when absent, stripped at the global output). Without a
    collector the record path keeps its single atomic flag read. *)

(** {2 Batch cap validation}

    Every envelope cap — [--dist-batch], [snet_serve --batch], the
    [?batch] arguments below and [Serve.Server]'s config — goes through
    {!validate_batch}: above [max_batch] is clamped, below [min_batch]
    rejected with a descriptive message. *)

val min_batch : int
(** [1] — a cap of 1 disables batching. *)

val max_batch : int
(** [4096] — larger requests are clamped here. *)

val default_batch : int
(** [64] — used when no argument names a cap. *)

val validate_batch : int -> (int, string) result
(** Validate a batch cap (see above): [Ok] the cap to use, clamped to
    [max_batch]. *)

val segments : Snet.Net.t -> Snet.Net.t list
(** Flatten the top-level serial spine [A .. B .. C] into its
    segments, in pipeline order — the unit {!Plan} stages index into. *)

(** {2 Live repartitioning}

    A {!handle} (delivered via [?on_handle] below) lets a controller —
    [Elastic.Balancer], a test — move partitions while the run is in
    flight. {!migrate} drains, freezes and respawns one partition: the
    loop stops writing to it (routing keeps queueing, bounded by the
    window) and sends [Proto.Migrate]; the worker finishes what it
    received, flushes outputs and credits, and answers
    [Proto.Freeze_ack] with its captured engine state; the coordinator
    respawns the partition, seeds the replacement with
    [Proto.Restore] (skipped for an empty state), resends any
    uncredited records above the watermark and lets queued records
    flow again. Nothing is lost or duplicated, by the same watermark
    argument as a crash respawn. A worker that dies mid-freeze falls
    back to crash recovery under the run's policy. *)

type handle

val migrate : handle -> int -> (float, string) result
(** [migrate h part] moves [part] onto a freshly spawned worker and
    returns the downtime in seconds (freeze request to alive again).
    [Error] reasons include: the run already finished or failed, the
    partition is at end of stream or already migrating/dead, no
    replacement could be spawned, or the worker died during the
    freeze (crash recovery then proceeds per the supervision policy).
    Posts the request to the coordinator loop and blocks its caller
    until the loop answers; safe to call from any thread but the one
    running the run (from there, as from [on_handle], it is refused
    instead of waiting on itself), one migration per partition at a
    time. *)

val handle_parts : handle -> int
(** Partition count of the running net. *)

val handle_plan : handle -> Plan.t
(** The placement plan the run was cut under. *)

val handle_finished : handle -> bool
(** True once the run has completed or failed; migrations are refused. *)

val serve :
  ?pool:Scheduler.Pool.t ->
  ?tap:(edge:string -> Snet.Record.t -> unit) ->
  ?fault:Fault.t ->
  conn:Transport.conn ->
  resolve:(string -> Snet.Net.t) ->
  unit ->
  unit
(** Worker side: speak the {!Proto} protocol on [conn] — wait for
    [Hello], resolve the network named by its [spec], run the subnet
    its [plan] gives partition [part] (a shard replica runs its whole
    replicated segment) on {!Snet.Engine_conc}, stream records until
    [Eof], answer [Done], exit on [Shutdown] or connection close. A
    Hello without a plan, and any subnet failure, are answered with a
    [Crash]; the connection is always closed on return. [tap] observes
    every input record before it is fed (edge [dist:wN.in]) —
    [snet_worker --journal] hangs its journal here. [Proto.Restore]
    before the first record seeds the engine with a migrated
    partition's state; [Proto.Migrate] flushes, captures the state
    ({!Statecodec}) into [Proto.Freeze_ack], and exits. The worker
    injects the faults of [fault] and of its Hello that name its
    partition. *)

val run :
  ?pool:Scheduler.Pool.t ->
  ?workers:int ->
  ?credits:int ->
  ?batch:int ->
  ?stats:Snet.Stats.t ->
  ?supervision:Snet.Supervise.config ->
  ?fault:Fault.t ->
  ?tap:(edge:string -> Snet.Record.t -> unit) ->
  ?collector:Obsv.Agg.collector ->
  ?plan:Plan.t ->
  ?on_handle:(handle -> unit) ->
  Snet.Net.t ->
  Snet.Record.t list ->
  Snet.Record.t list
(** Hermetic in-process distributed run: simulated workers over
    {!Transport.Loopback} pairs, each a thread running {!serve},
    coordinated as described above. Without [?plan] the layout is
    {!Plan.contiguous} over [workers] (default 2) partitions; with it,
    the plan decides the cut and the shard groups. [credits] (default
    32) is the per-edge window; [batch] (default {!default_batch},
    checked by {!validate_batch}) caps records per envelope. [fault],
    [tap] and [collector] are described above; [on_handle] receives
    the {!handle} before the first input is fed. Output is
    multiset-equal to {!Snet.Engine_seq.run} on the same network and
    inputs, modulo stamped error records when workers die for good. *)

val run_spawned :
  worker_exe:string ->
  spec:string ->
  ?host:string ->
  ?workers:int ->
  ?credits:int ->
  ?batch:int ->
  ?stats:Snet.Stats.t ->
  ?supervision:Snet.Supervise.config ->
  ?fault:Fault.t ->
  ?tap:(edge:string -> Snet.Record.t -> unit) ->
  ?collector:Obsv.Agg.collector ->
  ?plan:Plan.t ->
  ?on_handle:(handle -> unit) ->
  ?worker_args:string list ->
  Snet.Net.t ->
  Snet.Record.t list ->
  Snet.Record.t list
(** Real multi-process run: listen on an ephemeral TCP port, spawn
    enough copies of [worker_exe] (each told [--connect host:port]
    plus [worker_args]) for the plan's partitions, assign them in
    accept order, and coordinate over {!Transport.Tcp}. [net] must be
    the same network the worker binary resolves from [spec]; the plan
    travels in each Hello, so both sides provably run the same cut.
    [fault] takes only what a Hello carries (see above); the remaining
    arguments mean what they do in {!run}.
    Worker processes are reaped on return, by force if they outlive
    the shutdown handshake.
    @raise Failure when a worker fails to connect within 30s, or on
    worker death under [Fail_fast]. *)
