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

    {2 Flow control and batching}

    A cut edge carries a credit window of [credits] records: the
    coordinator decrements a credit per record sent and writes no more
    records to the edge once the window is exhausted; the worker returns credits as input records
    are fully processed (one [Credit k] per input envelope). Stalls are
    counted into {!Snet.Stats.record_backpressure} and surfaced as
    [Obsv.Probe.edge_stall] on the [dist:wN.in] edge — the same
    backpressure contract bounded mailboxes give the shared-memory
    engines.

    One coordinator thread — the caller of {!run}/{!run_spawned} —
    runs an event loop that alone owns every cut edge's state:
    routing, sequence stamps, credits, watermarks, respawns and
    migrations. One reader thread per connection only receives: it
    posts each frame to the loop's inbox and never waits on the loop.
    Records are routed onto a per-edge pending queue bounded by the
    credit window, and the loop writes whatever is queued — up to
    [min credits batch] records per [Proto.Data_batch] envelope — in
    one coalesced transport write per edge and turn. Under light load
    the pending queue is empty when a record arrives, so it leaves
    immediately (a singleton envelope is a plain [Data]); under load,
    envelopes fill and per-record syscall/framing cost amortises away.
    Inputs are fed only while partition 0's window has room; a
    worker's output batch that meets a full destination window is
    held, and that worker's later frames (credits included) wait
    behind it until room frees — the backpressure of a blocked
    producer, with no thread blocked. End-of-stream is two-phase: the
    wire [Eof] goes out only after the pending queue drains, and
    sending it needs no credit — so a full window plus an Eof can
    never park the edge. [batch = 1] disables batching entirely; the
    default envelope cap is {!default_batch}.

    {2 Worker failure}

    A worker that dies (connection drop, [Crash] message, killed
    process) is handled per the run's supervision policy:

    - [Fail_fast] (default): the run raises after teardown;
    - [Error_record]: every record in flight to the dead worker — and
      every later record routed at it — is stamped with
      {!Snet.Supervise.error_record} (box [dist:workerN]) and surfaces
      in the output; downstream partitions keep running;
    - [Retry n]: the worker is respawned and the uncredited in-flight
      records are resent, up to [n] times per worker, after which the
      [Error_record] behaviour applies.

    {2 Exactly-once resend (sequence watermark)}

    Every record the coordinator puts on a cut edge is stamped with a
    monotone sequence number (tag [dist_seq], stripped again at the
    global output); outputs inherit the stamp of the input that
    produced them through the worker's subnet. Workers consume their
    input strictly in order and flush outputs only at quiescent
    envelope boundaries, so when an output stamped [s] has come back
    from worker [i], every input that worker received with a stamp at
    or below [s] was fully processed. On a [Retry] respawn the
    coordinator therefore resends only the uncredited in-flight
    records {e above} this per-worker watermark: a worker that died
    after flushing an envelope's outputs but before its credit was
    observed (the [crash_flush] fault-injection window, and the
    natural TCP race) no longer causes those outputs to be delivered
    twice.

    {2 Durability taps}

    [?tap] on {!run}/{!run_spawned} observes every record crossing a
    cut edge ([dist:wN.in], stamped) and every record reaching the
    global output ([dist:out], stripped). The [durable] library layers
    its cut-edge journal on this hook; the engine itself stays free of
    journalling policy.

    {2 Cluster observability}

    [?collector] on {!run}/{!run_spawned} turns on metric/trace
    shipping: the Hello each worker receives carries the coordinator's
    [Obsv.Sink] flag byte, the worker mirrors those subsystems locally
    and ships [Proto.Metrics_report] frames (immediately after
    [Hello_ack], every 0.5 s, and just before [Done])
    plus one [Proto.Trace_chunk] of its retained sink events when
    tracing is on. The coordinator feeds them into the
    [Obsv.Agg.collector] — merged HDR histograms, per-partition
    {!Obsv.Health} rows (queue depth, credits, stall rate, journal
    lag), and a merged Chrome trace whose cross-worker flow arrows are
    stitched from a per-record trace id (tag [Obsv.Probe.trace_tag],
    stamped at ingress only when absent, carried across every cut
    edge, stripped at the global output). Without a collector — and
    with observability off — the record path keeps its single atomic
    flag read and the wire format carries one extra Hello byte. *)

(** {2 Batch cap validation}

    Every envelope cap — [--dist-batch], [snet_serve --batch], the
    [?batch] arguments below and [Serve.Server]'s config — goes through
    {!validate_batch}: values above [max_batch] are clamped (the
    documented upper bound), anything below [min_batch] ([0],
    negatives) is rejected with a descriptive message. *)

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

    A {!handle} (delivered via [?on_handle] below) lets an external
    controller — [Elastic.Balancer], a test, a REPL — move partitions
    while the run is in flight. {!migrate} executes the three-step
    drain/freeze/respawn protocol on one partition:

    + the coordinator loop marks the partition migrating and sends a
      [Proto.Migrate] frame; from then on it writes nothing to the
      partition while routing keeps enqueueing onto it, bounded by
      the credit window as usual;
    + the worker finishes every input it already received, flushes the
      outputs and credits, captures its engine state at quiescence and
      answers [Proto.Freeze_ack] (workers process strictly in order
      and the transport is FIFO, so all credits precede the ack — the
      in-flight queue is empty after a clean freeze);
    + the coordinator respawns the partition, seeds the replacement
      with [Proto.Restore] (skipped when the captured state is empty)
      and resends any uncredited in-flight records above the sequence
      watermark, then marks it alive — queued records flow again.

    No record is lost or duplicated: the same watermark argument that
    covers crash respawns applies, with the simplification that a
    clean freeze leaves nothing uncredited. A worker that dies mid
    freeze falls back to ordinary crash recovery under the run's
    supervision policy. *)

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
(** True once the run has completed or failed — migrations are
    refused from then on. *)

val serve :
  ?pool:Scheduler.Pool.t ->
  ?tap:(edge:string -> Snet.Record.t -> unit) ->
  ?throttle_us:int ->
  ?die_in_freeze:bool ->
  conn:Transport.conn ->
  resolve:(string -> Snet.Net.t) ->
  unit ->
  unit
(** Worker side: speak the {!Proto} protocol on [conn] — wait for
    [Hello], resolve the network named by its [spec], run partition
    [part]/[parts] on {!Snet.Engine_conc}, stream records until [Eof],
    answer [Done], exit on [Shutdown] or connection close. Subnet
    failures are reported as [Crash] messages; the connection is
    always closed on return. [tap] observes every input record this
    worker consumes (edge [dist:wN.in] for partition [N]), before it
    is fed — [snet_worker --journal] hangs its local journal here.
    When the Hello requests shipping, a metrics report goes out right
    after [Hello_ack], every 0.5 s, and just before [Done].

    The Hello's [plan] selects this worker's subnet from the plan's
    stage for its partition (a shard replica runs its whole replicated
    segment); a Hello without a plan is answered with a [Crash] naming
    the plan and no [Hello_ack]. [Proto.Restore] before the first
    record seeds the engine with a migrated partition's captured state,
    and
    [Proto.Migrate] freezes the partition: outputs flush, the engine
    state is captured ({!Statecodec}) and returned in
    [Proto.Freeze_ack], and the worker exits.

    [throttle_us] delays each consumed record by that many
    microseconds — the skew-injection knob bench and tests use to
    provoke rebalancing. [die_in_freeze] makes the worker die abruptly
    instead of answering a [Migrate] — fault injection for the
    freeze/death race. *)

val run :
  ?pool:Scheduler.Pool.t ->
  ?workers:int ->
  ?credits:int ->
  ?batch:int ->
  ?stats:Snet.Stats.t ->
  ?supervision:Snet.Supervise.config ->
  ?kill_worker:int * int ->
  ?crash_flush:bool ->
  ?tap:(edge:string -> Snet.Record.t -> unit) ->
  ?collector:Obsv.Agg.collector ->
  ?plan:Plan.t ->
  ?on_handle:(handle -> unit) ->
  ?worker_throttle:int * int ->
  ?kill_in_freeze:int ->
  Snet.Net.t ->
  Snet.Record.t list ->
  Snet.Record.t list
(** Hermetic in-process distributed run: simulated workers over
    {!Transport.Loopback} pairs, each a thread running {!serve} on its
    partition, coordinated as described above. Without [?plan] the
    layout is {!Plan.contiguous} over [workers] (default 2)
    partitions; with it, the plan's stages
    decide both the cut and the shard groups ([workers] is then
    ignored). [credits] (default 32) is the per-edge window; [batch]
    (default {!default_batch}, checked by {!validate_batch}) caps
    records per cut-edge envelope. [kill_worker (i, k)]
    is the fault-injection hook: worker [i] dies abruptly after fully
    processing [k] records (the respawned worker, under [Retry], is
    not re-killed); [crash_flush] refines it so the dying worker still
    flushes the crashing envelope's outputs but never its credit — the
    duplicate-delivery window the sequence watermark dedupes. [tap]
    observes cut-edge and global-output records (see above).
    [on_handle] receives the live-repartitioning {!handle} once the
    coordinator is up (before the first input is fed).
    [worker_throttle (i, us)] slows worker [i] by [us] microseconds
    per record; [kill_in_freeze i] makes worker [i] die instead of
    acking its first [Migrate]. Both apply to first spawns only —
    replacements run clean. Output is
    multiset-equal to {!Snet.Engine_seq.run} on the same network and
    inputs (modulo stamped error records when workers are killed). *)

val run_spawned :
  worker_exe:string ->
  spec:string ->
  ?host:string ->
  ?workers:int ->
  ?credits:int ->
  ?batch:int ->
  ?stats:Snet.Stats.t ->
  ?supervision:Snet.Supervise.config ->
  ?kill_worker:int * int ->
  ?crash_flush:bool ->
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
    [kill_worker (i, k)] and [crash_flush] inject a worker crash as in
    {!run}, and the remaining arguments mean what they do there.
    Worker processes are reaped on return, by force if they outlive
    the shutdown handshake.
    @raise Failure when a worker fails to connect within 30s, or on
    worker death under [Fail_fast]. *)
