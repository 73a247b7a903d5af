(** Network-as-a-service: one compiled S-Net, many concurrent client
    sessions.

    The served network is wrapped in the paper's parallel replicator on
    a reserved session tag — [net !! <serve_session>] — so each session
    gets its own replica, records from different sessions never mix,
    and flow inheritance carries the tag back out on every response,
    which is how {!val-poll}/{!serve_conn} route outputs to the right
    client.

    All lifecycle logic (admission, per-session credit windows, idle
    reaping, graceful drain) lives here against plain records; the
    transports are thin adapters — {!serve_conn} speaks the framed
    session sub-protocol of {!Dist.Proto} over any
    {!Dist.Transport.conn}, and {!Http_gw} adds an HTTP/JSON front
    door. *)

type config = {
  max_sessions : int;  (** Admission cap; further opens are rejected. *)
  credits : int;
      (** Default and upper bound for a session's submit window. *)
  batch : int;
      (** Default response-envelope cap for TCP sessions (validated
          against {!Dist.Engine_dist.validate_batch} bounds). *)
  idle_timeout : float;
      (** Seconds of inactivity before {!reap_idle} evicts a session;
          [<= 0.] disables reaping. *)
}

val default_config : config
(** 64 sessions, window 32, batch {!Dist.Engine_dist.default_batch},
    5-minute idle timeout. *)

type durability = {
  dir : string;  (** Journal directory (created as needed). *)
  fsync_every : int;
      (** [> 0]: [fsync] every that many appends; [0] flushes to the
          OS only (sufficient for the process-crash fault model). *)
  snapshot_every : int;
      (** Take a net snapshot every that many journaled submissions;
          [0] disables snapshots (recovery replays the whole
          journal). *)
  spec : string;
      (** Network spec string stored in snapshots; a snapshot whose
          spec differs is ignored on recovery. *)
}

type recovery_stats = {
  from_snapshot : bool;  (** A valid, spec-matching snapshot loaded. *)
  restored_sessions : int;
  replayed : int;  (** Input entries re-fed above the watermark. *)
  redelivered : int;  (** Responses requeued as still-undelivered. *)
  journal_damage : string option;
      (** Damage description when the journal had a torn/corrupt tail
          (the valid prefix was still recovered). *)
}

type t
(** A serving instance: the running engine plus its session table. *)

type session

val create :
  ?pool:Scheduler.Pool.t ->
  ?exec:Scheduler.Exec.t ->
  ?cfg:config ->
  ?durability:durability ->
  Snet.Net.t ->
  t
(** Wrap [net] in the session replicator and start it. [exec] runs the
    engine on a custom executor (detcheck's virtual scheduler).

    A server streams responses while no one is blocked in the engine,
    so pass a [pool] with at least one worker domain (or an [exec]
    with its own drivers): under the zero-worker default pool of a
    single-core host, actors only progress inside [finish], and
    responses would sit in the net until {!drain}.

    [durability] makes the server journal-backed: every accepted
    submission is appended (write-ahead) to the edge journal before it
    is fed, every delivered response and session open/close is
    journaled, and a net snapshot is taken every [snapshot_every]
    inputs. If the directory already holds a journal, [create]
    {e recovers}: the net state is restored from the latest snapshot,
    the journal's Input suffix is replayed, open sessions are
    re-created, and exactly the responses the previous incarnation had
    not delivered are requeued — the union of responses over
    crash-separated incarnations is multiset-identical to an
    uninterrupted run ({!recovery} reports what was restored).
    Deliveries are journaled {e after} the frames reach the consumer
    (or transport), so a crash in between redelivers rather than
    loses: at-least-once per response, exactly-once for responses
    whose delivery was journaled.
    @raise Invalid_argument on nonsensical [cfg]/[durability] bounds. *)

val recovery : t -> recovery_stats option
(** What {!create} restored, when [durability] was given and the
    directory held prior state; [None] for a fresh start. *)

val open_session :
  ?credits:int ->
  ?on_evict:(unit -> unit) ->
  t ->
  (session, [ `Full | `Draining ]) result
(** Admit a new session. [credits] asks for a smaller window than the
    configured default (larger requests are clamped); [on_evict] runs
    when the {e server} tears the session down ({!reap_idle}), so a
    connection handler can close its socket. Session ids are the
    smallest free ones — the engine unfolds one replica per distinct
    id and never folds it back, so reuse keeps replica count bounded by
    [max_sessions]. *)

val session_id : session -> int

val resume_session :
  ?on_evict:(unit -> unit) ->
  t ->
  int ->
  (session, [ `Unknown ]) result
(** Re-attach to an open session by id — typically one restored from
    the journal after a restart ([Open_session] with [resume] on the
    wire). Undelivered responses are waiting in its queue. *)

val submit :
  ?req:int -> t -> session -> Snet.Record.t -> [ `Ok | `Closed | `Draining ]
(** Stamp the record with the session tag and feed the net. [`Closed]
    after the session closed, [`Draining] once a drain began (the
    record is {e not} accepted). [req] is an idempotency key: a
    monotone per-session client request number. A submission whose
    [req] is at or below the highest already accepted (including
    accepted by a {e previous incarnation}, via the journal) returns
    [`Ok] without re-feeding — the safe retry after a crash or lost
    ack. Journal-backed servers persist the entry before feeding;
    {!Durable.Journal.Killed} propagates from a writer killed by the
    crash-point tests. *)

val take_grants : t -> session -> int
(** Credits earned since the last call — one per admitted record — but
    only while the session's response backlog is below its window: a
    client that stops reading responses stops receiving credits, and
    therefore stops submitting. Returns [0] (retaining the credits)
    while backlogged; call again after draining responses. *)

val backlog : session -> int
(** Responses queued and not yet taken (racy snapshot). *)

val window : session -> int
(** The granted submit window. *)

val closed : session -> bool
(** Whether the session has been closed (by either side, or by
    reap/drain). Queued responses remain {!val-poll}-able after. *)

val poll : t -> session -> max:int -> Snet.Record.t list
(** Non-blocking: up to [max] queued responses (possibly none). The
    HTTP gateway's read path. *)

val recv_outputs :
  t -> session -> max:int -> [ `Closed | `Batch of Snet.Record.t list ]
(** Blocking batch read of responses; [`Closed] once the session's
    queue is closed {e and} flushed. The TCP writer's read path. *)

val close_session : t -> session -> unit
(** Client-initiated close: no further submissions; queued responses
    remain readable until the queue drains ([`Closed] from
    {!recv_outputs} / [Done] on the wire). Idempotent. Responses still
    in flight inside the net when the close lands are dropped (and
    counted) — close after collecting what you expect. *)

val reap_idle : t -> int list
(** Evict every session idle longer than [idle_timeout], running each
    one's [on_evict]; returns the evicted ids. Time comes from
    {!Scheduler.Clock.now}, so tests drive reaping under a virtual
    clock. *)

val begin_drain : t -> unit
(** Stop admitting sessions and submissions, without waiting. *)

val is_draining : t -> bool

val drain : t -> unit
(** Graceful drain: {!begin_drain}, wait until every in-flight record
    has fully traversed the net and its response was routed (engine
    quiescence), then close all session queues so consumers flush and
    observe end-of-stream. After [drain], the union of responses
    delivered to sessions is multiset-identical to an undisturbed
    run's. *)

val session_count : t -> int

type health = {
  active : int;
  draining : bool;
  opened : int;
  rejected : int;
  closed : int;
  reaped : int;
  submitted : int;
  delivered : int;
  dropped : int;  (** Responses for already-closed sessions. *)
  orphaned : int;  (** Outputs with no (or an unknown) session tag. *)
}

val health : t -> health

val health_parts : t -> Obsv.Health.part list
(** Per-session health rows (a serve session is this daemon's analogue
    of a partition): live queue depth and credit occupancy, plus the
    session's edge counters when metrics are on. Sorted by session id;
    also refreshes the process-global {!Obsv.Health} registry so the
    Prometheus endpoint and [snet_top] read the same rows. *)

val session_tag : string
(** The reserved routing tag (["serve_session"]). Records submitted
    through a session must not carry it themselves. *)

val serve_conn : t -> Dist.Transport.conn -> unit
(** Serve one connection end-to-end: [Hello]([serve_spec]) /
    [Hello_ack], [Open_session] / [Session_ack] (admission rejections
    are answered in-band with [ok = false]), then the session loop —
    client [Data]/[Data_batch] submissions flow into the net, responses
    stream back in envelopes with piggybacked [Credit] grants, and
    [Close_session] (or peer close) flushes queued responses, answers
    [Done] and frees the slot. Returns when the connection is torn
    down. Spawns one writer thread for the connection's lifetime. *)
