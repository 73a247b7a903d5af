(** Coordinator ⇄ worker messages of the partitioned engine.

    Each message travels as one transport frame: a one-byte kind
    followed by a kind-specific payload. [Data] and [Data_batch] carry
    a versioned {!Wire} envelope: a table of the variants (label sets)
    its records use, then per record a variant index and the values
    only, then one CRC-32 over the whole envelope. [Data] is an envelope of
    exactly one record; [Data_batch] packs a run of records, so a
    loaded cut edge pays one transport send (one syscall pair over TCP)
    and one CRC for the run. Corruption or truncation anywhere in an
    envelope rejects the whole envelope. *)

type hello = {
  spec : string;
      (** Network name the worker resolves locally (e.g. ["fig2"]);
          loopback workers ignore it. *)
  part : int;  (** Which partition this worker runs (0-based). *)
  parts : int;  (** Total partitions in this run. *)
  policy : string;
      (** {!Snet.Supervise.policy_to_string}, [""] for engine
          defaults. *)
  timeout : float option;  (** Per-box budget, when configured. *)
  credits : int;  (** Credit window the coordinator will respect. *)
  crash_after : int;
      (** Fault-injection hook: the worker exits abruptly (no [Done],
          no close handshake beyond the transport's) after consuming
          this many input records. [-1] disables. *)
  crash_flush : bool;
      (** Refines [crash_after]: the worker still flushes the crashing
          envelope's output records before dying, but not the credit —
          the duplicate-delivery window a respawn-and-resend
          supervisor must dedupe (see the sequence watermark in
          {!Engine_dist}). *)
  batch : int;
      (** Cut-edge batching cap: the most records either side packs
          into one [Data_batch] envelope. [1] disables batching — both
          sides then send plain [Data] frames. *)
  obsv : int;
      (** The coordinator's observability flags ([Obsv.Sink] bit set:
          events and/or metrics). A non-zero value asks the worker to
          enable the matching subsystems locally (unless already on,
          e.g. loopback workers sharing the process) and ship
          {!msg.Metrics_report} / {!msg.Trace_chunk} frames back. [0]
          keeps the worker's off-path at one atomic flag read. *)
  coord_pid : int;
      (** The coordinator's OS pid when it shares this worker's
          process (loopback transports), [0] for remote coordinators.
          An in-process worker recognises itself ([coord_pid] equals
          its own pid) and ships {e slim} reports — liveness, clock
          and journal counters but no metrics buckets or trace events,
          since the coordinator reads the shared process-global tables
          directly and would discard same-pid payloads anyway. *)
  plan : string;
      (** The placement plan ({!Plan.encode}) under which this run was
          cut. A worker runs only this plan: it answers a Hello whose
          plan is [""] with a [Crash]. [""] still decodes, because a
          serve-session Hello carries no plan. Decode validates a
          non-empty plan eagerly: a malformed map,
          a map whose partition count disagrees with [parts], or a
          [part] outside [0, parts) is rejected as a decode error —
          never a late array-bounds crash in the worker. *)
}

type session_ack = {
  session : int;  (** Server-assigned session id (when [ok]). *)
  ok : bool;
  sa_credits : int;  (** Granted submit window. *)
  sa_batch : int;  (** Envelope cap the server will use downstream. *)
  reason : string;  (** Rejection reason when [not ok], else [""]. *)
}
(** Reply to {!msg.Open_session}. *)

type msg =
  | Hello of hello  (** coordinator → worker, first message. *)
  | Hello_ack of { part : int }  (** worker → coordinator. *)
  | Data of Snet.Record.t  (** Either direction: a record on the cut edge. *)
  | Credit of int
      (** worker → coordinator: this many input records are now fully
          processed (their outputs already sent); returns send
          credits. Granted per input envelope, so a batch of [k]
          records returns one [Credit k]. *)
  | Eof  (** coordinator → worker: input stream exhausted. *)
  | Done
      (** worker → coordinator: [Eof] seen, everything processed and
          flushed. *)
  | Crash of string
      (** worker → coordinator: the subnet raised; the worker is
          abandoning the run. *)
  | Shutdown  (** coordinator → worker: exit cleanly. *)
  | Data_batch of Snet.Record.t list
      (** Either direction: a run of records in one envelope,
          multiset-equivalent to sending each as [Data]. *)
  | Open_session of { credits : int; batch : int; resume : int }
      (** client → server ([snet_serve]): request a session after a
          [Hello] whose [spec] is {!serve_spec}. [credits] is the
          submit window the client asks for ([<= 0] defers to the
          server), [batch] its preferred response-envelope cap.
          [resume >= 0] asks to re-attach to that session id after a
          server restart from journal (the session must have been
          restored); [-1] opens a fresh session. *)
  | Session_ack of session_ack  (** server → client. *)
  | Close_session of { session : int }
      (** client → server: no further submissions; the server flushes
          queued responses, answers [Done] and frees the slot. *)
  | Metrics_report of { part : int; payload : string }
      (** worker → coordinator: an [Obsv.Agg] report (raw histogram
          buckets + journal counters), sent right after [Hello_ack],
          periodically while running, and just before [Done]. The
          payload is opaque to the protocol and carries its own u32
          length — reports exceed the u16 string cap. *)
  | Trace_chunk of { part : int; payload : string }
      (** worker → coordinator: the worker's retained sink events
          ([Obsv.Agg.chunk]), sent just before [Done] when event
          tracing is on. *)
  | Migrate
      (** coordinator → worker: freeze for live repartitioning. The
          worker finishes the inputs it has already received (credits
          for them have been or will be flushed as usual), flushes all
          pending outputs, captures its engine state and answers
          {!msg.Freeze_ack}; it sends nothing after the ack. *)
  | Freeze_ack of { state : string }
      (** worker → coordinator: the frozen partition's captured
          {!Snet.Netstate} ([Statecodec.encode]), sent after all
          outputs for consumed inputs have been flushed. *)
  | Restore of { state : string }
      (** coordinator → worker: seed the engine with a migrated
          partition's captured state. Only valid directly after
          [Hello]/[Hello_ack], before any [Data]. *)

val serve_spec : string
(** The {!hello.spec} value (["serve/2"]) under which a connection
    negotiates the session sub-protocol of [snet_serve] instead of a
    worker partition. Its number names the wire version: a peer from
    before [Data] carried envelopes says ["serve/1"] and is refused at
    [Hello]. *)

val encode : ?ctx:Wire.ctx -> msg -> string
(** [ctx] hoists codec lookups and encode scratch across calls (the
    coordinator loop holds one per partition); without it a per-domain default is
    used. @raise Wire.Unencodable on a [Data]/[Data_batch] record with
    unregistered field keys. *)

val chunk : batch:int -> Snet.Record.t list -> msg list
(** Split [rs], in order, into envelopes of at most [batch] records
    each: [Data_batch] for a run, plain [Data] for a singleton, so
    [batch <= 1] sends plain [Data] throughout. The one envelope
    splitter of every cut edge and serve session. *)

val data_msgs :
  ?ctx:Wire.ctx -> batch:int -> Snet.Record.t list -> string list
(** {!chunk}, encoded. *)

val decode : ?ctx:Wire.ctx -> string -> (msg, string) result
(** A [Data] or [Data_batch] envelope is rejected whole when its CRC,
    its variant table, any variant index or any value does not check
    out (see {!Wire.read_envelope}). *)

val to_string : msg -> string
(** One-line rendering for logs and error messages. *)
