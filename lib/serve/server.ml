(* Network-as-a-service core: one compiled net, many concurrent client
   sessions.

   The served network is wrapped in a parallel replicator on the
   session tag — [net !! <serve_session>] — so the combinator the paper
   already provides guarantees every session's records meet their own
   replica and responses carry the session tag back out (flow
   inheritance keeps the tag on every output). The transport layers
   (framed TCP in this module, HTTP in {!Http_gw}) are thin: all
   session lifecycle, admission, credit and drain logic lives here,
   against plain records, so the tier-1 tests drive it without
   sockets. *)

module Record = Snet.Record

let session_tag = "serve_session"

type config = {
  max_sessions : int;
  credits : int;
  batch : int;
  idle_timeout : float;
}

let default_config =
  {
    max_sessions = 64;
    credits = 32;
    batch = Dist.Engine_dist.default_batch;
    idle_timeout = 300.;
  }

type durability = {
  dir : string;
  fsync_every : int;
  snapshot_every : int;
  spec : string;
}

type recovery_stats = {
  from_snapshot : bool;
  restored_sessions : int;
  replayed : int;
  redelivered : int;
  journal_damage : string option;
}

type session = {
  id : int;
  window : int;
  out_q : Record.t Streams.Channel.t;
  mutable last_activity : float;
  mutable closing : bool;
  mutable withheld : int;
  mutable submitted : int;
  mutable delivered : int;
  mutable dropped : int;
  (* Highest client request number accepted ([submit ~req]); replayed
     from the journal on recovery so a client retrying a submission it
     cannot know the fate of (the ack was lost in the crash) is
     idempotent. *)
  mutable last_req : int;
  mutable on_evict : unit -> unit;
}

type health = {
  active : int;
  draining : bool;
  opened : int;
  rejected : int;
  closed : int;
  reaped : int;
  submitted : int;
  delivered : int;
  dropped : int;
  orphaned : int;
}

type t = {
  mu : Mutex.t;
  cfg : config;
  sessions : (int, session) Hashtbl.t;
  mutable inst : Snet.Engine_conc.instance option;
  mutable draining : bool;
  mutable inflight_feeds : int;
  (* durability (all None/idle when the server is not journaled) *)
  durability : durability option;
  mutable journal : Durable.Journal.writer option;
  mutable snapshotting : bool;
  mutable inputs_since_snap : int;
  mutable recovering : bool;
  mutable recovery_rev : Record.t list;
  mutable recovery : recovery_stats option;
  (* lifetime totals; per-session counters fold in on close/reap *)
  mutable n_opened : int;
  mutable n_rejected : int;
  mutable n_closed : int;
  mutable n_reaped : int;
  mutable n_submitted : int;
  mutable n_delivered : int;
  mutable n_dropped : int;
  mutable n_orphaned : int;
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let edge_out s = Printf.sprintf "serve:s%d.out" s.id
let edge_in = "serve:in"

let instance t =
  match t.inst with
  | Some i -> i
  | None -> failwith "Serve: engine not initialised"

(* Responses reaching the global output stream are fanned out to the
   owning session's bounded queue. Runs on the engine's output actor:
   never block here, or a slow client stalls the whole net — the
   blocking fallback below is only reachable when one input fans out
   into more responses than the queue's headroom holds, and is counted
   as a stall. *)
let route_output t r =
  (* The trace id stamped at submit ingress has done its job once the
     response reaches the global output — strip it so clients never
     see the internal tag. *)
  let r = Record.without_tag Obsv.Probe.trace_tag r in
  let buffered =
    locked t (fun () ->
        if t.recovering then begin
          t.recovery_rev <- r :: t.recovery_rev;
          true
        end
        else false)
  in
  if buffered then ()
  else
  let target =
    match Record.tag session_tag r with
    | None -> None
    | Some id -> locked t (fun () -> Hashtbl.find_opt t.sessions id)
  in
  match target with
  | None -> locked t (fun () -> t.n_orphaned <- t.n_orphaned + 1)
  | Some s -> (
      match Streams.Channel.try_send s.out_q r with
      | `Ok ->
          Obsv.Probe.edge_send ~name:(edge_out s)
            ~depth:(Streams.Channel.length s.out_q)
      | `Closed -> s.dropped <- s.dropped + 1
      | `Full -> (
          Obsv.Probe.edge_stall ~name:(edge_out s);
          try Streams.Channel.send s.out_q r
          with Streams.Channel.Closed -> s.dropped <- s.dropped + 1))

(* Journal edge names carry the session id (and, for idempotent
   submissions, the client request number), so recovery can rebuild
   the session bookkeeping from edge strings alone, without decoding
   payloads it will not replay. *)
let journal_edge_in ?req id =
  match req with
  | Some q -> Printf.sprintf "serve:s%d.in#%d" id q
  | None -> Printf.sprintf "serve:s%d.in" id
let journal_edge_session id = Printf.sprintf "serve:s%d" id

let sid_of_edge edge =
  try Scanf.sscanf edge "serve:s%d" (fun id -> Some id) with _ -> None

let req_of_edge edge =
  match String.index_opt edge '#' with
  | None -> None
  | Some i ->
      int_of_string_opt (String.sub edge (i + 1) (String.length edge - i - 1))

let mk_session ~id ~window ~capacity ~on_evict =
  {
    id;
    window;
    out_q = Streams.Channel.create ~capacity ();
    last_activity = Scheduler.Clock.now ();
    closing = false;
    withheld = 0;
    submitted = 0;
    delivered = 0;
    dropped = 0;
    last_req = -1;
    on_evict;
  }

(* Rebuild a journaled server: load the latest snapshot (if its spec
   matches), restore the engine's net state from it, re-feed the
   journal's Input suffix above the snapshot watermark, and requeue
   for each restored session exactly the responses the previous
   incarnation had not yet delivered — (snapshot queue ++ replay
   outputs) minus the Delivered entries above the watermark, as a
   frame multiset with a floor at zero (frames are canonical, so
   byte-equality is record equality). *)
let recover t d ?pool ?exec wrapped =
  let snap =
    match Durable.Snapshot.load ~dir:d.dir with
    | Some s when s.Durable.Snapshot.spec = d.spec -> Some s
    | Some _ | None -> None
  in
  let entries, damage = Durable.Journal.read_dir d.dir in
  let entries = Durable.Journal.dedupe entries in
  let wm =
    match snap with Some s -> s.Durable.Snapshot.watermark | None -> -1
  in
  let live =
    List.filter (fun e -> e.Durable.Journal.seq > wm) entries
  in
  (* Open-session table: snapshot sessions plus the journal suffix. *)
  let alive : (int, int) Hashtbl.t = Hashtbl.create 16 in
  (match snap with
  | Some s ->
      List.iter
        (fun (id, window) -> Hashtbl.replace alive id window)
        s.Durable.Snapshot.sessions
  | None -> ());
  List.iter
    (fun e ->
      match (e.Durable.Journal.kind, sid_of_edge e.Durable.Journal.edge) with
      | Durable.Journal.Open_session, Some id ->
          let window =
            match int_of_string_opt e.Durable.Journal.payload with
            | Some w when w > 0 -> w
            | _ -> t.cfg.credits
          in
          Hashtbl.replace alive id window
      | Durable.Journal.Close_session, Some id -> Hashtbl.remove alive id
      | _ -> ())
    live;
  (* Highest accepted request number per session INCARNATION: the scan
     covers the whole journal (snapshots never truncate it), but resets
     at every Open/Close_session for the id — [alloc_id] reuses the
     smallest free id after a close, and a fresh client on a recycled
     id must not inherit the previous incarnation's idempotency floor
     (its early request numbers would be swallowed as "duplicates"
     without ever being journaled or fed). *)
  let last_reqs : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match (e.Durable.Journal.kind, sid_of_edge e.Durable.Journal.edge) with
      | Durable.Journal.Input, Some id -> (
          match req_of_edge e.Durable.Journal.edge with
          | Some q ->
              let cur =
                Option.value ~default:(-1) (Hashtbl.find_opt last_reqs id)
              in
              if q > cur then Hashtbl.replace last_reqs id q
          | None -> ())
      | ( (Durable.Journal.Open_session | Durable.Journal.Close_session),
          Some id ) ->
          Hashtbl.remove last_reqs id
      | _ -> ())
    entries;
  (* Engine with the snapshot's net state pre-built, outputs buffered
     until the replay settles. *)
  t.recovering <- true;
  let restore =
    match snap with
    | Some s -> s.Durable.Snapshot.state
    | None -> Snet.Netstate.empty
  in
  t.inst <-
    Some
      (Snet.Engine_conc.start ?pool ?exec ~restore
         ~on_output:(route_output t) wrapped);
  let replayed = ref 0 in
  List.iter
    (fun e ->
      if e.Durable.Journal.kind = Durable.Journal.Input then
        match Dist.Wire.read e.Durable.Journal.payload with
        | Ok r ->
            incr replayed;
            Obsv.Journal_stats.record_replay ();
            Snet.Engine_conc.feed (instance t) r
        | Error _ -> ())
    live;
  ignore (Snet.Engine_conc.finish (instance t) : Record.t list);
  let outputs = List.rev t.recovery_rev in
  t.recovery_rev <- [];
  t.recovering <- false;
  (* Undelivered = (snapshot queue ++ replay outputs) - Delivered
     entries above the watermark, per session, floor at zero. *)
  let delivered_after : (int * string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if e.Durable.Journal.kind = Durable.Journal.Delivered then
        match sid_of_edge e.Durable.Journal.edge with
        | Some id ->
            let k = (id, e.Durable.Journal.payload) in
            Hashtbl.replace delivered_after k
              (1 + Option.value ~default:0 (Hashtbl.find_opt delivered_after k))
        | None -> ())
    live;
  let cands : (int, (string * Record.t) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let add_cand id fr =
    match Hashtbl.find_opt cands id with
    | Some l -> l := fr :: !l
    | None -> Hashtbl.replace cands id (ref [ fr ])
  in
  (match snap with
  | Some s ->
      List.iter
        (fun (id, frames) ->
          List.iter
            (fun f ->
              match Dist.Wire.read f with
              | Ok r -> add_cand id (f, r)
              | Error _ -> ())
            frames)
        s.Durable.Snapshot.queued
  | None -> ());
  List.iter
    (fun r ->
      match Record.tag session_tag r with
      | Some id -> add_cand id (Dist.Wire.render r, r)
      | None -> t.n_orphaned <- t.n_orphaned + 1)
    outputs;
  let redelivered = ref 0 in
  Hashtbl.iter
    (fun id window ->
      let pending =
        match Hashtbl.find_opt cands id with
        | Some l -> List.rev !l
        | None -> []
      in
      let keep =
        List.filter
          (fun (f, _) ->
            match Hashtbl.find_opt delivered_after (id, f) with
            | Some n when n > 0 ->
                Hashtbl.replace delivered_after (id, f) (n - 1);
                false
            | _ -> true)
          pending
      in
      let s =
        mk_session ~id ~window
          ~capacity:(max (8 * window) (2 * List.length keep))
          ~on_evict:(fun () -> ())
      in
      (match Hashtbl.find_opt last_reqs id with
      | Some q -> s.last_req <- q
      | None -> ());
      List.iter
        (fun (_, r) ->
          redelivered := !redelivered + 1;
          match Streams.Channel.try_send s.out_q r with
          | `Ok -> ()
          | `Full | `Closed -> s.dropped <- s.dropped + 1)
        keep;
      Hashtbl.replace t.sessions id s)
    alive;
  (* Responses owed to sessions the journal says were closed. *)
  Hashtbl.iter
    (fun id l ->
      if not (Hashtbl.mem alive id) then
        t.n_dropped <- t.n_dropped + List.length !l)
    cands;
  t.journal <- Some (Durable.Journal.open_writer ~fsync_every:d.fsync_every d.dir);
  (* A directory with no prior journal or snapshot is a fresh start,
     not a recovery — report None so callers can tell the two apart. *)
  t.recovery <-
    (if entries = [] && snap = None then None
     else
       Some
         {
           from_snapshot = snap <> None;
           restored_sessions = Hashtbl.length alive;
           replayed = !replayed;
           redelivered = !redelivered;
           journal_damage = damage;
         })

let create ?pool ?exec ?(cfg = default_config) ?durability net =
  if cfg.max_sessions < 1 then invalid_arg "Serve.create: max_sessions < 1";
  if cfg.credits < 1 then invalid_arg "Serve.create: credits < 1";
  (match Dist.Engine_dist.validate_batch cfg.batch with
  | Ok _ -> ()
  | Error e -> invalid_arg ("Serve.create: " ^ e));
  (match durability with
  | Some d ->
      if d.fsync_every < 0 then invalid_arg "Serve.create: fsync_every < 0";
      if d.snapshot_every < 0 then
        invalid_arg "Serve.create: snapshot_every < 0"
  | None -> ());
  let t =
    {
      mu = Mutex.create ();
      cfg;
      sessions = Hashtbl.create 64;
      inst = None;
      draining = false;
      inflight_feeds = 0;
      durability;
      journal = None;
      snapshotting = false;
      inputs_since_snap = 0;
      recovering = false;
      recovery_rev = [];
      recovery = None;
      n_opened = 0;
      n_rejected = 0;
      n_closed = 0;
      n_reaped = 0;
      n_submitted = 0;
      n_delivered = 0;
      n_dropped = 0;
      n_orphaned = 0;
    }
  in
  let wrapped = Snet.Net.split net session_tag in
  (match durability with
  | None ->
      t.inst <-
        Some
          (Snet.Engine_conc.start ?pool ?exec ~on_output:(route_output t)
             wrapped)
  | Some d -> recover t d ?pool ?exec wrapped);
  t

let recovery t = t.recovery

(* Session ids are the smallest free ones, not monotonic: the engine
   unfolds one net replica per distinct tag value and never folds it
   back, so id reuse keeps the replica count bounded by [max_sessions]
   over the daemon's lifetime. (Corollary: a net with cross-record
   state — sync cells — carries that state from a closed session to
   the next one reusing its id; serve stateless-per-record nets.) *)
let alloc_id t =
  let rec go i = if Hashtbl.mem t.sessions i then go (i + 1) else i in
  go 0

let open_session ?credits ?(on_evict = fun () -> ()) t =
  let window =
    match credits with
    | Some c when c > 0 -> min c t.cfg.credits
    | _ -> t.cfg.credits
  in
  locked t (fun () ->
      if t.draining then begin
        t.n_rejected <- t.n_rejected + 1;
        Error `Draining
      end
      else if Hashtbl.length t.sessions >= t.cfg.max_sessions then begin
        t.n_rejected <- t.n_rejected + 1;
        Error `Full
      end
      else begin
        let id = alloc_id t in
        (* Write-ahead: the open must be durable before the session is
           visible, or a crash right after the ack would restore a
           server that denies the session ever existed. *)
        (match t.journal with
        | Some w ->
            ignore
              (Durable.Journal.append w ~kind:Durable.Journal.Open_session
                 ~edge:(journal_edge_session id) (string_of_int window)
                : int)
        | None -> ());
        (* Headroom above the credit window: fan-out nets may answer
           one input with several records. *)
        let s = mk_session ~id ~window ~capacity:(8 * window) ~on_evict in
        Hashtbl.replace t.sessions id s;
        t.n_opened <- t.n_opened + 1;
        Obsv.Probe.instant ~cat:"serve" ~name:"session.open" ~value:id ();
        Ok s
      end)

(* Re-attach to a session restored from the journal (or simply still
   open) after the original connection — or the original process —
   went away. *)
let resume_session ?(on_evict = fun () -> ()) t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.sessions id with
      | Some s when not s.closing ->
          s.on_evict <- on_evict;
          s.last_activity <- Scheduler.Clock.now ();
          Ok s
      | Some _ | None -> Error `Unknown)

(* Quiesce the engine and persist a snapshot: block new admissions
   (the [snapshotting] barrier below), let in-flight feeds land, run
   the net to quiescence, then capture — journal watermark first, so a
   response delivered while we are peeking the queues is above the
   watermark and recovery's floor-at-zero subtraction corrects the
   double-count. *)
let snapshot_now t w d =
  Fun.protect
    ~finally:(fun () ->
      locked t (fun () ->
          t.snapshotting <- false;
          t.inputs_since_snap <- 0))
    (fun () ->
      let rec settle () =
        if locked t (fun () -> t.inflight_feeds > 0) then begin
          Scheduler.Clock.sleep 0.001;
          settle ()
        end
      in
      settle ();
      ignore (Snet.Engine_conc.finish (instance t) : Record.t list);
      (* The watermark asserts that every journal entry <= it is
         recoverable. Under machine-crash durability that means the
         journal must be synced up to the watermark before the
         snapshot may claim it — otherwise a crash could persist a
         snapshot whose watermark exceeds the fsynced journal prefix,
         hiding Open_session/last_req entries below it. *)
      if d.fsync_every > 0 then Durable.Journal.sync w;
      let watermark = Durable.Journal.next_seq w - 1 in
      let state = Snet.Engine_conc.capture (instance t) in
      let sessions, queued =
        locked t (fun () ->
            Hashtbl.fold
              (fun _ s (ss, qs) ->
                ( (s.id, s.window) :: ss,
                  (s.id, List.map Dist.Wire.render (Streams.Channel.peek s.out_q))
                  :: qs ))
              t.sessions ([], []))
      in
      Durable.Snapshot.save ~journal:w ~dir:d.dir
        { Durable.Snapshot.spec = d.spec; watermark; state; sessions; queued })

let maybe_snapshot t =
  match (t.journal, t.durability) with
  | Some w, Some d when d.snapshot_every > 0 ->
      let due =
        locked t (fun () ->
            if t.inputs_since_snap >= d.snapshot_every && not t.snapshotting
            then begin
              t.snapshotting <- true;
              true
            end
            else false)
      in
      if due then snapshot_now t w d
  | _ -> ()

let submit ?req t s r =
  let rec admitted () =
    let a =
      locked t (fun () ->
          if s.closing then `Closed
          else if t.draining then `Draining
          else if t.snapshotting then `Wait
          else
            match req with
            | Some q when q <= s.last_req -> `Duplicate
            | _ ->
                (match req with Some q -> s.last_req <- q | None -> ());
                s.last_activity <- Scheduler.Clock.now ();
                s.submitted <- s.submitted + 1;
                t.n_submitted <- t.n_submitted + 1;
                t.inflight_feeds <- t.inflight_feeds + 1;
                if t.journal <> None then
                  t.inputs_since_snap <- t.inputs_since_snap + 1;
                `Admit)
    in
    match a with
    | `Wait ->
        (* A snapshot is capturing: wait it out ([Clock.sleep] keeps
           the retry schedulable under detcheck's virtual clock). *)
        Scheduler.Clock.sleep 0.001;
        admitted ()
    | (`Closed | `Draining | `Duplicate | `Admit) as x -> x
  in
  match admitted () with
  | (`Closed | `Draining) as x -> x
  | `Duplicate ->
      (* Already accepted (and journaled) before a crash or a lost
         ack: the retry succeeds without re-feeding. *)
      `Ok
  | `Admit ->
      let tagged = Record.with_tag session_tag s.id r in
      (* Trace ingress (mirrors the distributed coordinator): a fresh
         trace id per submission, kept if the caller already stamped
         one, so spans this record touches share an id. *)
      let tagged =
        if
          Obsv.Sink.events_on ()
          && Record.tag Obsv.Probe.trace_tag tagged = None
        then
          Record.with_tag Obsv.Probe.trace_tag (Obsv.Probe.fresh_trace ())
            tagged
        else tagged
      in
      Obsv.Probe.edge_send ~name:edge_in ~depth:(s.submitted - s.delivered);
      Fun.protect
        ~finally:(fun () ->
          locked t (fun () -> t.inflight_feeds <- t.inflight_feeds - 1))
        (fun () ->
          (* Write-ahead: the entry is durable before the record's
             effects can become visible. [Journal.Killed] (a simulated
             crash) propagates — the record was neither persisted nor
             fed, exactly like a real pre-append death. *)
          (match t.journal with
          | Some w ->
              ignore
                (Durable.Journal.append w ~kind:Durable.Journal.Input
                   ~edge:(journal_edge_in ?req s.id)
                   (Dist.Wire.render tagged)
                  : int)
          | None -> ());
          Snet.Engine_conc.feed (instance t) tagged);
      locked t (fun () -> s.withheld <- s.withheld + 1);
      maybe_snapshot t;
      `Ok

(* Each admitted record earns one credit, granted back to the client
   only while the session's response backlog is below its window: a
   client that stops reading responses stops receiving credits, and
   therefore stops submitting — per-session backpressure that never
   touches the net. *)
let take_grants t s =
  (* Crash seam: a death here loses the grant but not the work — the
     client retries under its idempotency key. *)
  if t.journal <> None then Durable.Journal.seam "ack";
  locked t (fun () ->
      if Streams.Channel.length s.out_q >= s.window then 0
      else begin
        let g = s.withheld in
        s.withheld <- 0;
        g
      end)

let backlog s = Streams.Channel.length s.out_q
let window s = s.window
let closed s = Streams.Channel.is_closed s.out_q

let note_delivered t s rs =
  let n = List.length rs in
  if n > 0 then begin
    Obsv.Probe.edge_recv ~name:(edge_out s) ~depth:(Streams.Channel.length s.out_q);
    Obsv.Probe.edge_batch ~name:(edge_out s) ~size:n;
    (* A journaled delivery is what recovery subtracts from the owed
       set. [Killed] is swallowed: a dead process journals nothing,
       and deliveries the journal missed are simply redelivered after
       restart (at-least-once; frames are canonical, so the client can
       recognise the duplicate byte-for-byte). *)
    (match t.journal with
    | Some w -> (
        try
          List.iter
            (fun r ->
              ignore
                (Durable.Journal.append w ~kind:Durable.Journal.Delivered
                   ~edge:(edge_out s) (Dist.Wire.render r)
                  : int))
            rs
        with Durable.Journal.Killed -> ())
    | None -> ());
    locked t (fun () ->
        s.delivered <- s.delivered + n;
        t.n_delivered <- t.n_delivered + n)
  end

let poll t s ~max =
  let rs = Streams.Channel.drain s.out_q ~max in
  note_delivered t s rs;
  (match rs with
  | [] -> ()
  | _ :: _ -> locked t (fun () -> s.last_activity <- Scheduler.Clock.now ()));
  rs

let recv_outputs t s ~max =
  match Streams.Channel.recv_batch s.out_q ~max with
  | `Closed -> `Closed
  | `Batch rs ->
      note_delivered t s rs;
      `Batch rs

let fold_counters t (s : session) ~reaped =
  (* caller holds t.mu *)
  t.n_dropped <- t.n_dropped + s.dropped;
  if reaped then t.n_reaped <- t.n_reaped + 1 else t.n_closed <- t.n_closed + 1

let close_session t s =
  let fresh =
    locked t (fun () ->
        if s.closing then false
        else begin
          s.closing <- true;
          Hashtbl.remove t.sessions s.id;
          fold_counters t s ~reaped:false;
          true
        end)
  in
  if fresh then begin
    (* At-least-once close: a crash between the in-memory close and
       the append restores the session as open — the client simply
       closes it again. [Killed] swallowed for the same reason as in
       [note_delivered]. *)
    (match t.journal with
    | Some w -> (
        try
          ignore
            (Durable.Journal.append w ~kind:Durable.Journal.Close_session
               ~edge:(journal_edge_session s.id) ""
              : int)
        with Durable.Journal.Killed -> ())
    | None -> ());
    Streams.Channel.close s.out_q;
    Obsv.Probe.instant ~cat:"serve" ~name:"session.close" ~value:s.id ()
  end

let reap_idle t =
  if t.cfg.idle_timeout <= 0. then []
  else begin
    let now = Scheduler.Clock.now () in
    let victims =
      locked t (fun () ->
          let vs =
            Hashtbl.fold
              (fun _ s acc ->
                if
                  (not s.closing)
                  && now -. s.last_activity > t.cfg.idle_timeout
                then s :: acc
                else acc)
              t.sessions []
          in
          List.iter
            (fun s ->
              s.closing <- true;
              Hashtbl.remove t.sessions s.id;
              fold_counters t s ~reaped:true)
            vs;
          vs)
    in
    List.iter
      (fun s ->
        (match t.journal with
        | Some w -> (
            try
              ignore
                (Durable.Journal.append w ~kind:Durable.Journal.Close_session
                   ~edge:(journal_edge_session s.id) ""
                  : int)
            with Durable.Journal.Killed -> ())
        | None -> ());
        Streams.Channel.close s.out_q;
        Obsv.Probe.instant ~cat:"serve" ~name:"session.reap" ~value:s.id ();
        s.on_evict ())
      victims;
    List.map (fun s -> s.id) victims
  end

let begin_drain t = locked t (fun () -> t.draining <- true)
let is_draining t = locked t (fun () -> t.draining)

(* Graceful drain: reject new work, wait until every in-flight record
   has fully traversed the net and its response was routed, then close
   the session queues so consumers flush and observe end-of-stream.
   The settle loop below closes the admit-then-feed window — a submit
   that won the admission race may still be injecting its record while
   we wait for quiescence; [Clock.sleep] keeps the retry schedulable
   under detcheck's virtual clock. *)
let drain t =
  begin_drain t;
  let rec settle () =
    ignore (Snet.Engine_conc.finish (instance t));
    if locked t (fun () -> t.inflight_feeds > 0) then begin
      Scheduler.Clock.sleep 0.001;
      settle ()
    end
    else ignore (Snet.Engine_conc.finish (instance t))
  in
  settle ();
  let remaining =
    locked t (fun () -> Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [])
  in
  List.iter (fun s -> Streams.Channel.close s.out_q) remaining;
  Obsv.Probe.instant ~cat:"serve" ~name:"drain" ()

let session_count t = locked t (fun () -> Hashtbl.length t.sessions)

let health t =
  locked t (fun () ->
      let live f = Hashtbl.fold (fun _ s acc -> acc + f s) t.sessions 0 in
      {
        active = Hashtbl.length t.sessions;
        draining = t.draining;
        opened = t.n_opened;
        rejected = t.n_rejected;
        closed = t.n_closed;
        reaped = t.n_reaped;
        submitted = t.n_submitted;
        delivered = t.n_delivered;
        dropped = t.n_dropped + live (fun s -> s.dropped);
        orphaned = t.n_orphaned;
      })

let session_id s = s.id

(* Per-session health rows: a serve session is this daemon's analogue
   of a partition. Queue/credit figures are live; edge counters come
   from the metrics registry when it is on (zeros otherwise). Also
   refreshes the process-global Health registry, so Prom/snet_top see
   the same rows. *)
let health_parts t =
  let edges =
    if Obsv.Metrics.on () then (Obsv.Metrics.snapshot ()).Obsv.Metrics.edges
    else []
  in
  let lag = Obsv.Journal_stats.current_lag () in
  let parts =
    locked t (fun () ->
        Hashtbl.fold
          (fun _ s acc ->
            let backlog = Streams.Channel.length s.out_q in
            let sends, recvs, stalls, bp50, bp95 =
              match List.assoc_opt (edge_out s) edges with
              | Some e ->
                  ( e.Obsv.Metrics.sends,
                    e.Obsv.Metrics.recvs,
                    e.Obsv.Metrics.stalls,
                    e.Obsv.Metrics.batch_p50,
                    e.Obsv.Metrics.batch_p95 )
              | None -> (0, 0, 0, 0, 0)
            in
            Obsv.Health.make ~alive:(not s.closing) ~queue_depth:backlog
              ~window:s.window
              ~credits_free:(max 0 (s.window - backlog))
              ~sends ~recvs ~stalls ~batch_p50:bp50 ~batch_p95:bp95
              ~journal_lag:lag ~age:0. ~part:s.id ()
            :: acc)
          t.sessions [])
  in
  let parts = List.sort (fun a b -> compare a.Obsv.Health.part b.Obsv.Health.part) parts in
  Obsv.Health.set parts;
  parts

(* ------------------------------------------------------------------ *)
(* Framed-TCP session service over Transport.conn                      *)

let reject_ack reason =
  Dist.Proto.Session_ack
    { session = 0; ok = false; sa_credits = 0; sa_batch = 0; reason }

let attempt f = try f () with _ -> ()

(* Response writer: drains the session queue in envelope-sized batches,
   piggybacks any pending credit grants on the same transport write,
   and — once the queue is closed and flushed — answers [Done] and
   closes the connection (waking the reader). Connection teardown is
   the writer's job on every path, so the flush always precedes it. *)
let session_writer t s conn ~batch () =
  let ctx = Dist.Wire.ctx () in
  let rec loop () =
    match Streams.Channel.recv_batch s.out_q ~max:(max 1 batch) with
    | `Batch rs ->
        let grants = take_grants t s in
        let msgs =
          Dist.Proto.data_msgs ~ctx ~batch rs
          @
          if grants > 0 then [ Dist.Proto.encode (Dist.Proto.Credit grants) ]
          else []
        in
        let sent =
          try
            Dist.Transport.send_many conn msgs;
            true
          with _ -> false
        in
        (* Count (and journal) the delivery only once the frames
           reached the transport: a crash between the send and the
           journal append redelivers after restart rather than losing
           the response — at-least-once toward the client, who can
           dedupe byte-identical frames. *)
        if sent then note_delivered t s rs;
        loop ()
    | `Closed ->
        attempt (fun () ->
            Dist.Transport.send conn (Dist.Proto.encode Dist.Proto.Done));
        Dist.Transport.close conn
  in
  loop ()

(* Serve one negotiated session on [conn]; returns when the connection
   is done. The reader (this thread) feeds the net and grants credits;
   the writer thread streams responses back. *)
let serve_session t conn ~batch s =
  let ctx = Dist.Wire.ctx () in
  let writer = Thread.create (session_writer t s conn ~batch) () in
  let handle r =
    match submit t s r with
    | `Ok ->
        let g = take_grants t s in
        if g > 0 then
          attempt (fun () ->
              Dist.Transport.send conn (Dist.Proto.encode (Dist.Proto.Credit g)))
    | `Draining ->
        attempt (fun () ->
            Dist.Transport.send conn (Dist.Proto.encode (reject_ack "draining")))
    | `Closed -> ()
  in
  let rec loop () =
    match Dist.Transport.recv conn with
    | `Closed -> close_session t s
    | `Msg m -> (
        match Dist.Proto.decode ~ctx m with
        | Ok (Dist.Proto.Data r) ->
            handle r;
            loop ()
        | Ok (Dist.Proto.Data_batch rs) ->
            List.iter handle rs;
            loop ()
        | Ok (Dist.Proto.Close_session _ | Dist.Proto.Eof) ->
            (* No more submissions: flush-and-done happens in the
               writer once the queue closes; keep reading until it
               closes the connection. *)
            close_session t s;
            loop ()
        | Ok _ -> loop ()
        | Error e ->
            close_session t s;
            attempt (fun () ->
                Dist.Transport.send conn
                  (Dist.Proto.encode
                     (Dist.Proto.Crash ("protocol error: " ^ e)))))
  in
  loop ();
  (* The session may have been closed by reap/drain while the client
     still held the connection: make sure the writer wakes. *)
  close_session t s;
  Thread.join writer;
  Dist.Transport.close conn

(* Full connection lifecycle: Hello/Hello_ack, Open_session/Session_ack
   (admission control answers rejections in-band), then the session
   loop. *)
let serve_conn t conn =
  let fail reason =
    attempt (fun () -> Dist.Transport.send conn (Dist.Proto.encode (reject_ack reason)));
    Dist.Transport.close conn
  in
  match Dist.Transport.recv conn with
  | `Closed -> Dist.Transport.close conn
  | `Msg m -> (
      match Dist.Proto.decode m with
      | Ok (Dist.Proto.Hello h) when h.Dist.Proto.spec = Dist.Proto.serve_spec
        -> (
          attempt (fun () ->
              Dist.Transport.send conn
                (Dist.Proto.encode (Dist.Proto.Hello_ack { part = 0 })));
          match Dist.Transport.recv conn with
          | `Closed -> Dist.Transport.close conn
          | `Msg m -> (
              match Dist.Proto.decode m with
              | Ok (Dist.Proto.Open_session { credits; batch; resume }) -> (
                  let batch =
                    if batch <= 0 then t.cfg.batch else min batch t.cfg.batch
                  in
                  let on_evict () = Dist.Transport.close conn in
                  let ack_and_serve s =
                    attempt (fun () ->
                        Dist.Transport.send conn
                          (Dist.Proto.encode
                             (Dist.Proto.Session_ack
                                {
                                  session = s.id;
                                  ok = true;
                                  sa_credits = s.window;
                                  sa_batch = batch;
                                  reason = "";
                                })));
                    serve_session t conn ~batch s
                  in
                  if resume >= 0 then
                    match resume_session ~on_evict t resume with
                    | Ok s -> ack_and_serve s
                    | Error `Unknown -> fail "unknown resume session"
                  else
                    match
                      open_session
                        ~credits:
                          (if credits <= 0 then t.cfg.credits else credits)
                        ~on_evict t
                    with
                    | Error `Draining -> fail "draining"
                    | Error `Full -> fail "session limit reached"
                    | Ok s -> ack_and_serve s)
              | Ok _ | Error _ -> fail "expected Open_session"))
      | Ok (Dist.Proto.Hello _) -> fail "unsupported hello spec"
      | Ok _ | Error _ -> fail "expected Hello")
