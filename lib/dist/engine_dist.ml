(* ------------------------------------------------------------------ *)
(* Partitioning: cut the top-level serial spine                        *)

let rec segments = function
  | Snet.Net.Serial (a, b) -> segments a @ segments b
  | other -> [ other ]

(* ------------------------------------------------------------------ *)
(* Batching                                                            *)

(* Cut-edge envelope cap: how many records one Data_batch may carry.
   1 disables batching (plain Data frames both ways). *)
let min_batch = 1
let max_batch = 4096
let default_batch = 64

let validate_batch n =
  if n < min_batch then
    Error
      (Printf.sprintf
         "invalid batch %d: must be at least %d (1 disables batching)" n
         min_batch)
  else Ok (min n max_batch)

(* ------------------------------------------------------------------ *)
(* Sequence stamping                                                   *)

(* Every record the coordinator enqueues onto a cut edge carries a
   monotone sequence number in this tag. Outputs inherit it through
   the worker's subnet (flow inheritance), which gives the coordinator
   a per-worker watermark: when an output stamped [s] has come back,
   every input that worker received with a stamp at or below [s] has
   been fully processed — workers consume their input strictly in
   order and flush outputs only at quiescent envelope boundaries. A
   respawn then resends only the uncredited suffix ABOVE the
   watermark instead of the whole in-flight window, which is what
   makes Retry recovery exactly-once for processed-but-uncredited
   records. The tag is stripped again at the global output. *)
let seq_tag = "dist_seq"

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)

exception Crash_injected

let attempt_send conn msg =
  try Transport.send conn (Proto.encode msg) with _ -> ()

(* The subnet a partition runs under the placement plan its Hello
   carries (decode already validated plan/parts consistency). Both
   sides derive the layout from the same pure inputs, so coordinator
   and workers provably agree. A Hello without a plan is refused:
   Plan.decode rejects the empty string. *)
let subnet_for ~plan ~part net =
  match Plan.decode plan with
  | Error e -> failwith e
  | Ok p ->
      let segs = Array.of_list (segments net) in
      if Plan.nsegs p <> Array.length segs then
        failwith
          (Printf.sprintf
             "plan disagreement: plan covers %d segments, local network \
              yields %d"
             (Plan.nsegs p) (Array.length segs));
      let lo, hi = Plan.segments_of_part p part in
      Snet.Net.serial_list (Array.to_list (Array.sub segs lo (hi - lo + 1)))

(* Seconds between the metrics reports a shipping worker sends. *)
let report_every = 0.5

let serve ?pool ?tap ?throttle_us ?(die_in_freeze = false) ~conn ~resolve
    () =
  let cleanup () = Transport.close conn in
  match Transport.recv conn with
  | `Closed -> cleanup ()
  | `Msg m -> (
      match Proto.decode m with
      | Ok (Proto.Hello h) -> (
          (* Clock-rebase anchor: the coordinator noted its own clock
             just before sending this Hello; our local receipt time
             rides in every report so the coordinator can estimate the
             offset between the two clocks. *)
          let hello_ts = Obsv.Sink.now () in
          if h.Proto.obsv land Obsv.Sink.metrics_bit <> 0
             && not (Obsv.Metrics.on ())
          then Obsv.Metrics.enable ();
          if h.Proto.obsv land Obsv.Sink.events_bit <> 0
             && not (Obsv.Sink.events_on ())
          then Obsv.Sink.enable ();
          (* Ship telemetry only when the coordinator asked for it (a
             non-zero Hello obsv byte, i.e. a collector is attached):
             a worker whose operator enabled observability locally
             keeps its tables local rather than pushing frames at a
             coordinator that will drop them. *)
          let shipping = h.Proto.obsv <> 0 in
          (* An in-process coordinator (loopback transports) reads the
             shared metrics/sink tables directly and discards same-pid
             payloads — ship it slim liveness reports and no chunks. *)
          let local =
            h.Proto.coord_pid <> 0 && h.Proto.coord_pid = Unix.getpid ()
          in
          let prepared =
            try
              let net = resolve h.Proto.spec in
              let subnet =
                subnet_for ~plan:h.Proto.plan ~part:h.Proto.part net
              in
              let supervision =
                if h.Proto.policy = "" && h.Proto.timeout = None then None
                else
                  let policy =
                    if h.Proto.policy = "" then Snet.Supervise.Fail_fast
                    else
                      match Snet.Supervise.policy_of_string h.Proto.policy with
                      | Ok p -> p
                      | Error e -> failwith e
                  in
                  Some (Snet.Supervise.make ~policy ?timeout:h.Proto.timeout ())
              in
              Ok (subnet, supervision)
            with e -> Error (Printexc.to_string e)
          in
          match prepared with
          | Error e ->
              attempt_send conn (Proto.Crash e);
              cleanup ()
          | Ok (subnet, supervision) ->
              attempt_send conn (Proto.Hello_ack { part = h.Proto.part });
              let ctx = Wire.ctx () in
              let part = h.Proto.part in
              let batch = max 1 h.Proto.batch in
              (* The engine instance starts lazily so a [Restore] frame
                 arriving right after the handshake (a migrated-in
                 partition) can seed the captured state of its
                 predecessor before any component is built. *)
              let restore = ref None in
              let inst_ref = ref None in
              let inst () =
                match !inst_ref with
                | Some i -> i
                | None ->
                    let i =
                      Snet.Engine_conc.start ?pool ?supervision
                        ?restore:!restore subnet
                    in
                    inst_ref := Some i;
                    i
              in
              let consumed = ref 0 in
              let report_msg () =
                Proto.encode
                  (Proto.Metrics_report
                     {
                       part;
                       payload =
                         Obsv.Agg.encode_report
                           (Obsv.Agg.self_report ~slim:local ~part ~hello_ts
                              ());
                     })
              in
              let chunk_msgs () =
                if Obsv.Sink.events_on () && not local then
                  [
                    Proto.encode
                      (Proto.Trace_chunk
                         {
                           part;
                           payload =
                             Obsv.Agg.encode_chunk
                               (Obsv.Agg.self_chunk ~part ~hello_ts ());
                         });
                  ]
                else []
              in
              (* An immediate first report guarantees a partition that
                 dies mid-run still has a "last report" on the
                 coordinator. Periodic refreshes come from a detached
                 ticker: stopped via flag at teardown (or on a dead
                 connection), never joined, so run teardown is not
                 delayed by its sleep. *)
              let ticker_stop = Atomic.make false in
              if shipping then begin
                (try Transport.send conn (report_msg ())
                 with _ -> ());
                ignore
                  (Thread.create
                     (fun () ->
                       let slept = ref 0. in
                       while not (Atomic.get ticker_stop) do
                         Thread.delay 0.02;
                         slept := !slept +. 0.02;
                         if
                           !slept >= report_every
                           && not (Atomic.get ticker_stop)
                         then begin
                           slept := 0.;
                           try Transport.send conn (report_msg ())
                           with _ -> Atomic.set ticker_stop true
                         end
                       done)
                     ())
              end;
              (* finish returns only the outputs since the previous
                 finish: ship them as batch-capped envelopes. *)
              let fresh_out_msgs () =
                let fresh = Snet.Engine_conc.finish (inst ()) in
                if Obsv.Sink.events_on () then
                  List.iter
                    (fun r ->
                      match Snet.Record.tag Obsv.Probe.trace_tag r with
                      | Some t ->
                          Obsv.Probe.flow_start ~cat:"dist" ~name:"rec"
                            ~id:((t * 1024) + (2 * part) + 1)
                      | None -> ())
                    fresh;
                Proto.data_msgs ~ctx ~batch fresh
              in
              let in_edge = Printf.sprintf "dist:w%d.in" part in
              let consume r =
                incr consumed;
                if h.Proto.crash_after >= 0 && !consumed > h.Proto.crash_after
                then raise Crash_injected;
                (* Sick-worker simulation: a fixed per-record stall, so
                   a deliberately skewed partition shows up in the
                   health feed (queue depth, stall rate) and the
                   balancer has something real to migrate away from. *)
                (match throttle_us with
                | Some us when us > 0 -> Thread.delay (float_of_int us /. 1e6)
                | _ -> ());
                (match tap with
                | Some f -> f ~edge:in_edge r
                | None -> ());
                let sp = Obsv.Probe.span_start () in
                if Obsv.Sink.events_on () then
                  (* Inside the span so the arrow binds to this slice. *)
                  (match Snet.Record.tag Obsv.Probe.trace_tag r with
                  | Some t ->
                      Obsv.Probe.flow_end ~cat:"dist" ~name:"rec"
                        ~id:((t * 1024) + (2 * part))
                  | None -> ());
                Snet.Engine_conc.feed (inst ()) r;
                Obsv.Probe.span_end ~cat:"dist" ~name:"worker.record" sp
              in
              (* Outputs, then the credit grant for the whole input
                 envelope, in ONE coalesced transport write. *)
              let flush_and_credit k =
                Transport.send_many conn
                  (fresh_out_msgs () @ [ Proto.encode (Proto.Credit k) ])
              in
              let rec loop () =
                match Transport.recv conn with
                | `Closed -> ()
                | `Msg m -> (
                    match Proto.decode ~ctx m with
                    | Ok (Proto.Data r) ->
                        consume r;
                        flush_and_credit 1;
                        loop ()
                    | Ok (Proto.Data_batch rs) ->
                        List.iter consume rs;
                        flush_and_credit (List.length rs);
                        loop ()
                    | Ok Proto.Eof ->
                        (* Final report and trace ride ahead of Done in
                           the same write, so the coordinator has both
                           before it treats this partition as finished. *)
                        Transport.send_many conn
                          (fresh_out_msgs ()
                          @ (if shipping then report_msg () :: chunk_msgs ()
                             else [])
                          @ [ Proto.encode Proto.Done ]);
                        loop ()
                    | Ok Proto.Shutdown -> ()
                    | Ok (Proto.Restore { state }) ->
                        (* Only meaningful before the engine exists:
                           restored state must seed a fresh instance. *)
                        if !inst_ref <> None then
                          attempt_send conn
                            (Proto.Crash
                               "protocol error: Restore after the engine \
                                started")
                        else begin
                          match Statecodec.decode state with
                          | Ok st ->
                              restore := Some st;
                              loop ()
                          | Error e ->
                              attempt_send conn
                                (Proto.Crash ("bad restore state: " ^ e))
                        end
                    | Ok Proto.Migrate ->
                        (* Freeze for live repartitioning. Everything
                           received so far has been consumed and its
                           outputs/credits flushed (this loop is
                           strictly sequential), so the engine is
                           quiescent: flush any remaining outputs,
                           capture, ack, and stop — nothing is sent
                           after the Freeze_ack. *)
                        if die_in_freeze then raise Crash_injected;
                        let state =
                          match !inst_ref with
                          | None ->
                              (* Never started: hand back whatever we
                                 were seeded with (a twice-migrated
                                 partition must not lose its state). *)
                              Statecodec.encode
                                (Option.value !restore
                                   ~default:Snet.Netstate.empty)
                          | Some i ->
                              let outs = fresh_out_msgs () in
                              if outs <> [] then
                                Transport.send_many conn outs;
                              Statecodec.encode (Snet.Engine_conc.capture i)
                        in
                        Transport.send_many conn
                          ((if shipping then [ report_msg () ] else [])
                          @ [ Proto.encode (Proto.Freeze_ack { state }) ])
                    | Ok (Proto.Hello _ | Proto.Hello_ack _ | Proto.Credit _
                         | Proto.Done | Proto.Crash _ | Proto.Open_session _
                         | Proto.Session_ack _ | Proto.Close_session _
                         | Proto.Metrics_report _ | Proto.Trace_chunk _
                         | Proto.Freeze_ack _) ->
                        loop ()
                    | Error e -> attempt_send conn (Proto.Crash ("protocol error: " ^ e)))
              in
              (try loop () with
              | Crash_injected ->
                  (* Abrupt death: no Crash, no Done. Under
                     [crash_flush] the outputs of records already fed
                     still escape — but NOT the envelope's credit, so
                     the coordinator's in-flight window keeps records
                     whose outputs it will nonetheless receive. That
                     is the duplicate-delivery window the sequence
                     watermark dedupes on respawn. *)
                  if h.Proto.crash_flush then
                    (try Transport.send_many conn (fresh_out_msgs ())
                     with _ -> ())
              | Transport.Closed_conn -> ()
              | e -> attempt_send conn (Proto.Crash (Printexc.to_string e)));
              (* Deterministic ticker teardown: without this, the
                 detached thread outlives the connection by up to
                 [report_every] — a caller running many short jobs
                 would accumulate pointlessly waking threads. *)
              Atomic.set ticker_stop true;
              cleanup ())
      | Ok _ | Error _ ->
          attempt_send conn (Proto.Crash "expected Hello");
          cleanup ())

(* ------------------------------------------------------------------ *)
(* Coordinator                                                         *)

(* One event loop owns every piece of coordinator state below: it
   routes, stamps, writes envelopes, counts credits, moves watermarks,
   respawns and migrates. Other threads reach it only through the
   inbox: one reader per connection posts what it receives, and
   [migrate] posts a request and waits for the answer. *)

type wst =
  | Alive
  | Migrating
      (* Frozen for live repartitioning: the loop writes nothing to it
         while routing keeps enqueueing onto [pending], bounded by the
         credit window as usual. *)
  | Dead

(* What a reader posts: a frame from, or the close of, generation
   [gen] of partition [part]'s connection. Every death or migration
   retires the connection and bumps the generation, so whatever a
   retired connection still delivers is dropped. *)
type recv = { part : int; gen : int; msg : [ `Msg of string | `Closed ] }

type event =
  | Recv of recv
  | Migrate_req of int * (float, string) result Event.channel

type wstate = {
  idx : int;
  (* The cut edges into and out of this partition. *)
  ein : string;
  eout : string;
  mutable conn : Transport.conn;
  mutable gen : int;
  (* Encode and decode scratch for this partition's frames. *)
  wire : Wire.ctx;
  mutable st : wst;
  mutable done_ : bool;
  (* End-of-stream is two-phase: [eof_requested] marks that upstream is
     exhausted (set by [finish_stage]); [write] turns it into an actual
     Eof on the wire ([eof_sent]) only once [pending] has drained. An
     Eof needs NO credit, so a full window can never hold it back. *)
  mutable eof_requested : bool;
  mutable eof_sent : bool;
  mutable credits : int;
  (* Records routed to this worker but not yet written; [write]
     coalesces runs of them into batch envelopes. Bounded by the credit
     window: routing holds whatever does not fit. *)
  pending : Snet.Record.t Queue.t;
  (* Written but not yet credited; resent on respawn. *)
  inflight : Snet.Record.t Queue.t;
  (* Highest [seq_tag] stamp seen on this worker's outputs. Everything
     in [inflight] at or below it was fully processed before the
     crash — only the credit was lost — and must NOT be resent. *)
  mutable watermark : int;
  mutable retries_left : int;
  (* This worker's outputs not yet routed because a destination's
     window was full: (partition, records) groups, in order. While it
     is non-empty the worker's later frames wait in [stash], Credits
     included, so the worker is sent no new input before its outputs
     fit downstream. *)
  mutable held : (int * Snet.Record.t list) list;
  stash : recv Queue.t;
  (* The open migration: who waits for its answer, and since when. *)
  mutable freeze : ((float, string) result Event.channel * float) option;
}

(* One pipeline stage of the placement plan, in routing form: the
   stage owns partitions [r_base .. r_base + r_width - 1]; [r_tag] is
   the split tag a sharded stage routes on. *)
type stage_route = { r_base : int; r_width : int; r_tag : string option }

type coord = {
  ws : wstate array;
  parts : int;
  policy : Snet.Supervise.policy;
  stats : Snet.Stats.t option;
  init_credits : int;
  batch : int;
  respawn : int -> Transport.conn option;
  (* Durability hook: called on the loop with every record crossing a
     named cut edge and every record reaching the global output edge
     [out_edge]. *)
  tap : (edge:string -> Snet.Record.t -> unit) option;
  (* Cluster-observability sink: worker reports and trace chunks land
     here; [None] keeps the shipping path fully disabled. *)
  collector : Obsv.Agg.collector option;
  (* The placement plan in routing form; [stage_of.(i)] is the stage
     partition [i] belongs to. *)
  stages : stage_route array;
  stage_of : int array;
  mutable next_seq : int;
  mutable outputs_rev : Snet.Record.t list;
  mutable failure : string option;
  (* Inputs not yet routed, and the groups of the one routed last that
     did not fit stage 0; [fed] once stage 0 has its end of stream. *)
  mutable inputs : Snet.Record.t list;
  mutable feed_held : (int * Snet.Record.t list) list;
  mutable fed : bool;
  mutable readers : Thread.t list;
  (* The loop's thread: a [migrate] from it would wait on itself. *)
  loop_id : int;
  (* The inbox, the only state shared with other threads. The loop
     takes everything queued at once; a post signals only while the
     loop is [idle] in its wait. [closed] once the loop has stopped:
     later posts are refused. *)
  mu : Mutex.t;
  cv : Condition.t;
  inbox : event Queue.t;
  mutable idle : bool;
  mutable closed : bool;
  (* Completed or failed, readable from any thread. *)
  over : bool Atomic.t;
}

let out_edge = "dist:out"
let worker_name i = Printf.sprintf "dist:worker%d" i

let post c ev =
  Mutex.lock c.mu;
  let accepted = not c.closed in
  if accepted then begin
    Queue.push ev c.inbox;
    if c.idle then begin
      c.idle <- false;
      Condition.signal c.cv
    end
  end;
  Mutex.unlock c.mu;
  accepted

(* Block until the inbox holds something, then take all of it. *)
let take c =
  let evs = Queue.create () in
  Mutex.lock c.mu;
  while Queue.is_empty c.inbox do
    c.idle <- true;
    Condition.wait c.cv c.mu
  done;
  c.idle <- false;
  Queue.transfer c.inbox evs;
  Mutex.unlock c.mu;
  evs

(* A reader only receives: it never waits on the loop. *)
let start_reader c w =
  let part = w.idx and gen = w.gen and conn = w.conn in
  let rec loop () =
    let msg = try Transport.recv conn with _ -> `Closed in
    ignore (post c (Recv { part; gen; msg }) : bool);
    match msg with `Msg _ -> loop () | `Closed -> ()
  in
  c.readers <- Thread.create loop () :: c.readers

let answer reply r = Event.sync (Event.send reply r)

let stamp_dead c i r reason =
  Option.iter Snet.Stats.record_box_error c.stats;
  let e =
    Snet.Supervise.error_record ~box:(worker_name i)
      ~input:(Snet.Record.without_tag seq_tag r)
      (Failure reason)
  in
  c.outputs_rev <- e :: c.outputs_rev

(* Append [rs] to the global output edge [out_edge], without the
   coordinator's own tags. *)
let deliver c rs =
  List.iter
    (fun r ->
      let r = Snet.Record.without_tag seq_tag r in
      let r = Snet.Record.without_tag Obsv.Probe.trace_tag r in
      (match c.tap with Some f -> f ~edge:out_edge r | None -> ());
      c.outputs_rev <- r :: c.outputs_rev)
    rs

let full c w =
  c.failure = None && w.st <> Dead
  && Queue.length w.pending >= c.init_credits

(* Stamp [r] and queue it for partition [i] — or settle it at once
   when the partition is dead. *)
let push c i r =
  let w = c.ws.(i) in
  if c.failure = None then
    match w.st with
    | Dead -> (
        match c.policy with
        | Snet.Supervise.Fail_fast -> ()
        | Snet.Supervise.Error_record | Snet.Supervise.Retry _ ->
            stamp_dead c i r "worker died")
    | Alive | Migrating ->
        (* Trace ingress: stamp a fresh trace id only if the record
           doesn't already carry one — a record forwarded from an
           upstream partition keeps its id, which is what links its
           spans causally across workers. *)
        let r =
          if
            Obsv.Sink.events_on ()
            && Snet.Record.tag Obsv.Probe.trace_tag r = None
          then
            Snet.Record.with_tag Obsv.Probe.trace_tag
              (Obsv.Probe.fresh_trace ()) r
          else r
        in
        (* A worker's queue order is also its stamp order, and [write]
           keeps it on the wire — the watermark proof needs per-worker
           monotonicity, not the global sequence. *)
        let r = Snet.Record.with_tag seq_tag c.next_seq r in
        c.next_seq <- c.next_seq + 1;
        Queue.push r w.pending;
        (match c.tap with Some f -> f ~edge:w.ein r | None -> ());
        Obsv.Probe.edge_send ~name:w.ein
          ~depth:(Queue.length w.pending + Queue.length w.inflight);
        if Obsv.Sink.events_on () then
          match Snet.Record.tag Obsv.Probe.trace_tag r with
          | Some t ->
              Obsv.Probe.flow_start ~cat:"dist" ~name:"rec"
                ~id:((t * 1024) + (2 * i))
          | None -> ()

(* Push [rs], in order, onto partition [i]'s pending queue until its
   window is full, and return the rest for the caller to hold: one
   stall, wherever a lone record would stop. *)
let rec enqueue c i = function
  | [] -> []
  | r :: rest as rs ->
      if full c c.ws.(i) then begin
        Option.iter (fun s -> Snet.Stats.record_backpressure s 1) c.stats;
        Obsv.Probe.edge_stall ~name:c.ws.(i).ein;
        rs
      end
      else begin
        push c i r;
        enqueue c i rest
      end

(* Push routed groups in order; the groups from the first one that
   meets a full window on are returned, still to be pushed. *)
let rec push_groups c = function
  | [] -> []
  | (i, rs) :: more -> (
      match enqueue c i rs with
      | [] -> push_groups c more
      | rest -> (i, rest) :: more)

(* Route a batch into stage [s] (s = stage count means the global
   output) and return what must be held; error records bypass the
   remaining stages. A width-1 stage has exactly one partition; a
   shard group hashes the routing tag so equal tag values
   deterministically reach the same replica partition. A record
   without the tag goes to shard 0 and lets the worker's own split
   node report it, exactly as a single-process engine would. Each
   destination receives its records as one ordered group. *)
let route c s rs =
  if s >= Array.length c.stages then (deliver c rs; [])
  else begin
    let st = c.stages.(s) in
    (* Slot k < r_width is partition r_base + k; slot r_width is the
       global output. *)
    let groups = Array.make (st.r_width + 1) [] in
    List.iter
      (fun r ->
        let k =
          if Snet.Supervise.is_error r then st.r_width
          else if st.r_width = 1 then 0
          else
            let v =
              match st.r_tag with
              | Some tag -> (
                  match Snet.Record.tag tag r with Some v -> v | None -> 0)
              | None -> 0
            in
            Plan.shard_of ~shards:st.r_width v
        in
        groups.(k) <- r :: groups.(k))
      rs;
    deliver c (List.rev groups.(st.r_width));
    push_groups c
      (List.filter_map
         (fun k ->
           if groups.(k) = [] then None
           else Some (st.r_base + k, List.rev groups.(k)))
         (List.init st.r_width Fun.id))
  end

let stage_members c s =
  let st = c.stages.(s) in
  List.init st.r_width (fun k -> c.ws.(st.r_base + k))

(* Everything upstream of stage [s] has been delivered: mark
   end-of-stream on every partition of the stage; [write] sends the
   wire Eof once its pending queue drains. A stage whose partitions
   are all dead is skipped so the marker propagates. *)
let rec finish_stage c s =
  if s < Array.length c.stages then begin
    let members = stage_members c s in
    List.iter (fun w -> w.eof_requested <- true) members;
    if List.for_all (fun w -> w.st = Dead) members then finish_stage c (s + 1)
  end

(* Partition [i] is done or dead: if that finished its stage — every
   partition done or dead, with end-of-stream already requested — the
   next stage's Eof is due. *)
let settled c i =
  let s = c.stage_of.(i) in
  if
    List.for_all
      (fun w -> w.eof_requested && (w.done_ || w.st = Dead))
      (stage_members c s)
  then finish_stage c (s + 1)

let give_up c i reason =
  Option.iter (fun col -> Obsv.Agg.note_death col ~part:i ~reason) c.collector;
  let w = c.ws.(i) in
  w.st <- Dead;
  (match c.policy with
  | Snet.Supervise.Fail_fast ->
      if c.failure = None then
        c.failure <- Some (Printf.sprintf "%s: %s" (worker_name i) reason);
      Atomic.set c.over true
  | Snet.Supervise.Error_record | Snet.Supervise.Retry _ ->
      Queue.iter (fun r -> stamp_dead c i r reason) w.inflight;
      Queue.clear w.inflight;
      Queue.iter (fun r -> stamp_dead c i r reason) w.pending;
      Queue.clear w.pending);
  settled c i

(* Write to partition [w] what its window allows — envelopes of up to
   [min credits batch] pending records, then the Eof once pending has
   drained — in one transport write. Flush triggers are batch size,
   credit exhaustion and Eof; an idle edge sends a lone record at once,
   so light-load latency is one envelope away from the unbatched path.
   True when records left [pending]. *)
let write c w =
  if c.failure <> None || w.st <> Alive then false
  else begin
    let msgs = ref [] and before = Queue.length w.pending in
    while w.credits > 0 && not (Queue.is_empty w.pending) do
      let k = min (min w.credits c.batch) (Queue.length w.pending) in
      let rs =
        List.init k (fun _ ->
            let r = Queue.pop w.pending in
            Queue.push r w.inflight;
            r)
      in
      w.credits <- w.credits - k;
      Obsv.Probe.edge_batch ~name:w.ein ~size:k;
      msgs := List.rev_append (Proto.data_msgs ~ctx:w.wire ~batch:k rs) !msgs
    done;
    if w.eof_requested && (not w.eof_sent) && Queue.is_empty w.pending then begin
      w.eof_sent <- true;
      msgs := Proto.encode Proto.Eof :: !msgs
    end;
    if !msgs <> [] then (
      try Transport.send_many w.conn (List.rev !msgs)
      with _ -> () (* the worker's reader will observe the death *));
    Queue.length w.pending < before
  end

(* Close partition [w]'s connection; its reader's last words, and
   anything else it still delivers, are dropped. *)
let retire w =
  Transport.close w.conn;
  w.gen <- w.gen + 1

(* Respawn partition [i] and hand the replacement what its
   predecessor left uncredited: [prefix] first (a migration's
   [Restore]), then the in-flight records above the watermark, then
   Eof iff one was already on the old wire — an Eof merely requested
   stays with [write], which sends it once pending drains on the
   fresh connection. In-flight records at or below the watermark are
   dropped: their outputs came back before the swap, so the old worker
   provably processed them and only the credit was lost; resending
   them would deliver their outputs a second time (the crash_flush
   window). Credits restart at the window minus the resend. False when
   no replacement could be spawned. *)
let respawn_and_resend c i ~prefix =
  match c.respawn i with
  | None -> false
  | Some conn ->
      let w = c.ws.(i) in
      w.conn <- conn;
      let keep =
        List.rev
          (Queue.fold
             (fun acc r ->
               match Snet.Record.tag seq_tag r with
               | Some s when s <= w.watermark -> acc
               | _ -> r :: acc)
             [] w.inflight)
      in
      Queue.clear w.inflight;
      List.iter (fun r -> Queue.push r w.inflight) keep;
      w.credits <- c.init_credits - Queue.length w.inflight;
      (* A replacement that dies at once is found by its reader. *)
      (try
         Transport.send_many conn
           (prefix
           @ Proto.data_msgs ~ctx:w.wire ~batch:c.batch keep
           @ if w.eof_sent then [ Proto.encode Proto.Eof ] else [])
       with _ -> ());
      start_reader c w;
      true

(* A worker failure. A death during a migration freeze fails the
   migration, then takes the ordinary crash path: respawn without
   Restore under the retry budget, else [give_up]. *)
let death c i reason =
  let w = c.ws.(i) in
  let reason =
    match w.freeze with
    | Some (reply, _) ->
        w.freeze <- None;
        answer reply (Error "worker died during freeze; crash recovery engaged");
        "worker died during freeze"
    | None -> reason
  in
  retire w;
  let budget = w.retries_left in
  w.retries_left <- max 0 (budget - 1);
  if budget > 0 && respawn_and_resend c i ~prefix:[] then w.st <- Alive
  else give_up c i reason

(* ------------------------------------------------------------------ *)
(* Live migration: drain — freeze — respawn — resend                   *)

(* Move partition [i] onto a fresh worker while the run is live:

   1. mark the partition [Migrating]: the loop stops writing to it,
      routing keeps enqueueing (bounded by the credit window);
   2. send [Migrate]; the worker finishes what it already received,
      flushes outputs and credits, captures its engine state and
      answers [Freeze_ack] — after which its inflight window is empty
      (every envelope was credited before the ack, FIFO);
   3. on the ack ([end_migration]), respawn via the run's respawn
      hook, seed the new worker with [Restore], resend any uncredited
      inflight above the watermark (belt and braces — empty after a
      clean freeze), and mark the partition [Alive] so writing
      resumes.

   A worker that dies mid-freeze falls back to the ordinary crash
   path ([death]), with the same exactly-once guarantees as any other
   death. The answer is the downtime in seconds: freeze request to
   alive again. *)
let start_migration c i reply =
  let w = c.ws.(i) and refuse e = answer reply (Error e) in
  if c.failure <> None then refuse "run already failed"
  else if w.done_ then refuse "partition already done"
  else if w.eof_sent then refuse "partition already at end of stream"
  else if w.st <> Alive then refuse "worker not alive"
  else begin
    w.st <- Migrating;
    w.freeze <- Some (reply, Unix.gettimeofday ());
    try Transport.send w.conn (Proto.encode Proto.Migrate)
    with _ -> () (* the reader will observe the death *)
  end

let end_migration c i state =
  let w = c.ws.(i) in
  match w.freeze with
  | None -> ()
  | Some (reply, t0) ->
      w.freeze <- None;
      retire w;
      let prefix =
        match Statecodec.decode state with
        | Ok st when Snet.Netstate.is_empty st ->
            (* A pristine capture: skip the frame so the fresh
               worker's path equals a cold start. *)
            []
        | _ -> [ Proto.encode (Proto.Restore { state }) ]
      in
      if respawn_and_resend c i ~prefix then begin
        w.st <- Alive;
        let downtime = Unix.gettimeofday () -. t0 in
        Option.iter
          (fun col -> Obsv.Agg.note_migration col ~part:i ~downtime)
          c.collector;
        answer reply (Ok downtime)
      end
      else begin
        give_up c i "respawn failed during migration";
        answer reply (Error "could not spawn a replacement worker")
      end

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)

(* Route a batch of worker [i]'s outputs on to the next stage, under
   one watermark update for the whole batch. The worker's later
   frames, its death included, wait until the batch is routed in
   full, so a respawn never trusts the watermark for outputs that were
   not delivered. *)
let forward c i rs =
  let w = c.ws.(i) in
  List.iter
    (fun r ->
      (match Snet.Record.tag seq_tag r with
      | Some s when s > w.watermark -> w.watermark <- s
      | _ -> ());
      Obsv.Probe.edge_recv ~name:w.eout ~depth:(Queue.length w.inflight);
      if Obsv.Sink.events_on () then
        match Snet.Record.tag Obsv.Probe.trace_tag r with
        | Some t ->
            Obsv.Probe.flow_end ~cat:"dist" ~name:"rec"
              ~id:((t * 1024) + (2 * i) + 1)
        | None -> ())
    rs;
  w.held <- route c (c.stage_of.(i) + 1) rs

let on_recv c ({ part = i; gen; msg } as ev) =
  let w = c.ws.(i) in
  if gen <> w.gen then ()
  else if w.held <> [] then Queue.push ev w.stash
  else
    match msg with
    | `Closed -> if not w.done_ then death c i "connection closed"
    | `Msg m -> (
        match Proto.decode ~ctx:w.wire m with
        | Ok (Proto.Data r) -> forward c i [ r ]
        | Ok (Proto.Data_batch rs) ->
            Obsv.Probe.edge_batch ~name:w.eout ~size:(List.length rs);
            forward c i rs
        | Ok (Proto.Credit n) ->
            w.credits <- w.credits + n;
            for _ = 1 to min n (Queue.length w.inflight) do
              ignore (Queue.pop w.inflight)
            done
        | Ok Proto.Done ->
            w.done_ <- true;
            settled c i
        | Ok (Proto.Crash reason) -> death c i reason
        | Ok (Proto.Freeze_ack { state }) -> end_migration c i state
        | Ok (Proto.Metrics_report { payload; _ }) ->
            Option.iter
              (fun col ->
                Result.iter
                  (fun rep ->
                    Obsv.Agg.note_report col rep;
                    (* Pair the report with the coordinator-side view of
                       this partition's cut edge. *)
                    Obsv.Agg.note_gauges col ~part:i
                      ~queue:(Queue.length w.pending + Queue.length w.inflight)
                      ~credits:w.credits ~window:c.init_credits)
                  (Obsv.Agg.decode_report payload))
              c.collector
        | Ok (Proto.Trace_chunk { payload; _ }) ->
            Option.iter
              (fun col ->
                Result.iter (Obsv.Agg.note_chunk col)
                  (Obsv.Agg.decode_chunk payload))
              c.collector
        | Ok
            ( Proto.Hello _ | Proto.Hello_ack _ | Proto.Eof | Proto.Shutdown
            | Proto.Open_session _ | Proto.Session_ack _
            | Proto.Close_session _ | Proto.Migrate | Proto.Restore _ ) ->
            ()
        | Error e -> death c i ("protocol error: " ^ e))

(* Worker [w]'s routing is held on a full window: when the window has
   room, push what fits, then replay the frames that queued up behind
   it, in order, until it is held again. True when anything moved. *)
let resume c w =
  match w.held with
  | (j, _) :: _ when not (full c c.ws.(j)) ->
      w.held <- push_groups c w.held;
      while w.held = [] && not (Queue.is_empty w.stash) do
        on_recv c (Queue.pop w.stash)
      done;
      true
  | _ -> false

(* Route inputs into stage 0 while its windows have room; once the
   last is in, stage 0's end of stream. True when anything moved. *)
let feed c =
  let moved =
    match c.feed_held with
    | (j, _) :: _ when not (full c c.ws.(j)) ->
        c.feed_held <- push_groups c c.feed_held;
        true
    | _ -> false
  in
  let rec go moved =
    match c.inputs with
    | r :: rest when c.failure = None && c.feed_held = [] ->
        c.inputs <- rest;
        c.feed_held <- route c 0 [ r ];
        go true
    | _ -> moved
  in
  let moved = go moved in
  if c.feed_held = [] && c.inputs = [] && not c.fed then begin
    c.fed <- true;
    finish_stage c 0;
    true
  end
  else moved

(* Feed, resume held sources and write, until nothing moves: a write
   frees room, room lets routing push, a push gives a write. *)
let rec settle c =
  let moved = feed c in
  let moved = Array.fold_left (fun m w -> resume c w || m) moved c.ws in
  let moved = Array.fold_left (fun m w -> write c w || m) moved c.ws in
  if moved then settle c

let drive c =
  settle c;
  while
    c.failure = None && not (Array.for_all (fun w -> w.done_ || w.st = Dead) c.ws)
  do
    Queue.iter
      (function
        | Recv ev -> on_recv c ev
        | Migrate_req (i, reply) -> start_migration c i reply)
      (take c);
    settle c
  done

(* Stop the loop: refuse and answer every request still open, shut
   the workers down and join every reader. *)
let teardown c =
  Atomic.set c.over true;
  Mutex.lock c.mu;
  c.closed <- true;
  let left = Queue.create () in
  Queue.transfer c.inbox left;
  Mutex.unlock c.mu;
  let refusal =
    if c.failure = None then "run already finished" else "run already failed"
  in
  Queue.iter
    (function
      | Migrate_req (_, reply) -> answer reply (Error refusal)
      | Recv _ -> ())
    left;
  Array.iter
    (fun w ->
      Option.iter
        (fun (reply, _) -> answer reply (Error "run failed during migration"))
        w.freeze;
      if w.st = Alive then attempt_send w.conn Proto.Shutdown;
      Transport.close w.conn)
    c.ws;
  List.iter Thread.join c.readers

(* ------------------------------------------------------------------ *)
(* Run handle: the balancer's window into a live run                   *)

type handle = { h_coord : coord; h_plan : Plan.t }

let migrate h i =
  let c = h.h_coord in
  if i < 0 || i >= c.parts then
    Error (Printf.sprintf "partition %d out of range (parts=%d)" i c.parts)
  else if Thread.id (Thread.self ()) = c.loop_id then
    Error "migrate called on the coordinator's own thread"
  else
    let reply = Event.new_channel () in
    if post c (Migrate_req (i, reply)) then Event.sync (Event.receive reply)
    else Error "run already finished"

let handle_parts h = h.h_coord.parts
let handle_plan h = h.h_plan
let handle_finished h = Atomic.get h.h_coord.over

(* ------------------------------------------------------------------ *)

(* Routing form of a plan against the network it cuts: resolves each
   shard stage's split tag, rejecting stages that shard anything but a
   nondeterministic parallel replication. *)
let routes_of ~plan net =
  let segs = Array.of_list (segments net) in
  Array.mapi
    (fun si st ->
      let base = Plan.base plan si in
      match st with
      | Plan.Run _ -> { r_base = base; r_width = 1; r_tag = None }
      | Plan.Shard { seg; shards } -> (
          match Snet.Net.unplace segs.(seg) with
          | Snet.Net.Split { tag; det = false; _ } ->
              { r_base = base; r_width = shards; r_tag = Some tag }
          | Snet.Net.Split { det = true; _ } ->
              invalid_arg
                (Printf.sprintf
                   "Engine_dist: plan stage %d shards a deterministic split \
                    (!), which would break its causal merge order"
                   si)
          | _ ->
              invalid_arg
                (Printf.sprintf
                   "Engine_dist: plan stage %d shards segment %d, which is \
                    not a parallel replication (!!)"
                   si seg)))
    plan

(* Human-readable placement of one partition under a plan — the PLACE
   column of [snet_top --cluster]. *)
let place_of ~plan part =
  let s = Plan.stage_of_part plan part in
  match plan.(s) with
  | Plan.Run { lo; hi } when lo = hi -> Printf.sprintf "seg %d" lo
  | Plan.Run { lo; hi } -> Printf.sprintf "segs %d-%d" lo hi
  | Plan.Shard { seg; shards } ->
      Printf.sprintf "seg %d shard %d/%d" seg (part - Plan.base plan s) shards

(* [conns] already carry a delivered Hello; [respawn i] must likewise
   hand back a freshly greeted connection. The calling thread runs the
   loop. *)
let coordinate ?tap ?collector ?on_handle ~plan ~routes ~parts ~conns ~policy
    ~stats ~credits ~batch ~respawn inputs =
  let stage_of = Array.make parts 0 in
  Array.iteri
    (fun s r ->
      for k = 0 to r.r_width - 1 do
        stage_of.(r.r_base + k) <- s
      done)
    routes;
  let c =
    {
      ws =
        Array.mapi
          (fun i conn ->
            {
              idx = i;
              ein = Printf.sprintf "dist:w%d.in" i;
              eout = Printf.sprintf "dist:w%d.out" i;
              conn;
              gen = 0;
              wire = Wire.ctx ();
              st = Alive;
              done_ = false;
              eof_requested = false;
              eof_sent = false;
              credits;
              pending = Queue.create ();
              inflight = Queue.create ();
              watermark = -1;
              retries_left =
                (match policy with Snet.Supervise.Retry n -> n | _ -> 0);
              held = [];
              stash = Queue.create ();
              freeze = None;
            })
          (Array.of_list conns);
      parts;
      policy;
      stats;
      init_credits = credits;
      batch;
      respawn;
      tap;
      collector;
      stages = routes;
      stage_of;
      next_seq = 0;
      outputs_rev = [];
      failure = None;
      inputs;
      feed_held = [];
      fed = false;
      readers = [];
      loop_id = Thread.id (Thread.self ());
      mu = Mutex.create ();
      cv = Condition.create ();
      inbox = Queue.create ();
      idle = false;
      closed = false;
      over = Atomic.make false;
    }
  in
  Option.iter
    (fun col ->
      Array.iteri
        (fun i _ -> Obsv.Agg.note_place col ~part:i ~place:(place_of ~plan i))
        c.ws)
    c.collector;
  Array.iter (start_reader c) c.ws;
  Fun.protect
    ~finally:(fun () -> teardown c)
    (fun () ->
      Option.iter (fun f -> f { h_coord = c; h_plan = plan }) on_handle;
      drive c);
  (* Final gauge sweep: every partition's health row reflects the edge
     state at the end of the run, even if it never sent a report. *)
  Option.iter
    (fun col ->
      Array.iter
        (fun w ->
          Obsv.Agg.note_gauges col ~part:w.idx
            ~queue:(Queue.length w.pending + Queue.length w.inflight)
            ~credits:w.credits ~window:c.init_credits)
        c.ws)
    c.collector;
  match c.failure with
  | Some msg -> failwith ("Engine_dist: " ^ msg)
  | None -> List.rev c.outputs_rev

(* ------------------------------------------------------------------ *)
(* Launch: one set-up for loopback threads and worker processes        *)

let split_supervision = function
  | None -> (Snet.Supervise.Fail_fast, None, "")
  | Some c ->
      ( c.Snet.Supervise.policy,
        c.Snet.Supervise.timeout,
        Snet.Supervise.policy_to_string c.Snet.Supervise.policy )

(* The Hello obsv byte: with a collector, workers mirror whichever
   subsystems are on here — at minimum metrics, so a collector always
   receives reports even when the coordinator runs with tracing off. *)
let obsv_flags = function
  | None -> 0
  | Some _ ->
      let f =
        (if Obsv.Sink.events_on () then Obsv.Sink.events_bit else 0)
        lor if Obsv.Metrics.on () then Obsv.Sink.metrics_bit else 0
      in
      if f = 0 then Obsv.Sink.metrics_bit else f

(* Without a plan, the box-count-balanced contiguous cut. *)
let resolve_plan ?plan ~workers net =
  let nsegs = List.length (segments net) in
  let plan =
    match plan with
    | Some p -> p
    | None ->
        let weights =
          List.map (fun s -> max 1 (Snet.Net.count_boxes s)) (segments net)
        in
        Plan.contiguous ~parts:workers ~weights
  in
  match Plan.validate ~nsegs plan with
  | Ok () -> plan
  | Error e -> invalid_arg ("Engine_dist: " ^ e)

(* The set-up [run] and [run_spawned] share: validate, cut, greet each
   worker with its Hello, coordinate. [connect i ~first] starts a
   worker for partition [i] ([first] on its initial spawn, false for a
   replacement) and returns the coordinator's end of its connection.
   [spec] is the network name the Hello carries; [coord_pid] is this
   process's pid when the workers share it, and 0 for separate
   processes, which then ship full telemetry payloads. [kill_worker]
   applies to first spawns only, so a replacement runs clean. *)
let launch ~spec ~coord_pid ~connect ?(workers = 2) ?(credits = 32) ?batch
    ?stats ?supervision ?kill_worker ?(crash_flush = false) ?tap ?collector
    ?plan ?on_handle net inputs =
  if credits <= 0 then invalid_arg "Engine_dist: credits must be positive";
  let batch =
    match validate_batch (Option.value batch ~default:default_batch) with
    | Ok n -> n
    | Error e -> invalid_arg ("Engine_dist: " ^ e)
  in
  let plan = resolve_plan ?plan ~workers net in
  let parts = Plan.parts plan in
  let routes = routes_of ~plan net in
  let plan_str = Plan.encode plan in
  let policy, timeout, policy_str = split_supervision supervision in
  let greet i ~first =
    let conn = connect i ~first in
    let crash_after =
      match kill_worker with Some (j, k) when first && j = i -> k | _ -> -1
    in
    (match collector with
    | Some col -> Obsv.Agg.note_hello col ~part:i
    | None -> ());
    Transport.send conn
      (Proto.encode
         (Proto.Hello
            {
              spec;
              part = i;
              parts;
              policy = policy_str;
              timeout;
              credits;
              crash_after;
              crash_flush = crash_flush && crash_after >= 0;
              batch;
              obsv = obsv_flags collector;
              coord_pid;
              plan = plan_str;
            }));
    conn
  in
  let conns = List.init parts (fun i -> greet i ~first:true) in
  let respawn i =
    match greet i ~first:false with conn -> Some conn | exception _ -> None
  in
  coordinate ?tap ?collector ?on_handle ~plan ~routes ~parts ~conns ~policy
    ~stats ~credits ~batch ~respawn inputs

(* ------------------------------------------------------------------ *)
(* Loopback runner: simulated workers, hermetic and single-process     *)

let run ?pool ?workers ?credits ?batch ?stats ?supervision ?kill_worker
    ?crash_flush ?tap ?collector ?plan ?on_handle ?worker_throttle
    ?kill_in_freeze net inputs =
  let threads = ref [] and threads_mu = Mutex.create () in
  (* Skew and freeze-death injection, like [kill_worker], apply to
     first spawns only: replacements run clean, so recovery and
     rebalancing are honest. *)
  let connect i ~first =
    let a, b = Transport.loopback_pair ~name:(Printf.sprintf "dist:w%d" i) () in
    let throttle_us =
      match worker_throttle with
      | Some (j, us) when first && j = i -> Some us
      | _ -> None
    in
    let die_in_freeze = first && kill_in_freeze = Some i in
    let t =
      Thread.create
        (fun () ->
          serve ?pool ?throttle_us ~die_in_freeze ~conn:b
            ~resolve:(fun _ -> net)
            ())
        ()
    in
    Mutex.protect threads_mu (fun () -> threads := t :: !threads);
    a
  in
  Fun.protect
    ~finally:(fun () -> List.iter Thread.join !threads)
    (fun () ->
      launch ~spec:"loopback" ~coord_pid:(Unix.getpid ()) ~connect ?workers
        ?credits ?batch ?stats ?supervision ?kill_worker ?crash_flush ?tap
        ?collector ?plan ?on_handle net inputs)

(* ------------------------------------------------------------------ *)
(* Spawned runner: real worker processes over TCP                      *)

(* [spawn_execd exe argv]: start [exe] like
   [Unix.create_process exe argv Unix.stdin Unix.stdout Unix.stderr],
   but return only once the child has exec'd.
   Until then /proc reports the coordinator's memory for the new pid,
   so a thread of this process reading the workers' resident sets
   right after a spawn would misread; the wait holds the runtime lock,
   so none can. See spawn_stubs.c. *)
external spawn_execd : string -> string array -> int
  = "snet_dist_spawn_execd"

let run_spawned ~worker_exe ~spec ?(host = "127.0.0.1") ?workers ?credits
    ?batch ?stats ?supervision ?kill_worker ?crash_flush ?tap ?collector ?plan
    ?on_handle ?(worker_args = []) net inputs =
  let listener = Transport.Tcp.listen ~host () in
  let port = Transport.Tcp.port listener in
  let pids = ref [] and pids_mu = Mutex.create () in
  (* Workers are assigned partitions in accept order. *)
  let connect _ ~first:_ =
    let argv =
      Array.of_list
        (worker_exe :: "--connect" :: Printf.sprintf "%s:%d" host port
       :: worker_args)
    in
    let pid = spawn_execd worker_exe argv in
    Mutex.protect pids_mu (fun () -> pids := pid :: !pids);
    Transport.erase
      (module Transport.Tcp)
      (Transport.Tcp.accept ~timeout_s:30.0 listener)
  in
  let reap () =
    Transport.Tcp.close_listener listener;
    let deadline = Unix.gettimeofday () +. 5.0 in
    let rec wait_all remaining =
      match remaining with
      | [] -> ()
      | pid :: rest -> (
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ ->
              if Unix.gettimeofday () > deadline then begin
                (try Unix.kill pid Sys.sigkill with _ -> ());
                ignore (try Unix.waitpid [] pid with _ -> (pid, Unix.WEXITED 0));
                wait_all rest
              end
              else begin
                Thread.delay 0.02;
                wait_all (pid :: rest)
              end
          | _ -> wait_all rest
          | exception Unix.Unix_error (ECHILD, _, _) -> wait_all rest)
    in
    wait_all (Mutex.protect pids_mu (fun () -> !pids))
  in
  Fun.protect ~finally:reap (fun () ->
      launch ~spec ~coord_pid:0 ~connect ?workers ?credits ?batch ?stats
        ?supervision ?kill_worker ?crash_flush ?tap ?collector ?plan ?on_handle
        net inputs)
