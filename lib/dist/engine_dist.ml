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

type wst =
  | Alive
  | Respawning
  | Migrating
      (* Frozen for live repartitioning: the pump parks (it only sends
         to [Alive] workers) while producers keep enqueueing onto
         [pending], bounded by the credit window as usual. *)
  | Dead

type wstate = {
  idx : int;
  mutable conn : Transport.conn;
  mutable st : wst;
  mutable done_ : bool;
  (* End-of-stream is two-phase: [eof_requested] marks that upstream is
     exhausted (set by [finish_upstream]); the pump turns it into an
     actual Eof on the wire ([eof_sent]) only once [pending] has
     drained. Keeping the two apart is what fixes the full-window
     parking bug: an Eof needs NO credit, so the pump's wait condition
     must not couple it to [credits > 0]. *)
  mutable eof_requested : bool;
  mutable eof_sent : bool;
  mutable credits : int;
  (* Records routed to this worker but not yet written; the pump
     coalesces runs of them into batch envelopes. Bounded by the credit
     window, so producer backpressure is preserved. *)
  pending : Snet.Record.t Queue.t;
  (* Written but not yet credited; resent on respawn. *)
  inflight : Snet.Record.t Queue.t;
  (* Highest [seq_tag] stamp seen on this worker's outputs. Everything
     in [inflight] at or below it was fully processed before the
     crash — only the credit was lost — and must NOT be resent. *)
  mutable watermark : int;
  mutable retries_left : int;
  (* Migration rendezvous between the reader (which receives the
     Freeze_ack or observes the death) and the migrating thread. *)
  mutable freeze_state : string option;
  mutable freeze_failed : bool;
  mutable migrations : int;
}

(* One pipeline stage of the placement plan, in routing form: the
   stage owns partitions [r_base .. r_base + r_width - 1]; [r_tag] is
   the split tag a sharded stage routes on. *)
type stage_route = { r_base : int; r_width : int; r_tag : string option }

type coord = {
  mu : Mutex.t;
  cv : Condition.t;
  ws : wstate array;
  parts : int;
  policy : Snet.Supervise.policy;
  stats : Snet.Stats.t option;
  init_credits : int;
  batch : int;
  respawn : int -> Transport.conn option;
  (* Durability hook: called (outside hot-path allocation, under the
     coordinator lock for cut edges, lock-free for the global output)
     with every record crossing a named cut edge and every record
     reaching the global output edge [out_edge]. *)
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
  (* Reader threads spawned after a migration; joined at run end. *)
  mutable aux : Thread.t list;
  (* Set once the run is over: migrations are refused from then on. *)
  mutable closed : bool;
}

let edge_in i = Printf.sprintf "dist:w%d.in" i
let edge_out i = Printf.sprintf "dist:w%d.out" i
let out_edge = "dist:out"

let locked c f =
  Mutex.lock c.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.mu) f

let worker_name i = Printf.sprintf "dist:worker%d" i

let stamp_dead c i r reason =
  Option.iter Snet.Stats.record_box_error c.stats;
  let e =
    Snet.Supervise.error_record ~box:(worker_name i)
      ~input:(Snet.Record.without_tag seq_tag r)
      (Failure reason)
  in
  c.outputs_rev <- e :: c.outputs_rev

(* Append [rs] to the global output edge [out_edge], without the
   coordinator's own tags. The tap runs lock-free; nothing waits on
   the output list, so there is no wake-up. *)
let deliver c rs =
  let rs =
    List.map
      (fun r ->
        let r = Snet.Record.without_tag seq_tag r in
        let r = Snet.Record.without_tag Obsv.Probe.trace_tag r in
        (match c.tap with Some f -> f ~edge:out_edge r | None -> ());
        r)
      rs
  in
  locked c (fun () -> c.outputs_rev <- List.rev_append rs c.outputs_rev)

(* Enqueue [rs], in order, onto partition [i]'s pending queue in one
   lock hold — the pump does the wire work. Blocks mid-batch wherever
   the pending window is full, exactly where a lone record would.
   Only a push onto an empty queue can enable the pump (its other
   conditions do not change here), so only that push wakes it: once
   per lock hold, and before any wait for room. Never called with the
   lock held. *)
let enqueue c i rs =
  let w = c.ws.(i) in
  locked c (fun () ->
      let wake = ref false in
      let wake_pump () =
        if !wake then begin
          wake := false;
          Condition.broadcast c.cv
        end
      in
      let full () =
        c.failure = None && w.st <> Dead
        && Queue.length w.pending >= c.init_credits
      in
      let push r =
        if full () then begin
          wake_pump ();
          Option.iter (fun s -> Snet.Stats.record_backpressure s 1) c.stats;
          Obsv.Probe.edge_stall ~name:(edge_in i);
          while full () do
            Condition.wait c.cv c.mu
          done
        end;
        if c.failure = None then
          match w.st with
          | Dead -> (
              match c.policy with
              | Snet.Supervise.Fail_fast -> ()
              | Snet.Supervise.Error_record | Snet.Supervise.Retry _ ->
                  stamp_dead c i r "worker died")
          | Alive | Respawning | Migrating ->
              (* Trace ingress: stamp a fresh trace id only if the
                 record doesn't already carry one — a record forwarded
                 from an upstream partition keeps its id, which is what
                 links its spans causally across workers. *)
              let r =
                if
                  Obsv.Sink.events_on ()
                  && Snet.Record.tag Obsv.Probe.trace_tag r = None
                then
                  Snet.Record.with_tag Obsv.Probe.trace_tag
                    (Obsv.Probe.fresh_trace ()) r
                else r
              in
              (* Stamp under the lock so a worker's queue order is
                 also its stamp order — the watermark proof needs
                 per-worker monotonicity, not the global sequence. *)
              let r = Snet.Record.with_tag seq_tag c.next_seq r in
              c.next_seq <- c.next_seq + 1;
              if Queue.is_empty w.pending then wake := true;
              Queue.push r w.pending;
              (match c.tap with
              | Some f -> f ~edge:(edge_in i) r
              | None -> ());
              Obsv.Probe.edge_send ~name:(edge_in i)
                ~depth:(Queue.length w.pending + Queue.length w.inflight);
              if Obsv.Sink.events_on () then
                (match Snet.Record.tag Obsv.Probe.trace_tag r with
                | Some t ->
                    Obsv.Probe.flow_start ~cat:"dist" ~name:"rec"
                      ~id:((t * 1024) + (2 * i))
                | None -> ())
      in
      List.iter push rs;
      wake_pump ())

(* Route a batch into stage [s] (s = stage count means the global
   output); error records bypass the remaining stages. A width-1 stage
   has exactly one partition; a shard group hashes the routing tag so
   equal tag values deterministically reach the same replica
   partition. A record without the tag goes to shard 0 and lets the
   worker's own split node report it, exactly as a single-process
   engine would. Each destination receives its records as one ordered
   group. *)
let route c s rs =
  if s >= Array.length c.stages then deliver c rs
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
    Array.iteri
      (fun k g ->
        if g <> [] then
          let g = List.rev g in
          if k = st.r_width then deliver c g else enqueue c (st.r_base + k) g)
      groups
  end

let stage_members c s =
  let st = c.stages.(s) in
  List.init st.r_width (fun k -> c.ws.(st.r_base + k))

(* Everything upstream of stage [s] has been delivered: mark
   end-of-stream on every partition of the stage; each pump sends the
   wire Eof after draining its pending queue. A stage whose partitions
   are all dead is skipped so the marker propagates. *)
let rec finish_stage c s =
  if s < Array.length c.stages then begin
    let all_dead =
      locked c (fun () ->
          let members = stage_members c s in
          List.iter (fun w -> w.eof_requested <- true) members;
          Condition.broadcast c.cv;
          List.for_all (fun w -> w.st = Dead) members)
    in
    if all_dead then finish_stage c (s + 1)
  end

(* Must be called under the lock: has stage [s] finished — every
   partition done or dead, with end-of-stream already requested — so
   the next stage's Eof is due? *)
let stage_finished c s =
  List.for_all
    (fun w -> w.eof_requested && (w.done_ || w.st = Dead))
    (stage_members c s)

let give_up c i reason =
  (match c.collector with
  | Some col -> Obsv.Agg.note_death col ~part:i ~reason
  | None -> ());
  let propagate =
    locked c (fun () ->
        let w = c.ws.(i) in
        w.st <- Dead;
        (match c.policy with
        | Snet.Supervise.Fail_fast ->
            if c.failure = None then
              c.failure <- Some (Printf.sprintf "%s: %s" (worker_name i) reason)
        | Snet.Supervise.Error_record | Snet.Supervise.Retry _ ->
            Queue.iter (fun r -> stamp_dead c i r reason) w.inflight;
            Queue.clear w.inflight;
            Queue.iter (fun r -> stamp_dead c i r reason) w.pending;
            Queue.clear w.pending);
        Condition.broadcast c.cv;
        stage_finished c c.stage_of.(i))
  in
  if propagate then finish_stage c (c.stage_of.(i) + 1)

(* Per-worker sender pump: coalesce whatever is queued — bounded by
   the credit window and the batch cap — into one transport write.
   Flush triggers are batch-size, credit exhaustion and Eof; an idle
   edge sends a lone record immediately, so light-load latency is one
   envelope away from the unbatched path. *)
let pump c i =
  let w = c.ws.(i) in
  let ctx = Wire.ctx () in
  let rec loop () =
    let action =
      locked c (fun () ->
          let can_data () =
            w.st = Alive && w.credits > 0 && not (Queue.is_empty w.pending)
          in
          let can_eof () =
            w.st = Alive && w.eof_requested && not w.eof_sent
            && Queue.is_empty w.pending
          in
          let finished () = w.eof_sent && Queue.is_empty w.pending in
          while
            c.failure = None && w.st <> Dead
            && not (can_data () || can_eof () || finished ())
          do
            Condition.wait c.cv c.mu
          done;
          if c.failure <> None || w.st = Dead then `Stop
          else if can_data () then begin
            let was_full = Queue.length w.pending >= c.init_credits in
            let k = min (min w.credits c.batch) (Queue.length w.pending) in
            let rs =
              List.init k (fun _ ->
                  let r = Queue.pop w.pending in
                  Queue.push r w.inflight;
                  r)
            in
            w.credits <- w.credits - k;
            let eof = w.eof_requested && Queue.is_empty w.pending in
            if eof then w.eof_sent <- true;
            (* Producers park only on a full pending window, so only
               a pop from a full one can release them. *)
            if was_full then Condition.broadcast c.cv;
            `Send (w.conn, rs, eof)
          end
          else if can_eof () then begin
            w.eof_sent <- true;
            `Send (w.conn, [], true)
          end
          else `Stop (* finished *))
    in
    match action with
    | `Stop -> ()
    | `Send (conn, rs, eof) ->
        let k = List.length rs in
        if k > 0 then Obsv.Probe.edge_batch ~name:(edge_in i) ~size:k;
        let msgs =
          Proto.data_msgs ~ctx ~batch:c.batch rs
          @ (if eof then [ Proto.encode Proto.Eof ] else [])
        in
        (try Transport.send_many conn msgs
         with _ -> () (* the worker's reader will observe the death *));
        loop ()
  in
  loop ()

(* Respawn partition [i] and hand the replacement what its
   predecessor left uncredited: [prefix] first (a migration's
   [Restore]), then the in-flight records above the watermark, then
   Eof iff one was already on the old wire — an Eof merely requested
   stays with the pump, which sends it once pending drains on the
   fresh connection. In-flight records at or below the watermark are
   dropped: their outputs came back before the swap, so the old worker
   provably processed them and only the credit was lost; resending
   them would deliver their outputs a second time (the crash_flush
   window). Credits restart at the window minus the resend. [None]
   when no replacement could be spawned. *)
let respawn_and_resend c i ~prefix =
  match c.respawn i with
  | None -> None
  | Some conn ->
      let w = c.ws.(i) in
      let resend, resend_eof =
        locked c (fun () ->
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
            (keep, w.eof_sent))
      in
      (* A replacement that dies at once is found by its reader. *)
      (try
         Transport.send_many conn
           (prefix
           @ Proto.data_msgs ~ctx:(Wire.ctx ()) ~batch:c.batch resend
           @ if resend_eof then [ Proto.encode Proto.Eof ] else [])
       with _ -> ());
      Some conn

(* Route a batch of worker [i]'s outputs on to the next stage, under
   one watermark update for the whole batch: this reader routes the
   batch in full before it can act on the worker's death, so a
   respawn never trusts the watermark for outputs that were not
   delivered. *)
let forward c i rs =
  let w = c.ws.(i) in
  let top =
    List.fold_left
      (fun m r ->
        match Snet.Record.tag seq_tag r with Some s -> max m s | None -> m)
      (-1) rs
  in
  if top >= 0 then
    locked c (fun () -> if top > w.watermark then w.watermark <- top);
  List.iter
    (fun r ->
      Obsv.Probe.edge_recv ~name:(edge_out i) ~depth:(Queue.length w.inflight);
      if Obsv.Sink.events_on () then
        match Snet.Record.tag Obsv.Probe.trace_tag r with
        | Some t ->
            Obsv.Probe.flow_end ~cat:"dist" ~name:"rec"
              ~id:((t * 1024) + (2 * i) + 1)
        | None -> ())
    rs;
  route c (c.stage_of.(i) + 1) rs

let rec reader c i conn =
  let w = c.ws.(i) in
  match Transport.recv conn with
  | `Closed ->
      let was_done = locked c (fun () -> w.done_) in
      if not was_done then death c i conn "connection closed"
  | `Msg m -> (
      match Proto.decode m with
      | Ok (Proto.Data r) ->
          forward c i [ r ];
          reader c i conn
      | Ok (Proto.Data_batch rs) ->
          Obsv.Probe.edge_batch ~name:(edge_out i) ~size:(List.length rs);
          forward c i rs;
          reader c i conn
      | Ok (Proto.Credit n) ->
          locked c (fun () ->
              w.credits <- w.credits + n;
              for _ = 1 to min n (Queue.length w.inflight) do
                ignore (Queue.pop w.inflight)
              done;
              Condition.broadcast c.cv);
          reader c i conn
      | Ok Proto.Done ->
          let propagate =
            locked c (fun () ->
                w.done_ <- true;
                Condition.broadcast c.cv;
                stage_finished c c.stage_of.(i))
          in
          if propagate then finish_stage c (c.stage_of.(i) + 1)
      | Ok (Proto.Crash msg) -> death c i conn msg
      | Ok (Proto.Freeze_ack { state }) ->
          (* Rendezvous with the migrating thread, which respawns the
             partition and spawns a fresh reader on the new
             connection — this reader's work is over. *)
          let accepted =
            locked c (fun () ->
                if w.st = Migrating then begin
                  w.freeze_state <- Some state;
                  Condition.broadcast c.cv;
                  true
                end
                else false)
          in
          if not accepted then reader c i conn
      | Ok (Proto.Hello_ack _) -> reader c i conn
      | Ok (Proto.Metrics_report { payload; _ }) ->
          (match c.collector with
          | Some col -> (
              match Obsv.Agg.decode_report payload with
              | Ok rep ->
                  Obsv.Agg.note_report col rep;
                  (* Pair the report with the coordinator-side view of
                     this partition's cut edge. *)
                  let queue, credits =
                    locked c (fun () ->
                        ( Queue.length w.pending + Queue.length w.inflight,
                          w.credits ))
                  in
                  Obsv.Agg.note_gauges col ~part:i ~queue ~credits
                    ~window:c.init_credits
              | Error _ -> ())
          | None -> ());
          reader c i conn
      | Ok (Proto.Trace_chunk { payload; _ }) ->
          (match c.collector with
          | Some col -> (
              match Obsv.Agg.decode_chunk payload with
              | Ok ch -> Obsv.Agg.note_chunk col ch
              | Error _ -> ())
          | None -> ());
          reader c i conn
      | Ok
          (Proto.Hello _ | Proto.Eof | Proto.Shutdown | Proto.Open_session _
          | Proto.Session_ack _ | Proto.Close_session _ | Proto.Migrate
          | Proto.Restore _) ->
          reader c i conn
      | Error e -> death c i conn ("protocol error: " ^ e))

(* A worker failure seen by the reader. During a migration freeze the
   migrating thread owns recovery: flag the failed freeze and get out
   of its way; otherwise the usual crash path. *)
and death c i conn reason =
  let w = c.ws.(i) in
  let freeze_racing =
    locked c (fun () ->
        if w.st = Migrating && w.freeze_state = None && not w.freeze_failed
        then begin
          w.freeze_failed <- true;
          Condition.broadcast c.cv;
          true
        end
        else false)
  in
  if freeze_racing then Transport.close conn
  else handle_death c i conn reason

and handle_death c i conn reason =
  Transport.close conn;
  let w = c.ws.(i) in
  let retrying =
    locked c (fun () ->
        if w.retries_left > 0 then begin
          w.retries_left <- w.retries_left - 1;
          w.st <- Respawning;
          Condition.broadcast c.cv;
          true
        end
        else false)
  in
  if not retrying then give_up c i reason
  else
    match respawn_and_resend c i ~prefix:[] with
    | None -> give_up c i reason
    | Some conn' ->
        locked c (fun () ->
            if w.st = Respawning then w.st <- Alive;
            Condition.broadcast c.cv);
        reader c i conn'

(* ------------------------------------------------------------------ *)
(* Live migration: drain — freeze — respawn — resend                   *)

(* Move partition [i] onto a fresh worker while the run is live:

   1. mark the partition [Migrating]: its pump parks, producers keep
      enqueueing (bounded by the credit window);
   2. send [Migrate]; the worker finishes what it already received,
      flushes outputs and credits, captures its engine state and
      answers [Freeze_ack] — after which its inflight window is empty
      (every envelope was credited before the ack, FIFO);
   3. respawn via the run's respawn hook, seed the new worker with
      [Restore], resend any uncredited inflight above the watermark
      (belt and braces — empty after a clean freeze), and mark the
      partition [Alive] so the pump resumes.

   A worker that dies mid-freeze falls back to the ordinary crash
   path (respawn without Restore under the retry budget), with the
   same exactly-once guarantees as any other death. Returns the
   downtime in seconds: freeze request to pump release. *)
let coord_migrate c i =
  if i < 0 || i >= c.parts then
    Error (Printf.sprintf "partition %d out of range (parts=%d)" i c.parts)
  else begin
    let w = c.ws.(i) in
    let started =
      locked c (fun () ->
          if c.closed then Error "run already finished"
          else if c.failure <> None then Error "run already failed"
          else if w.done_ then Error "partition already done"
          else if w.eof_sent then Error "partition already at end of stream"
          else if w.st <> Alive then Error "worker not alive"
          else begin
            w.st <- Migrating;
            w.freeze_state <- None;
            w.freeze_failed <- false;
            Condition.broadcast c.cv;
            Ok w.conn
          end)
    in
    match started with
    | Error _ as e -> e
    | Ok old_conn -> (
        let t0 = Unix.gettimeofday () in
        (try Transport.send old_conn (Proto.encode Proto.Migrate)
         with _ -> () (* the reader will observe the death *));
        let state =
          locked c (fun () ->
              while
                w.st = Migrating && w.freeze_state = None
                && not w.freeze_failed && c.failure = None
              do
                Condition.wait c.cv c.mu
              done;
              w.freeze_state)
        in
        match state with
        | None ->
            if c.failure = None && w.freeze_failed then begin
              (* Mid-freeze death: ordinary crash recovery, in its own
                 thread — handle_death becomes the new reader. *)
              let t =
                Thread.create
                  (fun () ->
                    handle_death c i old_conn "worker died during freeze")
                  ()
              in
              locked c (fun () -> c.aux <- t :: c.aux);
              Error "worker died during freeze; crash recovery engaged"
            end
            else begin
              locked c (fun () ->
                  if w.st = Migrating then w.st <- Alive;
                  Condition.broadcast c.cv);
              Error "run failed during migration"
            end
        | Some state -> (
            Transport.close old_conn;
            let prefix =
              match Statecodec.decode state with
              | Ok st when Snet.Netstate.is_empty st ->
                  (* A pristine capture: skip the frame so the fresh
                     worker's path equals a cold start. *)
                  []
              | _ -> [ Proto.encode (Proto.Restore { state }) ]
            in
            match respawn_and_resend c i ~prefix with
            | None ->
                give_up c i "respawn failed during migration";
                Error "could not spawn a replacement worker"
            | Some conn' ->
                let t = Thread.create (fun () -> reader c i conn') () in
                let downtime =
                  locked c (fun () ->
                      c.aux <- t :: c.aux;
                      if w.st = Migrating then w.st <- Alive;
                      w.migrations <- w.migrations + 1;
                      Condition.broadcast c.cv;
                      Unix.gettimeofday () -. t0)
                in
                (match c.collector with
                | Some col -> Obsv.Agg.note_migration col ~part:i ~downtime
                | None -> ());
                Ok downtime))
  end

(* ------------------------------------------------------------------ *)
(* Run handle: the balancer's window into a live run                   *)

type handle = { h_coord : coord; h_plan : Plan.t }

let migrate h i = coord_migrate h.h_coord i
let handle_parts h = h.h_coord.parts
let handle_plan h = h.h_plan

let handle_finished h =
  locked h.h_coord (fun () ->
      h.h_coord.closed || h.h_coord.failure <> None)

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
   hand back a freshly greeted connection. *)
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
      mu = Mutex.create ();
      cv = Condition.create ();
      ws =
        Array.mapi
          (fun i conn ->
            {
              idx = i;
              conn;
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
              freeze_state = None;
              freeze_failed = false;
              migrations = 0;
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
      aux = [];
      closed = false;
    }
  in
  (match c.collector with
  | Some col ->
      Array.iteri
        (fun i _ -> Obsv.Agg.note_place col ~part:i ~place:(place_of ~plan i))
        c.ws
  | None -> ());
  let readers =
    Array.to_list
      (Array.map
         (fun w -> Thread.create (fun () -> reader c w.idx w.conn) ())
         c.ws)
  in
  let pumps =
    Array.to_list
      (Array.map (fun w -> Thread.create (fun () -> pump c w.idx) ()) c.ws)
  in
  (match on_handle with
  | Some f -> f { h_coord = c; h_plan = plan }
  | None -> ());
  List.iter
    (fun r ->
      let stop = locked c (fun () -> c.failure <> None) in
      if not stop then route c 0 [ r ])
    inputs;
  finish_stage c 0;
  locked c (fun () ->
      while
        c.failure = None
        && not (Array.for_all (fun w -> w.done_ || w.st = Dead) c.ws)
      do
        Condition.wait c.cv c.mu
      done);
  locked c (fun () -> c.closed <- true);
  List.iter Thread.join pumps;
  Array.iter
    (fun w -> if w.st = Alive then attempt_send w.conn Proto.Shutdown)
    c.ws;
  Array.iter (fun w -> Transport.close w.conn) c.ws;
  List.iter Thread.join readers;
  List.iter Thread.join (locked c (fun () -> c.aux));
  (* Final gauge sweep: every partition's health row reflects the edge
     state at the end of the run, even if it never sent a report. *)
  (match c.collector with
  | Some col ->
      Array.iter
        (fun w ->
          let queue, credits =
            locked c (fun () ->
                (Queue.length w.pending + Queue.length w.inflight, w.credits))
          in
          Obsv.Agg.note_gauges col ~part:w.idx ~queue ~credits
            ~window:c.init_credits)
        c.ws
  | None -> ());
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
    let pid =
      Unix.create_process worker_exe argv Unix.stdin Unix.stdout Unix.stderr
    in
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
