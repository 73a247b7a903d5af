(* The coordinator's transitions, with no I/O: routing, sequence
   stamps, credits, watermarks, respawns and migrations. [step c ~now
   ev] applies one event and returns the actions it implies, in order.
   A driver owns the connections: it turns what arrives into events,
   carries out the actions — a [Respawn] at once, stepping its
   [Respawned] before any other event — and ends each turn by stepping
   [Feed] until it returns no action. Outputs collect here; [finish]
   returns them. Engine_dist is the threaded driver; the tests drive
   modelled workers. *)

type event =
  | Frame of { part : int; gen : int; msg : (Proto.msg, string) result }
      (* A decoded frame from generation [gen] of [part]'s connection. *)
  | Closed of { part : int; gen : int }
  | Migrate of { id : int; part : int }
      (* Request [id] to move [part] (in range) onto a fresh worker. *)
  | Respawned of { part : int; ok : bool }
      (* A [Respawn]'s outcome: [ok] once the replacement is greeted
         and its connection is generation [gen c part]. *)
  | Feed
      (* The turn is over: route inputs, resume held sources and write;
         repeated until it returns no action. *)

type action =
  | Send of int * Proto.msg list  (* one transport write *)
  | Close of int
  | Respawn of int
  | Answer of int * (float, string) result  (* to migrate request [id] *)

(* The sequence stamp every record carries on a cut edge; outputs
   inherit it, which gives each worker the watermark a respawn resends
   above (see "Exactly-once resend" in engine_dist.mli). *)
let seq_tag = "dist_seq"

(* Mutation hook for the schedule-exploration tests: resend the whole
   in-flight window, ignoring the watermark. Never set outside tests. *)
let resend_all = ref false

type wst =
  | Alive
  | Migrating  (* frozen: nothing is written, routing still queues *)
  | Respawning of respawn
  | Dead

(* Why a replacement is being spawned: a death (and its reason, for
   [give_up] if none comes), or a freeze (and the captured state). *)
and respawn = After_death of string | After_freeze of string

type wstate = {
  idx : int;
  ein : string;  (* the cut edges into and out of this partition *)
  eout : string;
  (* Bumped when a death or migration retires the connection: what a
     retired connection still delivers is dropped. *)
  mutable gen : int;
  mutable st : wst;
  mutable done_ : bool;
  (* End-of-stream is two-phase: [eof_requested] once upstream is
     exhausted, [eof_sent] once [pending] has drained. An Eof needs NO
     credit, so a full window can never hold it back. *)
  mutable eof_requested : bool;
  mutable eof_sent : bool;
  mutable credits : int;
  (* Routed but not yet written, at most a window of them; written but
     not yet credited (resent on respawn). *)
  pending : Snet.Record.t Queue.t;
  inflight : Snet.Record.t Queue.t;
  (* Highest [seq_tag] seen on this worker's outputs: [inflight] at or
     below it was processed, only the credit lost; never resent. *)
  mutable watermark : int;
  mutable retries_left : int;
  (* This worker's outputs that met a full window downstream, as
     (partition, records) groups. While any are held, its later events
     wait in [stash], credits and close included. *)
  mutable held : (int * Snet.Record.t list) list;
  stash : event Queue.t;
  (* The open migration: its request id, and since when. *)
  mutable freeze : (int * float) option;
}

(* One pipeline stage of the placement plan, in routing form: the
   stage owns partitions [r_base .. r_base + r_width - 1]; [r_tag] is
   the split tag a sharded stage routes on. *)
type stage_route = { r_base : int; r_width : int; r_tag : string option }

type t = {
  ws : wstate array;
  policy : Snet.Supervise.policy;
  stats : Snet.Stats.t option;
  init_credits : int;
  batch : int;
  (* Sees every record entering a cut edge or reaching [out_edge]. *)
  tap : (edge:string -> Snet.Record.t -> unit) option;
  collector : Obsv.Agg.collector option;
  (* [stage_of.(i)] is the stage partition [i] belongs to. *)
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
  (* The actions of the current step, newest first. *)
  mutable acts : action list;
}

let out_edge = "dist:out"
let worker_name i = Printf.sprintf "dist:worker%d" i
let emit c a = c.acts <- a :: c.acts

let rec segments = function
  | Snet.Net.Serial (a, b) -> segments a @ segments b
  | other -> [ other ]

(* Routing form of a plan against the network it cuts: resolves each
   shard stage's split tag, rejecting stages that shard anything but a
   nondeterministic parallel replication. *)
let routes_of ~plan net =
  let segs = Array.of_list (segments net) in
  Array.mapi
    (fun si st ->
      let r_base = Plan.base plan si in
      match st with
      | Plan.Run _ -> { r_base; r_width = 1; r_tag = None }
      | Plan.Shard { seg; shards } -> (
          match Snet.Net.unplace segs.(seg) with
          | Snet.Net.Split { tag; det = false; _ } ->
              { r_base; r_width = shards; r_tag = Some tag }
          | Snet.Net.Split { det = true; _ } ->
              Printf.ksprintf invalid_arg
                "Engine_dist: plan stage %d shards a deterministic split \
                 (!), which would break its causal merge order" si
          | _ ->
              Printf.ksprintf invalid_arg
                "Engine_dist: plan stage %d shards segment %d, which is not \
                 a parallel replication (!!)" si seg))
    plan

let create ?tap ?collector ?stats ~policy ~credits ~batch ~routes inputs =
  let parts = Array.fold_left (fun n r -> n + r.r_width) 0 routes in
  let stage_of = Array.make parts 0 in
  Array.iteri (fun s r -> Array.fill stage_of r.r_base r.r_width s) routes;
  let wstate i =
    {
      idx = i;
      ein = Printf.sprintf "dist:w%d.in" i;
      eout = Printf.sprintf "dist:w%d.out" i;
      gen = 0;
      st = Alive;
      done_ = false;
      eof_requested = false;
      eof_sent = false;
      credits;
      pending = Queue.create ();
      inflight = Queue.create ();
      watermark = -1;
      retries_left = (match policy with Snet.Supervise.Retry n -> n | _ -> 0);
      held = [];
      stash = Queue.create ();
      freeze = None;
    }
  in
  {
    ws = Array.init parts wstate;
    policy;
    stats;
    init_credits = credits;
    batch;
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
    acts = [];
  }

let gen c i = c.ws.(i).gen
let failure c = c.failure

(* By match, not [=]: [wst] is not an immediate type. *)
let dead w = match w.st with Dead -> true | _ -> false
let alive w = match w.st with Alive -> true | _ -> false

let finished c =
  c.failure <> None || Array.for_all (fun w -> w.done_ || dead w) c.ws

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

(* The coordinator's view of [w]'s cut edge, for the collector. *)
let gauges c col w =
  Obsv.Agg.note_gauges col ~part:w.idx
    ~queue:(Queue.length w.pending + Queue.length w.inflight)
    ~credits:w.credits ~window:c.init_credits

let full c w =
  c.failure = None && (not (dead w))
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
    | Alive | Migrating | Respawning _ ->
        (* Trace ingress: a record forwarded from upstream keeps its
           trace id, which links its spans across workers. *)
        let r =
          if
            Obsv.Sink.events_on ()
            && Snet.Record.tag Obsv.Probe.trace_tag r = None
          then
            Snet.Record.with_tag Obsv.Probe.trace_tag
              (Obsv.Probe.fresh_trace ()) r
          else r
        in
        (* Queue order is stamp order, and [write] keeps it on the
           wire: the watermark needs per-worker monotonicity. *)
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

(* Route a batch into stage [s] (the stage count is the global
   output), each destination's records as one ordered group, and
   return what must be held. Error records bypass the remaining
   stages. A shard group hashes the split tag, so equal values reach
   the same replica; a record without it goes to shard 0, whose split
   node reports it as a single-process engine would. *)
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

(* Everything upstream of stage [s] is delivered: request its Eofs. A
   stage whose partitions are all dead passes the marker on. *)
let rec finish_stage c s =
  if s < Array.length c.stages then begin
    let members = stage_members c s in
    List.iter (fun w -> w.eof_requested <- true) members;
    if List.for_all dead members then finish_stage c (s + 1)
  end

(* Partition [i] is done or dead: once its whole stage is, with its Eof
   requested, the next stage's Eof is due. *)
let settled c i =
  if
    List.for_all
      (fun w -> w.eof_requested && (w.done_ || dead w))
      (stage_members c c.stage_of.(i))
  then finish_stage c (c.stage_of.(i) + 1)

let give_up c i reason =
  Option.iter (fun col -> Obsv.Agg.note_death col ~part:i ~reason) c.collector;
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
  settled c i

(* Write to partition [w] what its window allows — envelopes of up to
   [min credits batch] pending records, then the Eof once pending has
   drained — as one [Send]; an idle edge sends a lone record at once. *)
let write c w =
  if c.failure = None && alive w then begin
    let msgs = ref [] in
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
      msgs := (match rs with [ r ] -> Proto.Data r | _ -> Proto.Data_batch rs) :: !msgs
    done;
    if w.eof_requested && (not w.eof_sent) && Queue.is_empty w.pending then begin
      w.eof_sent <- true;
      msgs := Proto.Eof :: !msgs
    end;
    if !msgs <> [] then emit c (Send (w.idx, List.rev !msgs))
  end

(* Close [w]'s connection; whatever it still delivers is dropped. *)
let retire c w =
  emit c (Close w.idx);
  w.gen <- w.gen + 1

(* Hand a replacement what its predecessor left uncredited: [prefix]
   (a migration's [Restore]), the in-flight records above the
   watermark — those at or below it were processed, and resending them
   would deliver their outputs twice — and the Eof iff the old wire
   had one. Credits restart at the window minus the resend. *)
let resend c w ~prefix =
  let keep =
    List.rev
      (Queue.fold
         (fun acc r ->
           match Snet.Record.tag seq_tag r with
           | Some s when s <= w.watermark && not !resend_all -> acc
           | _ -> r :: acc)
         [] w.inflight)
  in
  Queue.clear w.inflight;
  List.iter (fun r -> Queue.push r w.inflight) keep;
  w.credits <- c.init_credits - Queue.length w.inflight;
  w.st <- Alive;
  emit c
    (Send
       ( w.idx,
         prefix
         @ Proto.chunk ~batch:c.batch keep
         @ if w.eof_sent then [ Proto.Eof ] else [] ))

(* A worker failure: a death mid-freeze fails the migration; then
   respawn under the retry budget, else [give_up]. *)
let death c i reason =
  let w = c.ws.(i) in
  let reason =
    match w.freeze with
    | Some (id, _) ->
        w.freeze <- None;
        emit c
          (Answer (id, Error "worker died during freeze; crash recovery engaged"));
        "worker died during freeze"
    | None -> reason
  in
  retire c w;
  let budget = w.retries_left in
  w.retries_left <- max 0 (budget - 1);
  if budget > 0 then begin
    w.st <- Respawning (After_death reason);
    emit c (Respawn i)
  end
  else give_up c i reason

(* Live migration (see engine_dist.mli): freeze — [Migrating], nothing
   written, routing still queues; on the [Freeze_ack] retire and
   respawn; once the replacement is up, [Restore] and resend as after
   a death. The answer is the downtime: freeze request to alive. *)
let start_migration c ~now id i =
  let w = c.ws.(i) and refuse e = emit c (Answer (id, Error e)) in
  if c.failure <> None then refuse "run already failed"
  else if w.done_ then refuse "partition already done"
  else if w.eof_sent then refuse "partition already at end of stream"
  else if not (alive w) then refuse "worker not alive"
  else begin
    w.st <- Migrating;
    w.freeze <- Some (id, now);
    emit c (Send (i, [ Proto.Migrate ]))
  end

let end_migration c i state =
  let w = c.ws.(i) in
  if w.freeze <> None then begin
    retire c w;
    w.st <- Respawning (After_freeze state);
    emit c (Respawn i)
  end

let respawned c ~now i ok =
  let w = c.ws.(i) in
  match (w.st, w.freeze) with
  | Respawning (After_death _), _ when ok -> resend c w ~prefix:[]
  | Respawning (After_death reason), _ -> give_up c i reason
  | Respawning (After_freeze state), Some (id, t0) when ok ->
      w.freeze <- None;
      (* A pristine capture needs no Restore: a cold start is the same. *)
      let pristine =
        Result.fold ~ok:Snet.Netstate.is_empty ~error:(fun _ -> false)
          (Statecodec.decode state)
      in
      resend c w ~prefix:(if pristine then [] else [ Proto.Restore { state } ]);
      let downtime = now -. t0 in
      Option.iter (fun col -> Obsv.Agg.note_migration col ~part:i ~downtime) c.collector;
      emit c (Answer (id, Ok downtime))
  | Respawning (After_freeze _), Some (id, _) ->
      w.freeze <- None;
      give_up c i "respawn failed during migration";
      emit c (Answer (id, Error "could not spawn a replacement worker"))
  | _ -> ()

(* Route worker [i]'s output batch on, under one watermark update. Its
   later events, its death included, wait until the batch is routed
   in full, so a respawn never trusts the watermark for outputs that
   were not delivered. *)
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

let on_conn c ev =
  match ev with
  | (Frame { part = i; gen; _ } | Closed { part = i; gen })
    when gen <> c.ws.(i).gen ->
      ()
  | (Frame { part = i; _ } | Closed { part = i; _ }) when c.ws.(i).held <> [] ->
      Queue.push ev c.ws.(i).stash
  | Closed { part = i; _ } -> if not c.ws.(i).done_ then death c i "connection closed"
  | Frame { part = i; msg; _ } -> (
      let w = c.ws.(i) in
      match msg with
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
                  gauges c col w)
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
          | Proto.Open_session _ | Proto.Session_ack _ | Proto.Close_session _
          | Proto.Migrate | Proto.Restore _ ) ->
          ()
      | Error e -> death c i ("protocol error: " ^ e))
  | Migrate _ | Respawned _ | Feed -> ()

(* Once the window holding worker [w]'s outputs has room, push what
   fits, then replay its stashed events until it is held again. *)
let resume c w =
  match w.held with
  | (j, _) :: _ when not (full c c.ws.(j)) ->
      w.held <- push_groups c w.held;
      while w.held = [] && not (Queue.is_empty w.stash) do
        on_conn c (Queue.pop w.stash)
      done
  | _ -> ()

(* Route inputs into stage 0 while its windows have room, then its
   end of stream. *)
let feed c =
  (match c.feed_held with
  | (j, _) :: _ when not (full c c.ws.(j)) ->
      c.feed_held <- push_groups c c.feed_held
  | _ -> ());
  let rec go () =
    match c.inputs with
    | r :: rest when c.failure = None && c.feed_held = [] ->
        c.inputs <- rest;
        c.feed_held <- route c 0 [ r ];
        go ()
    | _ -> ()
  in
  go ();
  if c.feed_held = [] && c.inputs = [] && not c.fed then begin
    c.fed <- true;
    finish_stage c 0
  end

let take_acts c =
  let acts = List.rev c.acts in
  c.acts <- [];
  acts

(* [Feed] is one pass: feed, resume held sources, write. A pass that
   returns no action left nothing to move — only a write frees room,
   and every write is a [Send] — so a driver repeats it until then,
   and its writes leave between passes. *)
let step c ~now ev =
  (match ev with
  | Frame _ | Closed _ -> on_conn c ev
  | Migrate { id; part } -> start_migration c ~now id part
  | Respawned { part; ok } -> respawned c ~now part ok
  | Feed ->
      feed c;
      Array.iter (resume c) c.ws;
      Array.iter (write c) c.ws);
  take_acts c

(* The run is over: shut down the partitions still alive and close
   every connection. *)
let stop c =
  Array.iter
    (fun w ->
      if alive w then emit c (Send (w.idx, [ Proto.Shutdown ]));
      emit c (Close w.idx))
    c.ws;
  take_acts c

(* The outputs, or the failure; a collector first gets every
   partition's edge state as the run ends, reported or not. *)
let finish c =
  Option.iter (fun col -> Array.iter (gauges c col) c.ws) c.collector;
  match c.failure with Some msg -> Error msg | None -> Ok (List.rev c.outputs_rev)
