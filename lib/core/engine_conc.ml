type observer = edge:string -> Record.t -> unit

(* Messages between component actors. [Data] carries the record plus
   deterministic-merge metadata; [Complete seq] tells a collector that
   sequence number [seq] has drained (see {!Detmerge}). *)
type amsg =
  | Data of Detmerge.meta * Record.t
  | Complete of int

(* Where a component sends its outputs. Boxes, filters, syncs and
   collectors are actors: the record is queued in a mailbox and handled
   by a pool task. Choice and split dispatchers, star taps and
   [Observe] wrappers only route records, so they are inline routes
   that run on the sending thread; a record crossing one pays no
   mailbox, pool task or spawn. An exception a route raises escapes
   its sender's handler, which {!Streams.Actors} records for [finish]
   to re-raise. *)
type target =
  | Actor of amsg Streams.Actors.t
  | Route of (Detmerge.meta -> Record.t -> unit)

let send target meta r =
  match target with
  | Actor a -> Streams.Actors.send a (Data (meta, r))
  | Route f -> f meta r

type instance = {
  sys : Streams.Actors.system;
  istats : Stats.t;
  (* The compiled network's per-instance state: node stats, restore
     input and the capture registry. *)
  node : Node.ctx;
  imutex : Mutex.t;
  mutable regions : Detmerge.region list;
  (* Outputs since the last [finish], newest first; stays empty under
     [on_output]. *)
  mutable results : Record.t list;
  mutable next_input : int;
  mutable next_region_id : int;
  mutable stalls_seen : int;
  mutable entry : amsg Streams.Actors.t option;
  net : Net.t;
  (* One byte per interned shape id, set once the shape passed
     admission via Typecheck.flow. *)
  checked : Bytes.t;
}

let new_region eng =
  Mutex.lock eng.imutex;
  let id = eng.next_region_id in
  eng.next_region_id <- id + 1;
  let r = Detmerge.create_region ~id in
  eng.regions <- r :: eng.regions;
  Mutex.unlock eng.imutex;
  r

(* The collector actor of a deterministic region: buffers descendants,
   releases complete sequence numbers in order. *)
let make_collector eng ~name region ~down =
  let release entries =
    List.iter (fun (meta, record) -> send down meta record) entries
  in
  let handler = function
    | Complete s -> release (Detmerge.collector_complete region s)
    | Data (meta, record) ->
        release (Detmerge.collector_data region meta record)
  in
  let col = Streams.Actors.spawn eng.sys ~name handler in
  Detmerge.set_notify region (fun seq ->
      Streams.Actors.send col (Complete seq));
  Actor col

let stray path =
  failwith (Printf.sprintf "Engine_conc(%s): stray Complete" path)

(* The network's nodes hosted as actors and inline routes. A leaf
   turns one record into [n]: account every enclosing deterministic
   region before forwarding, each output on its own causal line (a
   stored sync record, [n = 0], leaves its line). A deterministic
   combinator's entry stamps every record it admits and its branches
   merge into the region's collector. *)
let host eng : (target, Detmerge.meta) Node.host =
  {
    Node.leaf =
      (fun path step ~down ->
        Actor
          (Streams.Actors.spawn eng.sys ~name:path (function
            | Complete _ -> stray path
            | Data (meta, r) ->
                let outs = step r in
                Detmerge.account meta (List.length outs);
                List.iteri
                  (fun i out -> send down (Detmerge.child_meta meta i) out)
                  outs)));
    route = (fun f -> Route f);
    send;
    merge =
      (fun name ~det ~down ->
        if det then
          let rg = new_region eng in
          (Detmerge.stamp rg, make_collector eng ~name rg ~down)
        else (Fun.id, down));
  }

let start ?pool ?exec ?batch ?mailbox ?observer ?on_output ?stats ?supervision
    ?(restore = Netstate.empty) net =
  let net =
    match supervision with
    | Some config -> Net.with_supervision config net
    | None -> net
  in
  let sys = Streams.Actors.system ?pool ?exec ?batch ?mailbox () in
  let istats = match stats with Some s -> s | None -> Stats.create () in
  let eng =
    {
      sys;
      istats;
      node = Node.create ?observer ~restore istats;
      imutex = Mutex.create ();
      regions = [];
      results = [];
      next_input = 0;
      next_region_id = 0;
      stalls_seen = 0;
      entry = None;
      net;
      checked = Bytes.make Record.Shape.cap '\000';
    }
  in
  let results_actor =
    Streams.Actors.spawn sys ~name:"/output" (function
      | Complete _ -> stray "/output"
      | Data (meta, r) ->
          if meta.Detmerge.tokens <> [] then
            failwith "Engine_conc(output): unclosed deterministic region";
          (* Streaming tap: long-running consumers (snet_serve) see
             each record as it reaches the global output, without
             waiting for quiescence, and nothing is retained for
             [finish]. Runs on the output actor, so it must not block
             for long. *)
          match on_output with
          | Some f -> f r
          | None ->
              Mutex.lock eng.imutex;
              eng.results <- r :: eng.results;
              Mutex.unlock eng.imutex)
  in
  let entry =
    match Node.build eng.node (host eng) net ~down:(Actor results_actor) with
    | Actor a -> a
    | Route f ->
        (* A routing root still gets one entry actor: [feed] only
           enqueues, and a [Route_error] surfaces from [finish]. *)
        Streams.Actors.spawn sys ~name:"/entry" (function
          | Complete _ -> stray "/entry"
          | Data (meta, r) -> f meta r)
  in
  eng.entry <- Some entry;
  eng

let feed eng r =
  (* Admission check, once per interned input shape (every feed for a
     private one, which has no id to remember). A shape is marked
     checked only after [Typecheck.flow] accepts it, so a rejected
     variant stays rejected on every later feed. *)
  let id = Record.Shape.id (Record.shape r) in
  Mutex.lock eng.imutex;
  if id < 0 || Bytes.get eng.checked id = '\000' then begin
    Mutex.unlock eng.imutex;
    ignore (Typecheck.flow [ Rectype.Variant.of_record r ] eng.net);
    Mutex.lock eng.imutex;
    if id >= 0 then Bytes.set eng.checked id '\001'
  end;
  let i = eng.next_input in
  eng.next_input <- i + 1;
  Mutex.unlock eng.imutex;
  let entry =
    match eng.entry with
    | Some e -> e
    | None -> failwith "Engine_conc: engine not initialised"
  in
  Streams.Actors.send entry (Data (Detmerge.root_meta i, r))

(* Attribute this system's producer stalls (bounded-mailbox
   backpressure) to the run's stats. The system is private to this
   instance; repeated [finish]es record the delta since the last. *)
let bridge_stalls eng =
  let stalls = Streams.Actors.stalls eng.sys in
  Mutex.lock eng.imutex;
  let prior = eng.stalls_seen in
  eng.stalls_seen <- stalls;
  Mutex.unlock eng.imutex;
  Stats.record_backpressure eng.istats (stalls - prior)

let finish eng =
  Fun.protect ~finally:(fun () -> bridge_stalls eng) @@ fun () ->
  Streams.Actors.await_quiescence eng.sys;
  (* Sanity: a quiescent network must have drained every deterministic
     collector. *)
  Mutex.lock eng.imutex;
  let regions = eng.regions in
  let results = List.rev eng.results in
  eng.results <- [];
  Mutex.unlock eng.imutex;
  List.iter
    (fun r ->
      if Detmerge.buffered r > 0 then
        failwith
          (Printf.sprintf
             "Engine_conc: deterministic region %d still buffers records after quiescence"
             (Detmerge.region_id r)))
    regions;
  results

let stats eng = Stats.snapshot eng.istats

(* Only sound at quiescence: see {!Node.capture}. *)
let capture eng = Node.capture eng.node

let run ?pool ?exec ?batch ?mailbox ?observer ?stats ?supervision net inputs =
  let eng = start ?pool ?exec ?batch ?mailbox ?observer ?stats ?supervision net in
  (* Attribute the pool's scheduler activity over this run (tasks,
     steals, parks, splits) to the run's stats. The pool may be shared,
     so this is a delta of its monotonic counters, not an absolute.
     Under a substituted executor there is no pool to attribute. *)
  match Streams.Actors.pool eng.sys with
  | None ->
      List.iter (feed eng) inputs;
      finish eng
  | Some p ->
      let before = Scheduler.Pool.stats p in
      List.iter (feed eng) inputs;
      let results = finish eng in
      let after = Scheduler.Pool.stats p in
      Stats.record_scheduler eng.istats
        ~tasks:(after.Scheduler.Pool.tasks - before.Scheduler.Pool.tasks)
        ~steals:(after.Scheduler.Pool.steals - before.Scheduler.Pool.steals)
        ~parks:(after.Scheduler.Pool.parks - before.Scheduler.Pool.parks)
        ~splits:(after.Scheduler.Pool.splits - before.Scheduler.Pool.splits);
      results
