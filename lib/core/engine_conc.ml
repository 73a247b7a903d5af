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

module Int_map = Map.Make (Int)

(* Lazy unfolding under concurrent senders: [find] reads what has been
   published without a lock; a miss takes [lock], looks again and
   calls [build], which publishes. So each entry is built exactly once.
   [build] only spawns actors and never sends, so no send happens while
   [lock] is held. *)
let find_or_build lock ~find ~build =
  match find () with
  | Some t -> t
  | None ->
      Mutex.protect lock (fun () ->
          match find () with Some t -> t | None -> build ())

type instance = {
  sys : Streams.Actors.system;
  istats : Stats.t;
  observer : observer option;
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
  (* Prior run state replayed into components as they build; lazily
     built star stages / split replicas consult it too (build runs
     inside actor handlers then), so restored unfolding re-creates the
     sync cells nested inside. The cap_* getters snapshot component
     state; they read actor-private storage, so {!capture} is only
     sound at quiescence. *)
  restore : Netstate.t;
  mutable cap_syncs : (string * (unit -> Netstate.sync_cell)) list;
  mutable cap_splits : (string * (unit -> int list)) list;
  mutable cap_stars : (string * (unit -> int)) list;
}

let reg_sync eng path f =
  Mutex.lock eng.imutex;
  eng.cap_syncs <- (path, f) :: eng.cap_syncs;
  Mutex.unlock eng.imutex

let reg_split eng path f =
  Mutex.lock eng.imutex;
  eng.cap_splits <- (path, f) :: eng.cap_splits;
  Mutex.unlock eng.imutex

let reg_star eng path f =
  Mutex.lock eng.imutex;
  eng.cap_stars <- (path, f) :: eng.cap_stars;
  Mutex.unlock eng.imutex

let send_outputs ~down meta outs =
  List.iteri (fun i out -> send down (Detmerge.child_meta meta i) out) outs

let observe_edge eng path r =
  match eng.observer with Some f -> f ~edge:path r | None -> ()

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

(* A component that consumes one record and emits [outs]: account every
   enclosing deterministic region before forwarding. *)
let consume_emit eng ~down meta outs =
  Stats.record_emission eng.istats (List.length outs);
  Detmerge.account meta (List.length outs);
  send_outputs ~down meta outs

let stray path =
  failwith (Printf.sprintf "Engine_conc(%s): stray Complete" path)

(* Error records bypass the component: forward unchanged on the same
   causal line, so deterministic collectors still see and order them. *)
let pass_error ~down meta r = send down meta r

(* The entry of a deterministic region stamps every record it admits. *)
let stamp_entry region meta =
  match region with None -> meta | Some rg -> Detmerge.stamp rg meta

let rec build eng path net ~down : target =
  match net with
  | Net.Box b ->
      let path = path ^ "/box:" ^ Box.name b in
      Stats.record_instance eng.istats;
      let sup = Box.supervision b in
      let bname = Box.name b in
      let handler = function
        | Complete _ -> stray path
        | Data (meta, r) ->
            observe_edge eng path r;
            if Supervise.is_error r then pass_error ~down meta r
            else begin
              Stats.record_box_invocation eng.istats;
              let t0 = Obsv.Probe.span_start () in
              let outcome =
                Supervise.supervise sup ~stats:eng.istats ~name:bname
                  (Box.execute b) r
              in
              Obsv.Probe.span_end ~cat:"box" ~name:path t0;
              match outcome with
              | Supervise.Emit outs -> consume_emit eng ~down meta outs
              | Supervise.Fail e -> raise e
            end
      in
      Actor (Streams.Actors.spawn eng.sys ~name:path handler)
  | Net.Filter f ->
      let path = path ^ "/filter:" ^ Filter.name f in
      Stats.record_instance eng.istats;
      let handler = function
        | Complete _ -> stray path
        | Data (meta, r) ->
            observe_edge eng path r;
            if Supervise.is_error r then pass_error ~down meta r
            else begin
              Stats.record_filter_invocation eng.istats;
              let t0 = Obsv.Probe.span_start () in
              let outs = Filter.apply f r in
              Obsv.Probe.span_end ~cat:"filter" ~name:path t0;
              consume_emit eng ~down meta outs
            end
      in
      Actor (Streams.Actors.spawn eng.sys ~name:path handler)
  | Net.Sync patterns ->
      let path = path ^ "/sync" in
      Stats.record_instance eng.istats;
      let slots = Array.make (List.length patterns) None in
      let spent = ref false in
      (match Netstate.sync_cell eng.restore path with
      | None -> ()
      | Some c ->
          spent := c.Netstate.spent;
          List.iteri
            (fun i s -> if i < Array.length slots then slots.(i) <- s)
            c.Netstate.slots);
      reg_sync eng path (fun () ->
          { Netstate.slots = Array.to_list slots; spent = !spent });
      let pats = Array.of_list patterns in
      let handler = function
        | Complete _ -> stray path
        | Data (meta, r) ->
            observe_edge eng path r;
            if Supervise.is_error r then pass_error ~down meta r
            else if !spent then consume_emit eng ~down meta [ r ]
            else begin
              let slot = ref None in
              Array.iteri
                (fun i p ->
                  if !slot = None && slots.(i) = None && Pattern.matches p r
                  then slot := Some i)
                pats;
              match !slot with
              | None -> consume_emit eng ~down meta [ r ]
              | Some i ->
                  slots.(i) <- Some r;
                  if Array.for_all Option.is_some slots then begin
                    spent := true;
                    (* Merge in pattern order; earlier patterns win on
                       label collisions. The merged record continues
                       the triggering record's causal line. *)
                    let merged =
                      Array.fold_left
                        (fun acc stored ->
                          match (acc, stored) with
                          | None, s -> s
                          | Some acc, Some stored ->
                              Some (Record.inherit_from ~excess:stored acc)
                          | Some acc, None -> Some acc)
                        None slots
                    in
                    consume_emit eng ~down meta [ Option.get merged ]
                  end
                  else
                    (* Stored: the record leaves its causal line. *)
                    Detmerge.account meta 0
            end
      in
      Actor (Streams.Actors.spawn eng.sys ~name:path handler)
  (* Placement hints are extra-functional: build the body at the same
     path so annotated and bare nets capture/restore identically. *)
  | Net.Place { body; _ } -> build eng path body ~down
  | Net.Observe { tag; body } ->
      let opath = path ^ "/" ^ tag in
      let inner = build eng opath body ~down in
      Route
        (fun meta r ->
          observe_edge eng opath r;
          send inner meta r)
  | Net.Serial (a, b) ->
      let cb = build eng (path ^ "/R") b ~down in
      build eng (path ^ "/L") a ~down:cb
  | Net.Choice { left; right; det } ->
      let left_in = Typecheck.input_type left in
      let right_in = Typecheck.input_type right in
      let region = if det then Some (new_region eng) else None in
      let merge_down =
        match region with
        | Some rg -> make_collector eng ~name:(path ^ "/choice-col") rg ~down
        | None -> down
      in
      let cl = build eng (path ^ "/l") left ~down:merge_down in
      let cr = build eng (path ^ "/r") right ~down:merge_down in
      Route
        (fun meta r ->
          let meta = stamp_entry region meta in
          if Supervise.is_error r then pass_error ~down:merge_down meta r
          else
            let sl = Rectype.match_score left_in r in
            let sr = Rectype.match_score right_in r in
            let branch =
              match (sl, sr) with
              | None, None ->
                  raise
                    (Errors.Route_error
                       (Printf.sprintf "record %s matches neither branch at %s"
                          (Record.to_string r) path))
              | Some _, None -> cl
              | None, Some _ -> cr
              | Some a, Some b -> if a >= b then cl else cr
            in
            send branch meta r)
  | Net.Split { body; tag; det } ->
      let region = if det then Some (new_region eng) else None in
      let merge_down =
        match region with
        | Some rg -> make_collector eng ~name:(path ^ "/split-col") rg ~down
        | None -> down
      in
      let replicas : target Int_map.t Atomic.t = Atomic.make Int_map.empty in
      let lock = Mutex.create () in
      let replica_for v =
        find_or_build lock
          ~find:(fun () -> Int_map.find_opt v (Atomic.get replicas))
          ~build:(fun () ->
            let t =
              build eng
                (Printf.sprintf "%s/split[%s=%d]" path tag v)
                body ~down:merge_down
            in
            Atomic.set replicas (Int_map.add v t (Atomic.get replicas));
            Stats.record_split_replica eng.istats;
            t)
      in
      List.iter
        (fun v -> ignore (replica_for v))
        (Netstate.split_tags eng.restore path);
      reg_split eng path (fun () ->
          Int_map.fold (fun v _ acc -> v :: acc) (Atomic.get replicas) []);
      Route
        (fun meta r ->
          if Supervise.is_error r then
            (* Straight to the merge point: an error record may well
               lack the routing tag. *)
            pass_error ~down:merge_down (stamp_entry region meta) r
          else
            let v =
              match Record.tag tag r with
              | Some v -> v
              | None ->
                  raise
                    (Errors.Route_error
                       (Printf.sprintf "record %s lacks split tag <%s> at %s"
                          (Record.to_string r) tag path))
            in
            let replica = replica_for v in
            send replica (stamp_entry region meta) r)
  | Net.Star { body; exit; det } ->
      let region = if det then Some (new_region eng) else None in
      let exit_target =
        match region with
        | Some rg -> make_collector eng ~name:(path ^ "/star-col") rg ~down
        | None -> down
      in
      let depth = ref 0 in
      reg_star eng path (fun () -> !depth);
      let restore_depth = Netstate.star_depth eng.restore path in
      (* Tap [d] sits before replica [d+1]; tap 0 is the star's entry
         and, for a deterministic star, the region entry. *)
      let rec make_tap d : target =
        let next_stage : target option Atomic.t = Atomic.make None in
        let lock = Mutex.create () in
        let force_stage () =
          find_or_build lock
            ~find:(fun () -> Atomic.get next_stage)
            ~build:(fun () ->
              let next_tap = make_tap (d + 1) in
              let s =
                build eng
                  (Printf.sprintf "%s/stage@%d" path (d + 1))
                  body ~down:next_tap
              in
              Atomic.set next_stage (Some s);
              Mutex.lock eng.imutex;
              if d + 1 > !depth then depth := d + 1;
              Mutex.unlock eng.imutex;
              Stats.record_star_stage eng.istats ~depth:(d + 1);
              Obsv.Probe.star_depth ~depth:(d + 1);
              s)
        in
        (* Restored unfolding: build the recorded stages eagerly so
           the sync cells inside them exist to receive their state. *)
        if restore_depth > d then ignore (force_stage ());
        Route
          (fun meta r ->
            let meta = if d = 0 then stamp_entry region meta else meta in
            (* An error record exits at the next tap; looping it back
               through the body would unfold stages forever. *)
            if Supervise.is_error r || Pattern.matches exit r then
              send exit_target meta r
            else send (force_stage ()) meta r)
      in
      make_tap 0

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
      observer;
      imutex = Mutex.create ();
      regions = [];
      results = [];
      next_input = 0;
      next_region_id = 0;
      stalls_seen = 0;
      entry = None;
      net;
      checked = Bytes.make Record.Shape.cap '\000';
      restore;
      cap_syncs = [];
      cap_splits = [];
      cap_stars = [];
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
    match build eng "" net ~down:(Actor results_actor) with
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

(* Only sound at quiescence: the getters read slot arrays and replica
   tables that are otherwise private to their component's actor. *)
let capture eng =
  Mutex.lock eng.imutex;
  let syncs = eng.cap_syncs
  and splits = eng.cap_splits
  and stars = eng.cap_stars in
  Mutex.unlock eng.imutex;
  Netstate.normalize
    {
      Netstate.syncs = List.map (fun (p, f) -> (p, f ())) syncs;
      splits = List.map (fun (p, f) -> (p, f ())) splits;
      stars = List.map (fun (p, f) -> (p, f ())) stars;
    }

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
