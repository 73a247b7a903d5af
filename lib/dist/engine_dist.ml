let segments = Coord.segments

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
(* Worker side                                                         *)

(* A fault fired: die abruptly, flushing the outputs fed so far if
   the flag says so. *)
exception Crash_injected of bool

let attempt_send conn msg =
  try Transport.send conn (Proto.encode msg) with _ -> ()

(* The subnet a partition runs under its Hello's plan: both sides
   derive the layout from the same pure inputs, so they agree. A Hello
   without a plan is refused: Plan.decode rejects the empty string. *)
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

let serve ?pool ?tap ?(fault = []) ~conn ~resolve () =
  let cleanup () = Transport.close conn in
  match Transport.recv conn with
  | `Closed -> cleanup ()
  | `Msg m -> (
      match Proto.decode m with
      | Ok (Proto.Hello h) -> (
          (* Clock-rebase anchor: our receipt time of the Hello rides in
             every report, so the coordinator can estimate the offset
             between the two clocks. *)
          let hello_ts = Obsv.Sink.now () in
          if h.Proto.obsv land Obsv.Sink.metrics_bit <> 0
             && not (Obsv.Metrics.on ())
          then Obsv.Metrics.enable ();
          if h.Proto.obsv land Obsv.Sink.events_bit <> 0
             && not (Obsv.Sink.events_on ())
          then Obsv.Sink.enable ();
          (* Ship telemetry only when the coordinator asked for it (a
             collector is attached), never just because it is on here. *)
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
                    if h.Proto.policy = "" then Ok Snet.Supervise.Fail_fast
                    else Snet.Supervise.policy_of_string h.Proto.policy
                  in
                  let policy = Result.fold ~ok:Fun.id ~error:failwith policy in
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
              (* This partition's faults, given here or in the Hello. *)
              let fault =
                List.filter (fun f -> Fault.part_of f = part) (fault @ Fault.of_hello h)
              in
              let stall = Fault.stall_us fault in
              let batch = max 1 h.Proto.batch in
              (* The engine starts lazily, so a migrated-in partition's
                 [Restore] can seed it before any component is built. *)
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
                let rep = Obsv.Agg.self_report ~slim:local ~part ~hello_ts () in
                Proto.encode
                  (Proto.Metrics_report
                     { part; payload = Obsv.Agg.encode_report rep })
              in
              let chunk_msgs () =
                if Obsv.Sink.events_on () && not local then
                  let ch = Obsv.Agg.self_chunk ~part ~hello_ts () in
                  [
                    Proto.encode
                      (Proto.Trace_chunk
                         { part; payload = Obsv.Agg.encode_chunk ch });
                  ]
                else []
              in
              (* A first report at once, so a partition that dies mid-run
                 still has a last report; then a detached ticker, stopped
                 by flag and never joined, so teardown never waits on its
                 sleep. *)
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
                if fault <> [] then begin
                  Option.iter
                    (fun flush -> raise (Crash_injected flush))
                    (Fault.record_crash fault !consumed);
                  if stall > 0 then Thread.delay (float_of_int stall /. 1e6)
                end;
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
                        (* Final report and trace ride ahead of Done. *)
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
                        (* This loop is sequential, so the engine is
                           quiescent: flush, capture, ack, and stop —
                           nothing is sent after the Freeze_ack. *)
                        if Fault.freeze_crash fault then
                          raise (Crash_injected false);
                        let state =
                          match !inst_ref with
                          | None ->
                              (* Never started: hand back the seed, so a
                                 twice-migrated partition keeps it. *)
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
              | Crash_injected flush ->
                  (* Abrupt death: no Crash, no Done, and never the
                     envelope's credit, even when its outputs escape. *)
                  if flush then
                    (try Transport.send_many conn (fresh_out_msgs ())
                     with _ -> ())
              | Transport.Closed_conn -> ()
              | e -> attempt_send conn (Proto.Crash (Printexc.to_string e)));
              Atomic.set ticker_stop true;
              cleanup ())
      | Ok _ | Error _ ->
          attempt_send conn (Proto.Crash "expected Hello");
          cleanup ())

(* ------------------------------------------------------------------ *)
(* Coordinator: the threaded driver of [Coord]                         *)

(* The calling thread runs the loop: it alone steps the core and owns
   the connections. One reader per connection posts what it receives
   to the inbox; [migrate] posts a request and waits for the answer. *)

type reply = (float, string) result Event.channel

type event =
  | Recv of { part : int; gen : int; msg : [ `Msg of string | `Closed ] }
  | Migrate_req of int * reply

type driver = {
  core : Coord.t;
  plan : Plan.t;
  conns : Transport.conn array;
  wires : Wire.ctx array;  (* each partition's codec scratch *)
  respawn : int -> Transport.conn option;
  replies : (int, reply) Hashtbl.t;  (* open migrate requests, by id *)
  mutable next_id : int;
  mutable readers : Thread.t list;
  (* The loop's thread: a [migrate] from it would wait on itself. *)
  loop_id : int;
  (* The inbox, the only state shared with other threads: a post
     signals only while the loop is [idle] in its wait, and is refused
     once the loop has [closed] it. *)
  mu : Mutex.t;
  cv : Condition.t;
  inbox : event Queue.t;
  mutable idle : bool;
  mutable closed : bool;
  over : bool Atomic.t;  (* completed or failed, read by any thread *)
}

let post d ev =
  Mutex.protect d.mu (fun () ->
      let accepted = not d.closed in
      if accepted then begin
        Queue.push ev d.inbox;
        if d.idle then begin
          d.idle <- false;
          Condition.signal d.cv
        end
      end;
      accepted)

(* Block until the inbox holds something, then take all of it. *)
let take d =
  let evs = Queue.create () in
  Mutex.protect d.mu (fun () ->
      while Queue.is_empty d.inbox do
        d.idle <- true;
        Condition.wait d.cv d.mu
      done;
      d.idle <- false;
      Queue.transfer d.inbox evs);
  evs

(* A reader only receives: it never waits on the loop. *)
let start_reader d part =
  let gen = Coord.gen d.core part and conn = d.conns.(part) in
  let rec loop () =
    let msg = try Transport.recv conn with _ -> `Closed in
    ignore (post d (Recv { part; gen; msg }) : bool);
    match msg with `Msg _ -> loop () | `Closed -> ()
  in
  d.readers <- Thread.create loop () :: d.readers

let answer reply r = Event.sync (Event.send reply r)

(* Carry out actions in order; a respawn's outcome is stepped at once. *)
let rec exec d acts =
  List.iter
    (function
      | Coord.Send (i, msgs) -> (
          let frames = List.map (Proto.encode ~ctx:d.wires.(i)) msgs in
          try Transport.send_many d.conns.(i) frames
          with _ -> () (* the worker's reader will observe the death *))
      | Coord.Close i -> Transport.close d.conns.(i)
      | Coord.Respawn i ->
          let ok =
            match d.respawn i with
            | None -> false
            | Some conn ->
                d.conns.(i) <- conn;
                start_reader d i;
                true
          in
          exec d
            (Coord.step d.core ~now:(Unix.gettimeofday ())
               (Coord.Respawned { part = i; ok }))
      | Coord.Answer (id, r) ->
          Option.iter
            (fun reply ->
              Hashtbl.remove d.replies id;
              answer reply r)
            (Hashtbl.find_opt d.replies id))
    acts

let drive d =
  let step now ev = exec d (Coord.step d.core ~now ev) in
  let rec feed now =
    match Coord.step d.core ~now Coord.Feed with
    | [] -> ()
    | acts -> exec d acts; feed now
  in
  feed (Unix.gettimeofday ());
  while not (Coord.finished d.core) do
    let evs = take d in
    let now = Unix.gettimeofday () in
    Queue.iter
      (function
        | Recv { part; gen; msg = `Closed } -> step now (Coord.Closed { part; gen })
        | Recv { part; gen; msg = `Msg m } ->
            step now
              (Coord.Frame { part; gen; msg = Proto.decode ~ctx:d.wires.(part) m })
        | Migrate_req (part, reply) ->
            let id = d.next_id in
            d.next_id <- id + 1;
            Hashtbl.replace d.replies id reply;
            step now (Coord.Migrate { id; part }))
      evs;
    feed now
  done

(* Stop the loop: refuse every request still queued or open, shut the
   workers down and join every reader. *)
let teardown d =
  Atomic.set d.over true;
  let left = Queue.create () in
  Mutex.protect d.mu (fun () ->
      d.closed <- true;
      Queue.transfer d.inbox left);
  let refusal =
    if Coord.failure d.core = None then "run already finished"
    else "run already failed"
  in
  Queue.iter
    (function Migrate_req (_, reply) -> answer reply (Error refusal) | Recv _ -> ())
    left;
  Hashtbl.iter
    (fun _ reply -> answer reply (Error "run failed during migration"))
    d.replies;
  exec d (Coord.stop d.core);
  List.iter Thread.join d.readers

(* ------------------------------------------------------------------ *)
(* Run handle: the balancer's window into a live run                   *)

type handle = driver

let migrate d i =
  let parts = Array.length d.conns in
  if i < 0 || i >= parts then
    Error (Printf.sprintf "partition %d out of range (parts=%d)" i parts)
  else if Thread.id (Thread.self ()) = d.loop_id then
    Error "migrate called on the coordinator's own thread"
  else
    let reply = Event.new_channel () in
    if post d (Migrate_req (i, reply)) then Event.sync (Event.receive reply)
    else Error "run already finished"

let handle_parts d = Array.length d.conns
let handle_plan d = d.plan
let handle_finished d = Atomic.get d.over

(* ------------------------------------------------------------------ *)

(* Human-readable placement of one partition under a plan — the PLACE
   column of [snet_top --cluster]. *)
let place_of ~plan part =
  let s = Plan.stage_of_part plan part in
  match plan.(s) with
  | Plan.Run { lo; hi } when lo = hi -> Printf.sprintf "seg %d" lo
  | Plan.Run { lo; hi } -> Printf.sprintf "segs %d-%d" lo hi
  | Plan.Shard { seg; shards } ->
      Printf.sprintf "seg %d shard %d/%d" seg (part - Plan.base plan s) shards

(* ------------------------------------------------------------------ *)
(* Launch: one set-up for loopback threads and worker processes        *)

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
   worker with its Hello, and run the loop on the calling thread.
   [connect i fault] starts a worker for partition [i] that injects
   [fault] (the Hello carries what of it it can) and returns the
   coordinator's end of its connection. [spec] is the network name the
   Hello carries; [coord_pid] is this process's pid when the workers
   share it, and 0 for worker processes (full telemetry payloads). *)
let launch ~spec ~coord_pid ~connect ?(workers = 2) ?(credits = 32) ?batch
    ?stats ?supervision ?(fault = []) ?tap ?collector ?plan ?on_handle net
    inputs =
  if credits <= 0 then invalid_arg "Engine_dist: credits must be positive";
  let batch =
    match validate_batch (Option.value batch ~default:default_batch) with
    | Ok n -> n
    | Error e -> invalid_arg ("Engine_dist: " ^ e)
  in
  let plan = resolve_plan ?plan ~workers net in
  let parts = Plan.parts plan in
  Fault.validate ~parts fault;
  let routes = Coord.routes_of ~plan net in
  let plan_str = Plan.encode plan in
  let policy, timeout =
    match supervision with
    | None -> (Snet.Supervise.Fail_fast, None)
    | Some c -> (c.Snet.Supervise.policy, c.Snet.Supervise.timeout)
  in
  let greet i ~first =
    let fault = Fault.spawn fault ~part:i ~first in
    let conn = connect i fault in
    let crash_after, crash_flush = Fault.to_hello fault in
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
              policy =
                (if supervision = None then ""
                 else Snet.Supervise.policy_to_string policy);
              timeout;
              credits;
              crash_after;
              crash_flush;
              batch;
              obsv = obsv_flags collector;
              coord_pid;
              plan = plan_str;
            }));
    conn
  in
  let conns = Array.init parts (fun i -> greet i ~first:true) in
  let d =
    {
      core =
        Coord.create ?tap ?collector ?stats ~policy ~credits ~batch ~routes
          inputs;
      plan;
      conns;
      wires = Array.init parts (fun _ -> Wire.ctx ());
      respawn =
        (fun i ->
          match greet i ~first:false with conn -> Some conn | exception _ -> None);
      replies = Hashtbl.create 4;
      next_id = 0;
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
      for i = 0 to parts - 1 do
        Obsv.Agg.note_place col ~part:i ~place:(place_of ~plan i)
      done)
    collector;
  Array.iteri (fun i _ -> start_reader d i) conns;
  Fun.protect
    ~finally:(fun () -> teardown d)
    (fun () ->
      Option.iter (fun f -> f d) on_handle;
      drive d);
  match Coord.finish d.core with
  | Ok outs -> outs
  | Error msg -> failwith ("Engine_dist: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Loopback runner: simulated workers, hermetic and single-process     *)

let run ?pool ?workers ?credits ?batch ?stats ?supervision ?fault ?tap
    ?collector ?plan ?on_handle net inputs =
  let threads = ref [] and threads_mu = Mutex.create () in
  let connect i fault =
    let a, b = Transport.loopback_pair ~name:(Printf.sprintf "dist:w%d" i) () in
    let t =
      Thread.create
        (fun () -> serve ?pool ~fault ~conn:b ~resolve:(fun _ -> net) ())
        ()
    in
    Mutex.protect threads_mu (fun () -> threads := t :: !threads);
    a
  in
  Fun.protect
    ~finally:(fun () -> List.iter Thread.join !threads)
    (fun () ->
      launch ~spec:"loopback" ~coord_pid:(Unix.getpid ()) ~connect ?workers
        ?credits ?batch ?stats ?supervision ?fault ?tap ?collector ?plan
        ?on_handle net inputs)

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
    ?batch ?stats ?supervision ?(fault = []) ?tap ?collector ?plan ?on_handle
    ?(worker_args = []) net inputs =
  if not (Fault.over_wire fault) then
    invalid_arg
      "Engine_dist.run_spawned: a worker process honours only Record and \
       Flush crashes, one per partition";
  let listener = Transport.Tcp.listen ~host () in
  let port = Transport.Tcp.port listener in
  let pids = ref [] and pids_mu = Mutex.create () in
  (* Workers are assigned partitions in accept order. *)
  let connect _ _ =
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
    let rec wait pid =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Unix.gettimeofday () <= deadline ->
          Thread.delay 0.02;
          wait pid
      | 0, _ -> (
          (try Unix.kill pid Sys.sigkill with _ -> ());
          try ignore (Unix.waitpid [] pid) with _ -> ())
      | _ | (exception Unix.Unix_error (ECHILD, _, _)) -> ()
    in
    List.iter wait (Mutex.protect pids_mu (fun () -> !pids))
  in
  Fun.protect ~finally:reap (fun () ->
      launch ~spec ~coord_pid:0 ~connect ?workers ?credits ?batch ?stats
        ?supervision ~fault ?tap ?collector ?plan ?on_handle net inputs)
