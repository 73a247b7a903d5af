(* snet_serve: the network-as-a-service daemon. Load one network at
   startup, then serve record streams to many concurrent clients over
   two front doors — the framed-TCP session protocol (Serve.Server +
   Dist.Proto) and an HTTP/JSON gateway (Serve.Http_gw). SIGTERM or
   SIGINT triggers a graceful drain: stop admitting, let every
   in-flight record finish, flush each session's responses, exit 0. *)

open Cmdliner
module Server = Serve.Server

let stop = Atomic.make false

let run spec domains port http_port max_sessions credits batch idle metrics
    metrics_out metrics_every journal snapshot_every fsync_every =
  Sudoku.Netspec.register_codecs ();
  if metrics || metrics_out <> None then Obsv.Metrics.enable ();
  (* A server streams responses while idle at the front door, so the
     engine must always have at least one worker domain driving the
     actors — the zero-worker default pool only makes progress while
     someone blocks in [finish]. *)
  let pool = Some (Scheduler.Pool.create ~num_domains:(max 1 domains) ()) in
  let batch =
    match Dist.Engine_dist.validate_batch batch with
    | Ok b -> b
    | Error e ->
        Printf.eprintf "snet_serve: --batch: %s\n%!" e;
        exit 2
  in
  let cfg =
    {
      Server.max_sessions;
      credits;
      batch;
      idle_timeout = idle;
    }
  in
  let net =
    try Sudoku.Netspec.resolve ?pool spec
    with Failure e | Invalid_argument e ->
      Printf.eprintf "snet_serve: --spec: %s\n%!" e;
      exit 2
  in
  let durability =
    match journal with
    | None -> None
    | Some dir ->
        Some { Server.dir; fsync_every; snapshot_every; spec }
  in
  let srv = Server.create ?pool ~cfg ?durability net in
  (match Server.recovery srv with
  | Some r ->
      Printf.printf
        "snet_serve: recovered from journal (snapshot=%b sessions=%d \
         replayed=%d redelivered=%d%s)\n%!"
        r.Server.from_snapshot r.Server.restored_sessions r.Server.replayed
        r.Server.redelivered
        (match r.Server.journal_damage with
        | Some d -> ", damage: " ^ d
        | None -> "")
  | None -> ());
  let listener = Dist.Transport.Tcp.listen ~port () in
  let gw = Serve.Http_gw.start ~port:http_port srv in
  (* The drain must not run inside the signal handler (it takes locks
     and blocks); the handler only flips the flag the accept loop
     polls. *)
  let request_stop _ = Atomic.set stop true in
  ignore (Sys.signal Sys.sigterm (Sys.Signal_handle request_stop));
  ignore (Sys.signal Sys.sigint (Sys.Signal_handle request_stop));
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  Printf.printf "snet_serve: listening tcp=%d http=%d spec=%s\n%!"
    (Dist.Transport.Tcp.port listener)
    (Serve.Http_gw.port gw) spec;
  (* Periodic cluster snapshot for snet_top --cluster --watch: merged
     metrics plus the per-session health table, atomically renamed so
     a watcher never reads a torn file. *)
  let stop_metrics_writer =
    match metrics_out with
    | None -> None
    | Some path ->
        let writer_stop = Atomic.make false in
        let period = Float.max 0.05 metrics_every in
        let write () =
          let c =
            {
              Obsv.Agg.merged = Obsv.Metrics.snapshot ();
              parts = Server.health_parts srv;
              workers_seen = 0;
            }
          in
          let tmp = path ^ ".tmp" in
          let oc = open_out tmp in
          output_string oc (Obsv.Agg.cluster_to_json c);
          close_out oc;
          Sys.rename tmp path
        in
        let t =
          Thread.create
            (fun () ->
              while not (Atomic.get writer_stop) do
                (try write () with _ -> ());
                Thread.delay period
              done;
              try write () with _ -> ())
            ()
        in
        Some (writer_stop, t)
  in
  let conns = ref [] in
  let reap_every = if idle > 0. then Float.min 1.0 (idle /. 4.) else 1.0 in
  let last_reap = ref (Scheduler.Clock.now ()) in
  while not (Atomic.get stop) do
    (match Dist.Transport.Tcp.try_accept ~timeout_s:0.2 listener with
    | None -> ()
    | Some tcp ->
        let conn = Dist.Transport.erase (module Dist.Transport.Tcp) tcp in
        conns := Thread.create (fun () -> Server.serve_conn srv conn) () :: !conns);
    let now = Scheduler.Clock.now () in
    if idle > 0. && now -. !last_reap >= reap_every then begin
      last_reap := now;
      match Server.reap_idle srv with
      | [] -> ()
      | ids ->
          Printf.printf "snet_serve: reaped idle sessions %s\n%!"
            (String.concat ", " (List.map string_of_int ids))
    end
  done;
  prerr_endline "snet_serve: draining";
  Dist.Transport.Tcp.close_listener listener;
  Serve.Http_gw.stop gw;
  (try Server.drain srv
   with e ->
     Printf.eprintf "snet_serve: drain: %s\n%!" (Printexc.to_string e));
  (* Connection writers flush their sessions' remaining responses and
     answer Done on their own once drain closed the queues. *)
  List.iter Thread.join !conns;
  (match stop_metrics_writer with
  | None -> ()
  | Some (writer_stop, t) ->
      Atomic.set writer_stop true;
      Thread.join t);
  let h = Server.health srv in
  Printf.printf
    "snet_serve: drained (sessions opened=%d closed=%d reaped=%d rejected=%d, \
     records submitted=%d delivered=%d dropped=%d orphaned=%d)\n%!"
    h.Server.opened h.Server.closed h.Server.reaped h.Server.rejected
    h.Server.submitted h.Server.delivered h.Server.dropped h.Server.orphaned;
  Option.iter Scheduler.Pool.shutdown pool

let cmd =
  let spec =
    Arg.(
      value & opt string "ping"
      & info [ "spec"; "s" ] ~docv:"SPEC"
          ~doc:
            "Network to serve, as a Netspec string (e.g. $(b,ping), \
             $(b,fig2), $(b,fig3:throttle=4)).")
  in
  let domains =
    Arg.(value & opt int 1 & info [ "domains"; "d" ] ~doc:"Engine pool domains.")
  in
  let port =
    Arg.(
      value & opt int 0
      & info [ "port"; "p" ] ~doc:"Framed-TCP session port (0 = ephemeral).")
  in
  let http_port =
    Arg.(
      value & opt int 0
      & info [ "http-port" ] ~doc:"HTTP/JSON gateway port (0 = ephemeral).")
  in
  let max_sessions =
    Arg.(
      value & opt int Server.default_config.Server.max_sessions
      & info [ "max-sessions" ] ~doc:"Admission cap on concurrent sessions.")
  in
  let credits =
    Arg.(
      value & opt int Server.default_config.Server.credits
      & info [ "credits" ] ~doc:"Per-session submit window (upper bound).")
  in
  let batch =
    Arg.(
      value & opt int Dist.Engine_dist.default_batch
      & info [ "batch" ] ~doc:"Response envelope cap for TCP sessions.")
  in
  let idle =
    Arg.(
      value & opt float Server.default_config.Server.idle_timeout
      & info [ "idle-timeout" ]
          ~doc:"Seconds before an idle session is reaped (<= 0 disables).")
  in
  let metrics =
    Arg.(value & flag & info [ "metrics" ] ~doc:"Enable metrics collection.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Periodically write a cluster snapshot (merged metrics + \
             per-session health rows) to $(docv); view live with \
             snet_top --cluster --watch $(docv). Implies --metrics.")
  in
  let metrics_every =
    Arg.(
      value & opt float 0.5
      & info [ "metrics-every" ]
          ~doc:"Seconds between --metrics-out snapshots.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"DIR"
          ~doc:
            "Durable mode: journal every submission, delivery and \
             session event under $(docv); on startup, recover sessions \
             and undelivered responses from an existing journal.")
  in
  let snapshot_every =
    Arg.(
      value & opt int 256
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "With --journal: snapshot the net state every $(docv) \
             journaled submissions, bounding recovery replay (0 \
             disables snapshots).")
  in
  let fsync_every =
    Arg.(
      value & opt int 0
      & info [ "fsync-every" ] ~docv:"N"
          ~doc:
            "With --journal: fsync the journal every $(docv) appends \
             (0 = flush to the OS only; sufficient for process \
             crashes).")
  in
  Cmd.v
    (Cmd.info "snet-serve"
       ~doc:"Serve one S-Net network to many concurrent client sessions")
    Term.(
      const run $ spec $ domains $ port $ http_port $ max_sessions $ credits
      $ batch $ idle $ metrics $ metrics_out $ metrics_every $ journal
      $ snapshot_every $ fsync_every)

let () = exit (Cmd.eval cmd)
