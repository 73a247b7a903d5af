(* serve: the snet_serve daemon under concurrent sessions. Spawns the
   real daemon binary (ephemeral ports), drives 32 concurrent
   framed-TCP ping-pong sessions through the ping net, then SIGTERMs
   the daemon with a handful of sessions still open and requires a
   clean drain: each open client sees [Done] rather than a dropped
   socket, the process exits 0 and prints its drained stats line.
   Bars: round-trip p99 <= 100ms, no session error, a clean drain.
   Writes BENCH_serve.json. *)

open Bench_core

let find_serve_exe () =
  match Sys.getenv_opt "SNET_SERVE_EXE" with
  | Some p -> p
  | None -> (
      let dir = Filename.dirname Sys.executable_name in
      match
        List.find_opt Sys.file_exists
          (List.map (Filename.concat dir)
             [
               Filename.concat ".." (Filename.concat "bin" "snet_serve.exe");
               "snet_serve.exe";
               "snet-serve";
             ])
      with
      | Some p -> p
      | None ->
          failwith
            "serve: cannot find snet_serve.exe next to bench/main.exe; set \
             SNET_SERVE_EXE")

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let run () =
  let r = report "serve" in
  let sessions = 32 in
  let per = if smoke then 25 else 250 in
  let drain_clients = 4 in
  let exe = find_serve_exe () in
  (* Daemon stdout on a pipe: the banner carries the ephemeral ports,
     and the pipe must stay drained so the drained stats line can
     never block the daemon at exit. *)
  let out_r, out_w = Unix.pipe () in
  let pid =
    Unix.create_process exe
      [|
        exe; "--spec"; "ping"; "--port"; "0"; "--http-port"; "0"; "--credits";
        "16"; "--max-sessions"; "64";
      |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let banner = input_line ic in
  let tcp_port =
    Scanf.sscanf banner "snet_serve: listening tcp=%d http=%d" (fun t _ -> t)
  in
  let daemon_lines = ref [] in
  let lines_mu = Mutex.create () in
  let pump =
    Thread.create
      (fun () ->
        try
          while true do
            let l = input_line ic in
            Mutex.protect lines_mu (fun () ->
                daemon_lines := l :: !daemon_lines)
          done
        with End_of_file | Sys_error _ -> ())
      ()
  in
  let dial () =
    Dist.Transport.erase
      (module Dist.Transport.Tcp)
      (Dist.Transport.Tcp.connect ~host:"127.0.0.1" ~port:tcp_port)
  in
  let errors = ref [] in
  let err_mu = Mutex.create () in
  let push_err fmt =
    Printf.ksprintf
      (fun s -> Mutex.protect err_mu (fun () -> errors := s :: !errors))
      fmt
  in
  let ping x = Snet.Record.with_tag "x" x Snet.Record.empty in
  let lat = Array.make_matrix sessions per Float.nan in
  let t_start = now () in
  let drivers =
    List.init sessions (fun k ->
        Thread.create
          (fun () ->
            try
              match Serve.Client.connect (dial ()) with
              | Error e -> push_err "session %d: connect: %s" k e
              | Ok c ->
                  for i = 0 to per - 1 do
                    let x = (1_000_000 * k) + i in
                    let t0 = now () in
                    (match Serve.Client.submit c (ping x) with
                    | `Ok -> ()
                    | _ -> failwith "submit rejected");
                    match Serve.Client.recv c with
                    | `Record r ->
                        lat.(k).(i) <- (now () -. t0) *. 1e9;
                        if Snet.Record.tag "y" r <> Some (x + 1) then
                          failwith "wrong response"
                    | `Done -> failwith "premature Done"
                    | `Crashed e -> failwith ("crash: " ^ e)
                  done;
                  if Serve.Client.drain_remaining c <> [] then
                    push_err "session %d: leftover responses" k
            with
            | Failure e -> push_err "session %d: %s" k e
            | e -> push_err "session %d: %s" k (Printexc.to_string e))
          ())
  in
  List.iter Thread.join drivers;
  let wall_s = now () -. t_start in
  (* Leave a few sessions open across the SIGTERM: a graceful drain
     must finish them with [Done], not a dropped socket. Each has
     collected every response it is owed first (a close mid-flight
     legitimately drops records — see lib/serve/server.mli). *)
  let open_conns =
    List.init drain_clients (fun k ->
        let conn = dial () in
        match Serve.Client.connect conn with
        | Error e ->
            push_err "drain client %d: connect: %s" k e;
            None
        | Ok c -> (
            match Serve.Client.submit c (ping (7_000_000 + k)) with
            | `Ok -> (
                match Serve.Client.recv c with
                | `Record _ -> Some (conn, c)
                | _ ->
                    push_err "drain client %d: no response" k;
                    None)
            | _ ->
                push_err "drain client %d: submit rejected" k;
                None))
  in
  Unix.kill pid Sys.sigterm;
  let done_clients =
    List.fold_left
      (fun acc conn_c ->
        match conn_c with
        | None -> acc
        | Some (conn, c) ->
            let saw_done =
              match Serve.Client.recv c with `Done -> true | _ -> false
            in
            Dist.Transport.close conn;
            if saw_done then acc + 1 else acc)
      0 open_conns
  in
  let _, status = Unix.waitpid [] pid in
  Thread.join pump;
  close_in_noerr ic;
  let lats =
    sorted
      (Array.concat (Array.to_list lat)
      |> Array.to_list
      |> List.filter (fun x -> not (Float.is_nan x))
      |> Array.of_list)
  in
  let total = Array.length lats in
  int r "sessions" sessions;
  int r "records_per_session" per;
  int r "round_trips" total;
  num r "wall_s" wall_s;
  num r "records_per_s" (float_of_int total /. wall_s);
  List.iter
    (fun (k, q) -> ns r ("latency_ns." ^ k) (Obsv.Metrics.quantile q lats))
    [ ("p50", 0.50); ("p95", 0.95) ];
  (* 100 ms: catches stalls, not scheduling jitter. *)
  bar r "latency_p99_ns" ~show:pretty_ns
    ~value:(Obsv.Metrics.quantile 0.99 lats) ~limit:1e8;
  let exit0 = status = Unix.WEXITED 0 in
  let stats_line =
    List.exists
      (fun l -> contains_substring l "snet_serve: drained")
      !daemon_lines
  in
  flag r "drain.exit0" exit0;
  int r "drain.clients_done" done_clients;
  int r "drain.clients_open" drain_clients;
  flag r "drain.stats_line" stats_line;
  check r "clean_drain" (exit0 && done_clients = drain_clients && stats_line);
  let errors = List.rev !errors in
  put r "errors" ~show:(String.concat "; " errors)
    (Obsv.Jsonx.List (List.map (fun e -> Obsv.Jsonx.Str e) errors));
  check r "no_session_errors" (errors = []);
  check r "all_round_trips_measured" (total = sessions * per);
  finish r
