(* serve-journaled: the real snet_serve daemon serving the ping net
   with a write-ahead journal, driven over one framed-TCP session by a
   two-thread open-loop generator (this process's main thread sends,
   one thread receives). Phases: half of the measured time paced at a
   fixed rate, latency timed from each request's due time; a saturated
   phase, limited only by the credit window, for throughput; then
   SIGTERM and restarts on the written journal for recovery time. *)

open Harness
module Proto = Dist.Proto
module Transport = Dist.Transport

let rate = 5_000.

(* The saturated phase sends a fixed number of requests, this rate
   times the other half of the measured time. The daemon's cost per
   record grows with the records it has served, so a phase of fixed
   length would give a faster run more, dearer work. The rate is a
   little below the daemon's (about 25,000 a second), so the phase
   takes about as long as the paced one, and the journal that recovery
   replays stays short. *)
let sat_rate = 20_000.
let setup_reps = 9
let recovery_reps = 3

type daemon = { pid : int; tcp : int; http : int; reader : Thread.t }

let start_daemon ctx ~dir =
  let exe = Filename.concat ctx.bin_dir "snet_serve.exe" in
  let argv =
    [|
      exe; "--spec"; "ping"; "--domains"; "1"; "--credits"; "32"; "--journal"; dir;
      "--snapshot-every"; "10000"; "--fsync-every"; "0"; "--port"; "0";
      "--http-port"; "0";
    |]
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  (* A recovering daemon reports what it restored before its banner. *)
  let rec banner () =
    match input_line ic with
    | l when String.starts_with ~prefix:"snet_serve: listening" l -> Some l
    | _ -> banner ()
    | exception End_of_file -> None
  in
  match banner () with
  | None ->
      close_in_noerr ic;
      ignore (Unix.waitpid [] pid);
      Error "snet_serve exited before listening"
  | Some l ->
      let tcp, http =
        Scanf.sscanf l "snet_serve: listening tcp=%d http=%d" (fun a b -> (a, b))
      in
      (* Keep the daemon's stdout drained until it exits. *)
      let reader =
        Thread.create
          (fun () ->
            (try
               while true do
                 ignore (input_line ic)
               done
             with End_of_file | Sys_error _ -> ());
            close_in_noerr ic)
          ()
      in
      Ok { pid; tcp; http; reader }

(* SIGTERM starts the daemon's graceful drain; a clean one exits 0. *)
let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let until = now () +. 15. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < until ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid);
        Error "snet_serve did not drain within 15 s"
    | _, Unix.WEXITED 0 -> Ok ()
    | _, _ -> Error "snet_serve exited uncleanly"
  in
  let r = wait () in
  Thread.join d.reader;
  r

let expect conn what =
  match Transport.recv conn with
  | `Closed -> Error ("connection closed awaiting " ^ what)
  | `Msg m -> Result.map_error (fun e -> what ^ ": " ^ e) (Proto.decode m)

(* The session handshake of lib/serve's protocol: Hello under the
   serve spec, then Open_session. *)
let open_session d =
  let conn =
    Transport.erase (module Transport.Tcp)
      (Transport.Tcp.connect ~host:"127.0.0.1" ~port:d.tcp)
  in
  Transport.send conn
    (Proto.encode
       (Proto.Hello
          {
            spec = Proto.serve_spec;
            part = 0;
            parts = 1;
            policy = "";
            timeout = None;
            credits = 0;
            crash_after = -1;
            crash_flush = false;
            batch = 0;
            obsv = 0;
            coord_pid = 0;
            plan = "";
          }));
  let ( let* ) = Result.bind in
  let* ack = expect conn "Hello_ack" in
  let* () = match ack with Proto.Hello_ack _ -> Ok () | m -> Error (Proto.to_string m) in
  Transport.send conn (Proto.encode (Proto.Open_session { credits = 0; batch = 0; resume = -1 }));
  let* sa = expect conn "Session_ack" in
  match sa with
  | Proto.Session_ack a when a.Proto.ok -> Ok (conn, a.Proto.session, a.Proto.sa_credits)
  | m -> Error (Proto.to_string m)

(* Close an idle session and read to its Done. *)
let close_session (conn, session, _) =
  Transport.send conn (Proto.encode (Proto.Close_session { session }));
  let rec go () =
    match Transport.recv conn with
    | `Closed -> ()
    | `Msg m -> ( match Proto.decode m with Ok Proto.Done -> () | _ -> go ())
  in
  go ();
  Transport.close conn

(* One GET against the daemon's HTTP gateway; the body. *)
let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 8192 and chunk = Bytes.create 8192 in
      let rec go () =
        match Unix.read fd chunk 0 8192 with
        | 0 -> ()
        | k ->
            Buffer.add_subbytes buf chunk 0 k;
            go ()
      in
      go ();
      let s = Buffer.contents buf in
      let rec body i =
        if i + 4 > String.length s then ""
        else if String.sub s i 4 = "\r\n\r\n" then
          String.sub s (i + 4) (String.length s - i - 4)
        else body (i + 1)
      in
      body 0)

(* A counter of the Prometheus exposition, by series name. *)
let prom_value text name =
  String.split_on_char '\n' text
  |> List.find_map (fun l ->
         match String.split_on_char ' ' l with
         | [ n; v ] when n = name -> float_of_string_opt v
         | _ -> None)

(* ------------------------------------------------------------------ *)
(* The generator. Request i carries x = offset + i and is answered by
   y = x + 1; due, sent and received times are kept per request. *)

type gen = {
  conn : Transport.conn;
  offset : int;
  cap : int;
  due : float array;
  sent : float array;
  recv : float array;
  gmu : Mutex.t;
  gcv : Condition.t;
  mutable credits : int;
  mutable n_sent : int;
  mutable received : int;
  mutable dup : int;
  mutable stray : int;
  mutable closed : bool;
  mutable crash : string option;
  mutable stalls : int;
  mutable traced_now : bool;  (** Responses now are recorded as spans. *)
}

let receiver g spans =
  let ctx = Dist.Wire.ctx () in
  let on_record r =
    let t = now () in
    match Snet.Record.tag "y" r with
    | Some y when y - 1 - g.offset >= 0 && y - 1 - g.offset < g.cap ->
        let i = y - 1 - g.offset in
        if Float.is_nan g.recv.(i) then begin
          g.recv.(i) <- t;
          g.received <- g.received + 1;
          if g.traced_now then begin
            Spans.add spans ~cat:"serve" ~name:"credit_wait" ~tid:1 g.due.(i) g.sent.(i);
            Spans.add spans ~cat:"serve" ~name:"rtt" ~tid:2 g.sent.(i) t
          end
        end
        else g.dup <- g.dup + 1
    | _ -> g.stray <- g.stray + 1
  in
  let rec loop () =
    match Transport.recv g.conn with
    | `Closed -> ()
    | `Msg m -> (
        match Proto.decode ~ctx m with
        | Ok (Proto.Data r) ->
            on_record r;
            loop ()
        | Ok (Proto.Data_batch rs) ->
            List.iter on_record rs;
            loop ()
        | Ok (Proto.Credit k) ->
            with_lock g.gmu (fun () ->
                g.credits <- g.credits + k;
                Condition.broadcast g.gcv);
            loop ()
        | Ok Proto.Done -> ()
        | Ok (Proto.Crash e) -> g.crash <- Some e
        | Ok _ -> loop ()
        | Error e -> g.crash <- Some ("decode: " ^ e))
  in
  (try loop () with e -> g.crash <- Some (Printexc.to_string e));
  with_lock g.gmu (fun () ->
      g.closed <- true;
      Condition.broadcast g.gcv)

(* Send requests from [i] on: wait for a credit, then up to [max] of
   them in one envelope (Data for one, Data_batch for more). The count
   sent; 0 once the session is gone. *)
let send g ctx i ~due ~max =
  let k =
    with_lock g.gmu (fun () ->
        if g.credits = 0 then g.stalls <- g.stalls + 1;
        while g.credits = 0 && not g.closed do
          Condition.wait g.gcv g.gmu
        done;
        if g.closed then 0
        else begin
          let k = min g.credits (min max (g.cap - i)) in
          g.credits <- g.credits - k;
          k
        end)
  in
  if k > 0 then begin
    let t = now () in
    let recs =
      List.init k (fun j ->
          g.due.(i + j) <- due;
          g.sent.(i + j) <- t;
          Snet.Record.with_tag "x" (g.offset + i + j) Snet.Record.empty)
    in
    Transport.send g.conn
      (Proto.encode ~ctx
         (match recs with [ r ] -> Proto.Data r | rs -> Proto.Data_batch rs));
    g.n_sent <- i + k
  end;
  k

let run ctx tally =
  let jdir k =
    Filename.concat ctx.out_dir (Printf.sprintf "serve-journal-%d-%d" (Unix.getpid ()) k)
  in
  let dirs = ref [] in
  let spans = Spans.create () in
  let daemons = ref [] in
  let cleanup () =
    List.iter (fun d -> ignore (stop_daemon d)) !daemons;
    List.iter rm_rf !dirs
  in
  let start dir =
    match start_daemon ctx ~dir with
    | Ok d ->
        daemons := d :: !daemons;
        d
    | Error e -> failwith e
  in
  let stop d =
    daemons := List.filter (fun d' -> d'.pid <> d.pid) !daemons;
    match stop_daemon d with Ok () -> () | Error e -> fail tally "%s" e
  in
  Fun.protect ~finally:cleanup (fun () ->
      (* Set-up: daemon start and session open, several times, each on
         a fresh journal; the last daemon and session are kept. *)
      let (d, dir, (conn, session, window)), setup_samples =
        setup_batch
          ~reps:(if ctx.smoke then 2 else setup_reps)
          ~discard:(fun (d, _, s) ->
            close_session s;
            stop d)
          (fun k ->
            let dir = jdir k in
            rm_rf dir;
            dirs := dir :: !dirs;
            let t0 = now () in
            let d = start dir in
            let s =
              match open_session d with Ok s -> s | Error e -> failwith ("open session: " ^ e)
            in
            ((d, dir, s), now () -. t0))
      in
      let setup = setup_metric setup_samples in
      let d_paced = ctx.seconds *. 0.5 and d_sat = ctx.seconds *. 0.5 in
      let n_paced = int_of_float (rate *. d_paced) in
      let cap = n_paced + int_of_float (sat_rate *. d_sat) in
      let g =
        {
          conn;
          offset = Random.State.int (rng ctx "serve-journaled") 1_000_000_000;
          cap;
          due = Array.make cap Float.nan;
          sent = Array.make cap Float.nan;
          recv = Array.make cap Float.nan;
          gmu = Mutex.create ();
          gcv = Condition.create ();
          credits = window;
          n_sent = 0;
          received = 0;
          dup = 0;
          stray = 0;
          closed = false;
          crash = None;
          stalls = 0;
          traced_now = ctx.traced;
        }
      in
      let rx = Thread.create (receiver g) spans in
      let sctx = Dist.Wire.ctx () in
      let prom () = http_get d.http "/metrics?format=prometheus" in
      let journal0 = prom () in
      let rss0 = status_kb d.pid "VmHWM" in
      let meter = Speed.meter () in
      (* Every response owed, before a probe burst, the next phase or
         the close. *)
      let await_all () =
        let until = now () +. 10. in
        while g.received < g.n_sent && (not g.closed) && now () < until do
          Unix.sleepf 0.001
        done
      in
      let secs = function Some s -> s | None -> Float.nan in
      (* Paced phase: open loop at [rate], timed from due times, in
         segments of one second of requests with a probe burst after
         each. A segment is (first request, end, daemon CPU, factor). *)
      let lag = samples () in
      let i = ref 0 and alive = ref true in
      let paced_segments = ref [] in
      while !alive && !i < n_paced do
        let lo = !i in
        let cpu, f =
          Speed.measure meter (fun () ->
              let cpu0 = proc_cpu_s d.pid in
              let t_a = now () +. 0.001 in
              while !alive && !i < min n_paced (lo + int_of_float rate) do
                let due = t_a +. (float_of_int (!i - lo) /. rate) in
                let wait = due -. now () in
                if wait > 0. then Unix.sleepf wait;
                add lag (Float.max 0. (now () -. due));
                let k = send g sctx !i ~due ~max:1 in
                alive := k > 0;
                i := !i + k
              done;
              await_all ();
              secs (proc_cpu_s d.pid) -. secs cpu0)
        in
        paced_segments := (lo, !i, cpu, f) :: !paced_segments
      done;
      (* The paced phase sends a fixed number of requests at a fixed
         rate, so daemon memory is read at its end. *)
      let rss1 = status_kb d.pid "VmHWM" in
      (* Saturated phase: as fast as the credit window allows, in ten
         segments of a fixed request count with a probe burst after
         each; in the traced run traced and untraced ones alternate. A
         daemon below a third of [sat_rate] is cut off at three times
         [d_sat]. A segment is (responses, seconds, factor, traced). *)
      let t_b0 = now () in
      let sat_segments = ref [] in
      let sat_seg = (cap - n_paced + 9) / 10 in
      g.traced_now <- false;
      while !alive && now () -. t_b0 < 3. *. d_sat && !i < cap do
        let lo = !i in
        let dt, f =
          Speed.measure meter (fun () ->
              let t0 = now () in
              while !alive && now () -. t_b0 < 3. *. d_sat && !i < min cap (lo + sat_seg) do
                let k = send g sctx !i ~due:(now ()) ~max:window in
                alive := k > 0;
                i := !i + k
              done;
              await_all ();
              now () -. t0)
        in
        sat_segments := (float_of_int (!i - lo), dt, f, g.traced_now) :: !sat_segments;
        if ctx.traced then g.traced_now <- not g.traced_now
      done;
      (try Transport.send conn (Proto.encode (Proto.Close_session { session }))
       with Transport.Closed_conn -> ());
      let until = now () +. 10. in
      while (not g.closed) && now () < until do
        Unix.sleepf 0.005
      done;
      if not g.closed then Transport.close conn;
      Thread.join rx;
      Transport.close conn;
      let journal1 = prom () in
      stop d;
      (* Oracle: each x answered by y = x + 1 exactly once. *)
      let n = g.n_sent in
      attempt tally n;
      let missing = n - g.received in
      if missing > 0 || g.dup > 0 || g.stray > 0 then
        fail tally ~n:(max 1 (missing + g.dup))
          "serve-journaled: %d unanswered, %d duplicate, %d stray responses" missing
          g.dup g.stray;
      Option.iter (fun e -> fail tally "serve-journaled: session crashed: %s" e) g.crash;
      (* Recovery: restart on the written journal, until listening. *)
      let recovery =
        List.init recovery_reps (fun _ ->
            Speed.measure meter (fun () ->
                let t0 = now () in
                let d = start dir in
                let dt = now () -. t0 in
                stop d;
                dt))
      in
      let journal_entries, replay_s =
        let entries, damage = Durable.Journal.read_dir dir in
        Option.iter (fun e -> fail tally "journal damaged: %s" e) damage;
        ( List.length entries,
          time_per_call ~budget:0.2 (fun () ->
              ignore (Durable.Journal.dedupe (fst (Durable.Journal.read_dir dir)))) )
      in
      (* Responses over time across the saturated segments of one
         kind, scaled by each segment's factor or raw: the snapshot
         stalls that fall into them count. *)
      let sat_tput ?(raw = false) traced =
        let got, dt =
          List.fold_left
            (fun (got, dt) (k, s, f, tr) ->
              if tr = traced then (got +. k, dt +. (s *. if raw then 1. else f)) else (got, dt))
            (0., 0.) !sat_segments
        in
        got /. dt
      in
      (* Per paced request of [segs] (default: all), in request order;
         [f] gets the request and its segment's factor. *)
      let paced ?(segs = List.rev !paced_segments) f =
        let s = samples () in
        List.iter
          (fun (lo, hi, _, factor) ->
            for j = lo to min n hi - 1 do
              let v = f j factor in
              if not (Float.is_nan v) then add s v
            done)
          segs;
        s
      in
      let lat = paced (fun j f -> (g.recv.(j) -. g.due.(j)) *. f) in
      (* The [p]th percentile of each paced segment's latencies, the
         median over segments: a stall moves the segments it falls in,
         not the run. *)
      let seg_lat ?(raw = false) p =
        median_of
          (List.map
             (fun seg ->
               let s =
                 paced ~segs:[ seg ] (fun j f ->
                     (g.recv.(j) -. g.due.(j)) *. if raw then 1. else f)
               in
               percentile (sorted s) p *. 1e3)
             !paced_segments)
      in
      let paced_cpu ~raw =
        List.fold_left
          (fun a (_, _, cpu, f) -> a +. (cpu *. if raw then 1. else f))
          0. !paced_segments
        /. float_of_int n_paced *. 1e3
      in
      let rtt = sorted (paced (fun j _ -> g.recv.(j) -. g.sent.(j))) in
      let cwait = sorted (paced (fun j _ -> g.sent.(j) -. g.due.(j))) in
      let lag = sorted lag in
      let per_record delta_of =
        match (prom_value journal0 delta_of, prom_value journal1 delta_of) with
        | Some a, Some b -> (b -. a) /. float_of_int n
        | _ ->
            fail tally "prometheus: no %s series" delta_of;
            Float.nan
      in
      let kb = function Some k -> float_of_int k | None -> Float.nan in
      let lag_p99 = percentile lag 99. in
      let recovery =
        scaled "recovery_s" "s"
          ~value:(median_of (List.map (fun (dt, f) -> dt *. f) recovery))
          ~raw:(median_of (List.map fst recovery))
      in
      let extras =
        [
          (* Windows of 1,000 requests: ten samples beyond p99. *)
          metric "latency_p99_ms" "ms" (windowed_p99 lat 1000 *. 1e3);
          fst recovery;
          snd recovery;
          metric "serve.credit_wait_ms_p99" "ms" (percentile cwait 99. *. 1e3);
          metric "serve.rtt_ms_p50" "ms" (percentile rtt 50. *. 1e3);
          metric "serve.rss_kb_per_1k_records" "kB"
            ((kb rss1 -. kb rss0) /. (float_of_int n_paced /. 1000.));
          metric "journal.appends_per_record" "count"
            (per_record "snet_journal_appends_total");
          metric "journal.bytes_per_record" "bytes"
            (per_record "snet_journal_append_bytes_total");
          metric "journal.replay_entries_per_s" "entries/s"
            (float_of_int journal_entries /. replay_s);
          metric "loadgen.lag_ms_p99" "ms" (lag_p99 *. 1e3);
        ]
      in
      if not ctx.traced then
        let times =
          [
            scaled "throughput_per_s" "inputs/s" ~value:(sat_tput false)
              ~raw:(sat_tput ~raw:true false);
            scaled "latency_p50_ms" "ms" ~value:(seg_lat 50.) ~raw:(seg_lat ~raw:true 50.);
            scaled "latency_p90_ms" "ms" ~value:(seg_lat 90.) ~raw:(seg_lat ~raw:true 90.);
            scaled "cpu_ms_per_input" "ms" ~value:(paced_cpu ~raw:false)
              ~raw:(paced_cpu ~raw:true);
          ]
        in
        ( List.map fst times @ [ metric "peak_rss_mb" "MB" (kb rss1 /. 1024.); fst setup ],
          [],
          extras @ List.map snd (times @ [ setup ]) @ [ Speed.probe_ms meter ] )
      else begin
        (* The session's records through the ping net in this process:
           box and engine counters of the layers the daemon runs. *)
        let m = min n 20_000 in
        let reqs = List.init m (fun j -> Snet.Record.with_tag "x" (g.offset + j) Snet.Record.empty) in
        let net = Sudoku.Networks.ping () in
        let pool = Scheduler.Pool.create ~num_domains:1 () in
        let shim = Shim.create spans in
        let observer, hops = hop_counter () in
        let stats = Snet.Stats.create () in
        let outs = Snet.Engine_conc.run ~pool ~observer ~stats (Shim.net shim net) reqs in
        Scheduler.Pool.shutdown pool;
        let t_seq = now () in
        let seq_outs = Snet.Engine_seq.run net reqs in
        let seq_per_input_s = (now () -. t_seq) /. float_of_int m in
        List.iter
          (fun outs ->
            attempt tally m;
            let ys = List.sort compare (List.filter_map (Snet.Record.tag "y") outs) in
            if ys <> List.init m (fun j -> g.offset + j + 1) then
              fail tally ~n:m "serve-journaled replay: wrong responses")
          [ outs; seq_outs ];
        write_trace ctx tally spans "serve-journaled";
        let untraced = sat_tput false and traced = sat_tput true in
        ( [],
          box_and_coord_metrics ~shim ~shim_inputs:m ~per_input_s:(1. /. untraced)
            ~seq_per_input_s
          @ engine_metrics ~stats:(Snet.Stats.snapshot stats) ~hops:(Atomic.get hops)
              ~inputs:m
          @ [
              metric "flow.stalls_per_input" "count"
                (float_of_int g.stalls /. float_of_int n);
            ]
          @ wire_metrics tally (List.filteri (fun j _ -> j < 2_000) reqs)
          @ [ metric "trace.overhead_ratio" "ratio" (untraced /. traced) ],
          extras )
      end)
