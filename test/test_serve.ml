(* The serving layer: session lifecycle and admission, per-session
   credit windows, idle reaping on the clock seam, graceful drain, the
   framed-TCP session protocol (exercised hermetically over the
   loopback transport), and the batch-cap validation shared with the
   distribution CLI. Socket-backed cases — the EINTR regression on the
   TCP transport, the HTTP gateway, real-TCP concurrent sessions — are
   gated behind SNET_DIST_TCP=1 like the dist suite's (the @serve-smoke
   and @dist-smoke tiers set it). *)

module Server = Serve.Server
module Client = Serve.Client
module Http_gw = Serve.Http_gw
module Transport = Dist.Transport
module Record = Snet.Record
module Sv = Detcheck.Sched_virtual
module Strategy = Detcheck.Strategy

let tcp_enabled () = Sys.getenv_opt "SNET_DIST_TCP" = Some "1"
let ping_record x = Record.with_tag "x" x Record.empty
let y_exn r = Record.tag_exn "y" r
let ints = Alcotest.(slist int compare)

let cfg ?(max_sessions = 8) ?(credits = 16) ?(batch = 4) ?(idle = 0.) () =
  { Server.max_sessions; credits; batch; idle_timeout = idle }

(* Every test owns a 2-domain pool: the engine needs at least one real
   worker to stream responses while the test thread polls (tier-1 runs
   on single-core hosts, where the zero-worker default pool only makes
   progress inside [finish]). The server is drained before the pool
   goes away. *)
let with_server ?cfg:(c = cfg ()) f =
  let pool = Scheduler.Pool.create ~num_domains:2 () in
  let srv = Server.create ~pool ~cfg:c (Sudoku.Networks.ping ()) in
  Fun.protect
    ~finally:(fun () ->
      (try Server.drain srv with _ -> ());
      Scheduler.Pool.shutdown pool)
    (fun () -> f srv)

let await ?(timeout = 10.) msg f =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if f () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail ("timeout waiting for " ^ msg)
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

let ok_session = function
  | Ok s -> s
  | Error `Full -> Alcotest.fail "unexpected session rejection: full"
  | Error `Draining -> Alcotest.fail "unexpected session rejection: draining"

(* Poll until [n] responses arrived (they stream in on pool workers). *)
let collect srv s n =
  let acc = ref [] in
  await "responses"
    (fun () ->
      acc := !acc @ Server.poll srv s ~max:64;
      List.length !acc >= n);
  !acc

(* --- batch-cap validation (shared with --dist-batch and --batch) *)

let test_batch_validation () =
  let check_err n =
    match Dist.Engine_dist.validate_batch n with
    | Error _ -> ()
    | Ok m -> Alcotest.failf "batch %d wrongly accepted as %d" n m
  in
  List.iter check_err [ 0; -3 ];
  let ok n = Result.get_ok (Dist.Engine_dist.validate_batch n) in
  Alcotest.(check int) "plain" 64 (ok 64);
  Alcotest.(check int) "1 disables" 1 (ok 1);
  Alcotest.(check int) "max kept" Dist.Engine_dist.max_batch
    (ok Dist.Engine_dist.max_batch);
  Alcotest.(check int) "clamped to max" Dist.Engine_dist.max_batch (ok 999999)

(* --- session lifecycle ------------------------------------------- *)

let test_lifecycle () =
  with_server (fun srv ->
      let s = ok_session (Server.open_session srv) in
      List.iter
        (fun x ->
          Alcotest.(check bool)
            "submit accepted" true
            (Server.submit srv s (ping_record x) = `Ok))
        [ 1; 2; 3 ];
      let rs = collect srv s 3 in
      Alcotest.check ints "responses" [ 2; 3; 4 ] (List.map y_exn rs);
      List.iter
        (fun r ->
          Alcotest.(check (option int))
            "tagged with own session" (Some (Server.session_id s))
            (Record.tag Server.session_tag r))
        rs;
      Server.close_session srv s;
      Alcotest.(check bool) "closed" true (Server.closed s);
      Alcotest.(check bool)
        "submit after close" true
        (Server.submit srv s (ping_record 9) = `Closed);
      let h = Server.health srv in
      Alcotest.(check int) "opened" 1 h.Server.opened;
      Alcotest.(check int) "closed ctr" 1 h.Server.closed;
      Alcotest.(check int) "submitted" 3 h.Server.submitted;
      Alcotest.(check int) "delivered" 3 h.Server.delivered;
      Alcotest.(check int) "dropped" 0 h.Server.dropped)

let test_admission () =
  with_server ~cfg:(cfg ~max_sessions:2 ()) (fun srv ->
      let a = ok_session (Server.open_session srv) in
      let b = ok_session (Server.open_session srv) in
      (match Server.open_session srv with
      | Error `Full -> ()
      | Ok _ | Error `Draining -> Alcotest.fail "third session not rejected");
      Alcotest.(check int) "rejected counted" 1 (Server.health srv).Server.rejected;
      Server.close_session srv b;
      let b' = ok_session (Server.open_session srv) in
      (* Freed slots are reused, keeping the engine's per-session
         replica count bounded by max_sessions. *)
      Alcotest.(check int)
        "slot reused" (Server.session_id b)
        (Server.session_id b');
      Server.close_session srv a;
      Server.close_session srv b')

let test_credit_withholding () =
  with_server ~cfg:(cfg ~credits:2 ()) (fun srv ->
      let s = ok_session (Server.open_session srv) in
      Alcotest.(check int) "window" 2 (Server.window s);
      Alcotest.(check bool) "s1" true (Server.submit srv s (ping_record 1) = `Ok);
      Alcotest.(check bool) "s2" true (Server.submit srv s (ping_record 2) = `Ok);
      await "backlog fills the window" (fun () -> Server.backlog s >= 2);
      Alcotest.(check int) "credits withheld while backlogged" 0
        (Server.take_grants srv s);
      let rs = collect srv s 2 in
      Alcotest.check ints "responses intact" [ 2; 3 ] (List.map y_exn rs);
      Alcotest.(check int) "credits granted after draining" 2
        (Server.take_grants srv s);
      Server.close_session srv s)

(* Two sessions submitting concurrently: each must get exactly its own
   responses back (the [!! <serve_session>] replication at work). *)
let test_interleaved_sessions () =
  with_server ~cfg:(cfg ~credits:64 ()) (fun srv ->
      let n = 40 in
      let drive base =
        let s = ok_session (Server.open_session srv) in
        for i = 0 to n - 1 do
          match Server.submit srv s (ping_record (base + i)) with
          | `Ok -> ()
          | `Closed | `Draining -> Alcotest.fail "submission rejected"
        done;
        (s, collect srv s n)
      in
      let ra = ref None and rb = ref None in
      let ta = Thread.create (fun () -> ra := Some (drive 0)) () in
      let tb = Thread.create (fun () -> rb := Some (drive 1000)) () in
      Thread.join ta;
      Thread.join tb;
      let sa, rsa = Option.get !ra and sb, rsb = Option.get !rb in
      let expect base = List.init n (fun i -> base + i + 1) in
      Alcotest.check ints "session A outputs" (expect 0) (List.map y_exn rsa);
      Alcotest.check ints "session B outputs" (expect 1000) (List.map y_exn rsb);
      List.iter
        (fun (s, rs) ->
          List.iter
            (fun r ->
              Alcotest.(check (option int))
                "no cross-session leakage"
                (Some (Server.session_id s))
                (Record.tag Server.session_tag r))
            rs)
        [ (sa, rsa); (sb, rsb) ])

(* --- idle reaping on the clock seam ------------------------------ *)

let test_reap_virtual_clock () =
  let t = ref 0. in
  let virtual_clock =
    {
      Scheduler.Clock.now = (fun () -> !t);
      sleep = (fun d -> t := !t +. Float.max 0. d);
      label = "test-virtual";
    }
  in
  Scheduler.Clock.with_source virtual_clock (fun () ->
      with_server ~cfg:(cfg ~idle:10. ()) (fun srv ->
          let evicted = ref [] in
          let open_s () =
            ok_session
              (Server.open_session
                 ~on_evict:(fun () -> evicted := true :: !evicted)
                 srv)
          in
          let a = open_s () in
          let b = open_s () in
          Alcotest.(check (list int)) "nothing idle yet" [] (Server.reap_idle srv);
          t := 5.;
          Alcotest.(check bool)
            "activity on a" true
            (Server.submit srv a (ping_record 1) = `Ok);
          t := 11.;
          (* b has been idle for 11s > 10s; a was active at t=5. *)
          Alcotest.(check (list int))
            "only the idle session reaped"
            [ Server.session_id b ]
            (Server.reap_idle srv);
          Alcotest.(check int) "on_evict ran" 1 (List.length !evicted);
          Alcotest.(check bool) "b closed" true (Server.closed b);
          Alcotest.(check bool) "a alive" true (not (Server.closed a));
          Alcotest.(check int) "reaped counted" 1 (Server.health srv).Server.reaped;
          Alcotest.(check bool)
            "submit after reap" true
            (Server.submit srv b (ping_record 2) = `Closed)))

(* --- graceful drain ---------------------------------------------- *)

(* The drain guarantee, differentially: every record accepted before
   the drain gets its response delivered — the per-session multisets
   match an undisturbed run of the same inputs. *)
let test_drain_differential () =
  let inputs_a = List.init 20 (fun i -> i)
  and inputs_b = List.init 20 (fun i -> 500 + i) in
  (* Undisturbed reference: the same net, same inputs, no serving
     layer, no drain racing anything. *)
  let reference xs = List.map (fun x -> x + 1) xs in
  with_server (fun srv ->
      let a = ok_session (Server.open_session srv) in
      let b = ok_session (Server.open_session srv) in
      List.iter
        (fun x -> Alcotest.(check bool) "a" true (Server.submit srv a (ping_record x) = `Ok))
        inputs_a;
      List.iter
        (fun x -> Alcotest.(check bool) "b" true (Server.submit srv b (ping_record x) = `Ok))
        inputs_b;
      Server.drain srv;
      Alcotest.(check bool) "draining" true (Server.is_draining srv);
      (* After drain every response must already sit in its session's
         queue — no waiting, no further engine work. *)
      let rsa = Server.poll srv a ~max:1000 and rsb = Server.poll srv b ~max:1000 in
      Alcotest.check ints "session A drained multiset" (reference inputs_a)
        (List.map y_exn rsa);
      Alcotest.check ints "session B drained multiset" (reference inputs_b)
        (List.map y_exn rsb);
      Alcotest.(check bool)
        "submissions rejected mid-drain" true
        (Server.submit srv a (ping_record 1) = `Draining);
      (match Server.open_session srv with
      | Error `Draining -> ()
      | Ok _ | Error `Full -> Alcotest.fail "open accepted during drain");
      Alcotest.(check int) "nothing dropped" 0 (Server.health srv).Server.dropped)

(* --- detcheck: drain vs submit/open race ------------------------- *)

(* Under the virtual scheduler, race a client fiber (submitting, then
   opening a second session) against a drain, across seeds. Invariant,
   any interleaving: responses delivered = submissions accepted (the
   drain guarantee), and a session opened concurrently with the drain
   either lost the race ([`Draining]) or was admitted and then had its
   queue closed by the drain. *)
let drain_race_seed seed =
  let res, _trace =
    Sv.run ~strategy:(Strategy.random ~seed) (fun sched ->
        let exec = Sv.exec sched in
        let srv =
          Server.create ~exec
            ~cfg:{ Server.max_sessions = 4; credits = 8; batch = 1; idle_timeout = 0. }
            (Sudoku.Networks.ping ())
        in
        let s = ok_session (Server.open_session srv) in
        let accepted = ref 0 in
        let late_open = ref `Pending in
        let client =
          Sv.Platform.spawn (fun () ->
              for i = 1 to 3 do
                match Server.submit srv s (ping_record i) with
                | `Ok -> incr accepted
                | `Draining -> ()
                | `Closed -> Alcotest.fail "session closed unexpectedly"
              done;
              late_open :=
                match Server.open_session srv with
                | Ok s2 -> `Opened s2
                | Error `Draining -> `Draining
                | Error `Full -> `Full)
        in
        Server.drain srv;
        Sv.Platform.join client;
        let delivered = Server.poll srv s ~max:100 in
        (!accepted, List.length delivered, !late_open))
  in
  match res with
  | Error e -> raise e
  | Ok (accepted, delivered, late_open) ->
      Alcotest.(check int)
        (Printf.sprintf "seed %d: delivered = accepted" seed)
        accepted delivered;
      (match late_open with
      | `Draining -> ()
      | `Opened s2 ->
          (* Admitted before the drain flag flipped: the drain must
             still have closed it out cleanly. *)
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: late session closed by drain" seed)
            true (Server.closed s2)
      | `Full -> Alcotest.fail "admission cap hit in race test"
      | `Pending -> Alcotest.fail "client fiber never ran")

let test_detcheck_drain_race () =
  let base = 1_000 * (try int_of_string (Sys.getenv "DETCHECK_SEED") with _ -> 1) in
  for seed = base to base + 14 do
    drain_race_seed seed
  done

(* --- the framed session protocol over loopback ------------------- *)

let with_conn_server ?cfg:(c = cfg ()) f =
  with_server ~cfg:c (fun srv ->
      let client_end, server_end = Transport.loopback_pair ~capacity:256 () in
      let handler = Thread.create (fun () -> Server.serve_conn srv server_end) () in
      Fun.protect ~finally:(fun () -> Thread.join handler) (fun () ->
          f srv client_end))

let test_protocol_roundtrip () =
  with_conn_server (fun _srv conn ->
      let c = Result.get_ok (Client.connect ~credits:4 conn) in
      Alcotest.(check int) "clamped window" 4 (Client.window c);
      let n = 25 in
      (* More submissions than credits: progress proves grants flow. *)
      for i = 1 to n do
        match Client.submit c (ping_record i) with
        | `Ok -> ()
        | `Draining | `Done | `Crashed _ -> Alcotest.fail "submit failed"
      done;
      let rec take acc k =
        if k = 0 then acc
        else
          match Client.recv c with
          | `Record r -> take (y_exn r :: acc) (k - 1)
          | `Done -> Alcotest.fail "premature Done"
          | `Crashed e -> Alcotest.fail ("crash: " ^ e)
      in
      let got = take [] n in
      Alcotest.check ints "responses" (List.init n (fun i -> i + 2)) got;
      Alcotest.(check (list pass)) "clean close" [] (Client.drain_remaining c))

let test_protocol_admission_reject () =
  with_conn_server ~cfg:(cfg ~max_sessions:1 ()) (fun srv conn ->
      let c = Result.get_ok (Client.connect conn) in
      (* The slot is taken: a second connection is rejected in-band. *)
      let client2, server2 = Transport.loopback_pair () in
      let h2 = Thread.create (fun () -> Server.serve_conn srv server2) () in
      (match Client.connect client2 with
      | Error reason ->
          Alcotest.(check string) "reason" "session limit reached" reason
      | Ok _ -> Alcotest.fail "second session admitted past the cap");
      Thread.join h2;
      Alcotest.(check (list pass)) "first session drains clean" []
        (Client.drain_remaining c))

let test_protocol_close_flushes () =
  with_conn_server (fun srv conn ->
      let c = Result.get_ok (Client.connect conn) in
      for i = 1 to 8 do
        Alcotest.(check bool) "submit" true (Client.submit c (ping_record i) = `Ok)
      done;
      (* Wait until the server has pushed all 8 responses towards the
         client, but read none of them — then close. Done must come
         after the queued responses, never instead of them. *)
      await "server-side delivery" (fun () ->
          (Server.health srv).Server.delivered >= 8);
      let rs = Client.drain_remaining c in
      Alcotest.check ints "flush-before-Done" (List.init 8 (fun i -> i + 2))
        (List.map y_exn rs))

(* --- socket-backed cases (gated like the dist suite's) ----------- *)

(* Regression: a signal landing mid-transfer must not abort the TCP
   transport's read/write/select loops. An interval timer storms the
   process with SIGALRM while a payload crosses a real socket many
   times the kernel buffer size, forcing EINTR into blocked writes and
   reads; before the restart fix this raised Unix_error(EINTR). *)
let test_eintr_mid_transfer () =
  if not (tcp_enabled ()) then Alcotest.skip ()
  else begin
    let fired = ref 0 in
    let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> incr fired)) in
    let old_timer =
      Unix.setitimer Unix.ITIMER_REAL
        { Unix.it_value = 0.002; it_interval = 0.002 }
    in
    Fun.protect
      ~finally:(fun () ->
        ignore (Unix.setitimer Unix.ITIMER_REAL old_timer);
        ignore (Sys.signal Sys.sigalrm old))
      (fun () ->
        let l = Transport.Tcp.listen () in
        let port = Transport.Tcp.port l in
        let payload = String.init (4 * 1024 * 1024) (fun i -> Char.chr (i land 0xff)) in
        let got = ref None in
        let server =
          Thread.create
            (fun () ->
              let c = Transport.Tcp.accept ~timeout_s:10. l in
              (match Transport.Tcp.recv c with
              | `Msg m -> got := Some m
              | `Closed -> ());
              (* Echo it back so both directions cross the timer. *)
              (match !got with
              | Some m -> Transport.Tcp.send c m
              | None -> ());
              Transport.Tcp.close c)
            ()
        in
        let c = Transport.Tcp.connect ~host:"127.0.0.1" ~port in
        Transport.Tcp.send c payload;
        let echoed =
          match Transport.Tcp.recv c with `Msg m -> m | `Closed -> ""
        in
        Thread.join server;
        Transport.Tcp.close c;
        Transport.Tcp.close_listener l;
        Alcotest.(check bool) "payload intact" true (Some payload = !got);
        Alcotest.(check bool) "echo intact" true (payload = echoed);
        Alcotest.(check bool) "timer actually fired" true (!fired > 0))
  end

(* try_accept under the same signal storm: a timeout elapses cleanly
   (None), and an arriving connection is still accepted. *)
let test_eintr_try_accept () =
  if not (tcp_enabled ()) then Alcotest.skip ()
  else begin
    let fired = ref 0 in
    let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> incr fired)) in
    let old_timer =
      Unix.setitimer Unix.ITIMER_REAL
        { Unix.it_value = 0.002; it_interval = 0.002 }
    in
    Fun.protect
      ~finally:(fun () ->
        ignore (Unix.setitimer Unix.ITIMER_REAL old_timer);
        ignore (Sys.signal Sys.sigalrm old))
      (fun () ->
        let l = Transport.Tcp.listen () in
        Alcotest.(check bool)
          "timeout elapses despite signals" true
          (Transport.Tcp.try_accept ~timeout_s:0.1 l = None);
        let port = Transport.Tcp.port l in
        let dialer =
          Thread.create
            (fun () ->
              let c = Transport.Tcp.connect ~host:"127.0.0.1" ~port in
              Transport.Tcp.send c "hi";
              Transport.Tcp.close c)
            ()
        in
        (match Transport.Tcp.try_accept ~timeout_s:10. l with
        | None -> Alcotest.fail "no connection accepted"
        | Some c ->
            (match Transport.Tcp.recv c with
            | `Msg m -> Alcotest.(check string) "frame" "hi" m
            | `Closed -> Alcotest.fail "peer vanished");
            Transport.Tcp.close c);
        Thread.join dialer;
        Transport.Tcp.close_listener l;
        Alcotest.(check bool) "timer actually fired" true (!fired > 0))
  end

(* Many real-TCP sessions at once, each with its own multiset (the
   bench pushes this to 32+ sessions with a latency bar; this is the
   correctness-sized version). *)
let test_tcp_sessions () =
  if not (tcp_enabled ()) then Alcotest.skip ()
  else
    with_server ~cfg:(cfg ~max_sessions:16 ~credits:32 ()) (fun srv ->
        let l = Transport.Tcp.listen () in
        let port = Transport.Tcp.port l in
        let stop = ref false in
        let acceptor =
          Thread.create
            (fun () ->
              let handlers = ref [] in
              while not !stop do
                match Transport.Tcp.try_accept ~timeout_s:0.1 l with
                | None -> ()
                | Some tcp ->
                    let conn = Transport.erase (module Transport.Tcp) tcp in
                    handlers :=
                      Thread.create (fun () -> Server.serve_conn srv conn) ()
                      :: !handlers
              done;
              List.iter Thread.join !handlers)
            ()
        in
        let sessions = 8 and per = 30 in
        let results = Array.make sessions [] in
        let drivers =
          List.init sessions (fun k ->
              Thread.create
                (fun () ->
                  let conn =
                    Transport.erase
                      (module Transport.Tcp)
                      (Transport.Tcp.connect ~host:"127.0.0.1" ~port)
                  in
                  let c = Result.get_ok (Client.connect conn) in
                  for i = 0 to per - 1 do
                    match Client.submit c (ping_record ((1000 * k) + i)) with
                    | `Ok -> ()
                    | _ -> Alcotest.fail "submit failed"
                  done;
                  (* Collect every response owed before closing —
                     Close_session drops work still inside the net. *)
                  let rec take acc n =
                    if n = 0 then acc
                    else
                      match Client.recv c with
                      | `Record r -> take (y_exn r :: acc) (n - 1)
                      | `Done -> Alcotest.fail "premature Done"
                      | `Crashed e -> Alcotest.fail ("crash: " ^ e)
                  in
                  let got = take [] per in
                  Alcotest.(check (list pass)) "clean close" []
                    (Client.drain_remaining c);
                  results.(k) <- got)
                ())
        in
        List.iter Thread.join drivers;
        stop := true;
        Thread.join acceptor;
        Transport.Tcp.close_listener l;
        for k = 0 to sessions - 1 do
          Alcotest.check ints
            (Printf.sprintf "session %d multiset" k)
            (List.init per (fun i -> (1000 * k) + i + 1))
            results.(k)
        done)

(* --- HTTP gateway ------------------------------------------------ *)

(* The record <-> JSON mapping is pure: test it ungated. *)
let test_record_json () =
  let ctx = Dist.Wire.ctx () in
  let r = Record.(empty |> with_tag "x" 7 |> with_tag "serve_session" 3) in
  let j = Http_gw.record_to_json ~ctx r in
  (match Http_gw.record_of_json ~ctx j with
  | Ok r' -> Alcotest.(check bool) "tag round trip" true (Record.equal r r')
  | Error e -> Alcotest.fail e);
  (* A record with field payloads round-trips through frame_hex. *)
  let rf =
    Record.with_field "note"
      (Snet.Value.inject Dist.Wire.string_key "hello")
      (Record.with_tag "x" 1 Record.empty)
  in
  let jf = Http_gw.record_to_json ~ctx rf in
  (match Http_gw.record_of_json ~ctx jf with
  | Ok r' ->
      (* Field values don't support structural equality across a codec
         round-trip; equal frames do (the dist suite's idiom). *)
      Alcotest.(check string) "frame round trip"
        (Dist.Wire.render ~ctx rf) (Dist.Wire.render ~ctx r')
  | Error e -> Alcotest.fail e);
  match
    Http_gw.record_of_json ~ctx
      (Obsv.Jsonx.Obj [ ("tags", Obsv.Jsonx.Obj [ ("x", Obsv.Jsonx.Str "no") ]) ])
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-integer tag accepted"

let http_request ~port req =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
      let b = Bytes.of_string req in
      let rec wr pos =
        if pos < Bytes.length b then
          wr (pos + Unix.write fd b pos (Bytes.length b - pos))
      in
      wr 0;
      let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
      let rec rd () =
        let n = Unix.read fd chunk 0 4096 in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          rd ()
        end
      in
      (try rd () with Unix.Unix_error _ -> ());
      Buffer.contents buf)

let http ~port meth path body =
  let raw =
    http_request ~port
      (Printf.sprintf "%s %s HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s"
         meth path (String.length body) body)
  in
  match String.index_opt raw ' ' with
  | None -> Alcotest.fail ("no HTTP status in: " ^ raw)
  | Some sp -> (
      let status = int_of_string (String.sub raw (sp + 1) 3) in
      let rec find i =
        if i + 3 >= String.length raw then String.length raw
        else if String.sub raw i 4 = "\r\n\r\n" then i + 4
        else find (i + 1)
      in
      let body_at = find 0 in
      let body = String.sub raw body_at (String.length raw - body_at) in
      match Obsv.Jsonx.parse body with
      | Ok j -> (status, j)
      | Error e -> Alcotest.failf "bad JSON body %S: %s" body e)

let test_http_gateway () =
  if not (tcp_enabled ()) then Alcotest.skip ()
  else
    with_server (fun srv ->
        let gw = Http_gw.start srv in
        Fun.protect ~finally:(fun () -> Http_gw.stop gw) (fun () ->
            let port = Http_gw.port gw in
            let status, h = http ~port "GET" "/health" "" in
            Alcotest.(check int) "health 200" 200 status;
            Alcotest.(check (option string))
              "health ok" (Some "ok")
              (Option.bind (Obsv.Jsonx.member "status" h) Obsv.Jsonx.to_string);
            let status, j = http ~port "POST" "/v1/session" "{}" in
            Alcotest.(check int) "open 201" 201 status;
            let sid =
              Option.get
                (Option.bind (Obsv.Jsonx.member "session" j) Obsv.Jsonx.to_int)
            in
            let path = Printf.sprintf "/v1/session/%d/records" sid in
            let status, j =
              http ~port "POST" path {|{"records":[{"tags":{"x":7}}]}|}
            in
            Alcotest.(check int) "submit 200" 200 status;
            Alcotest.(check (option int))
              "accepted" (Some 1)
              (Option.bind (Obsv.Jsonx.member "accepted" j) Obsv.Jsonx.to_int);
            let got = ref None in
            await "http response" (fun () ->
                let status, j = http ~port "GET" (path ^ "?max=10") "" in
                Alcotest.(check int) "poll 200" 200 status;
                match Obsv.Jsonx.member "records" j with
                | Some (Obsv.Jsonx.List (r :: _)) ->
                    got := Some r;
                    true
                | _ -> false);
            let y =
              Option.bind (Obsv.Jsonx.member "tags" (Option.get !got))
                (fun tags ->
                  Option.bind (Obsv.Jsonx.member "y" tags) Obsv.Jsonx.to_int)
            in
            Alcotest.(check (option int)) "y = x + 1" (Some 8) y;
            let status, _ =
              http ~port "DELETE" (Printf.sprintf "/v1/session/%d" sid) ""
            in
            Alcotest.(check int) "delete 200" 200 status;
            let status, _ = http ~port "GET" "/nope" "" in
            Alcotest.(check int) "unknown route 404" 404 status))

let suite =
  [
    Alcotest.test_case "batch cap validation" `Quick test_batch_validation;
    Alcotest.test_case "session lifecycle" `Quick test_lifecycle;
    Alcotest.test_case "admission control" `Quick test_admission;
    Alcotest.test_case "credit withholding" `Quick test_credit_withholding;
    Alcotest.test_case "interleaved sessions" `Quick test_interleaved_sessions;
    Alcotest.test_case "idle reap on virtual clock" `Quick test_reap_virtual_clock;
    Alcotest.test_case "graceful drain differential" `Quick test_drain_differential;
    Alcotest.test_case "detcheck drain race" `Quick test_detcheck_drain_race;
    Alcotest.test_case "protocol roundtrip (loopback)" `Quick test_protocol_roundtrip;
    Alcotest.test_case "protocol admission reject" `Quick test_protocol_admission_reject;
    Alcotest.test_case "close flushes responses" `Quick test_protocol_close_flushes;
    Alcotest.test_case "record JSON mapping" `Quick test_record_json;
    Alcotest.test_case "EINTR mid-transfer (tcp)" `Quick test_eintr_mid_transfer;
    Alcotest.test_case "EINTR try_accept (tcp)" `Quick test_eintr_try_accept;
    Alcotest.test_case "concurrent TCP sessions" `Quick test_tcp_sessions;
    Alcotest.test_case "HTTP gateway" `Quick test_http_gateway;
  ]
