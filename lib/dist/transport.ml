exception Closed_conn

module type S = sig
  type t

  val send : t -> string -> unit
  val send_many : t -> string list -> unit
  val recv : t -> [ `Msg of string | `Closed ]
  val close : t -> unit
  val peer : t -> string
end

type conn = {
  c_send : string -> unit;
  c_send_many : string list -> unit;
  c_recv : unit -> [ `Msg of string | `Closed ];
  c_close : unit -> unit;
  c_peer : string;
}

let erase (type a) (module M : S with type t = a) (c : a) =
  {
    c_send = M.send c;
    c_send_many = M.send_many c;
    c_recv = (fun () -> M.recv c);
    c_close = (fun () -> M.close c);
    c_peer = M.peer c;
  }

let send c m = c.c_send m
let send_many c ms = c.c_send_many ms
let recv c = c.c_recv ()
let close c = c.c_close ()
let peer c = c.c_peer

(* ------------------------------------------------------------------ *)
(* Loopback: two bounded channels                                      *)

module Loopback = struct
  type t = {
    out_ch : string Streams.Channel.t;
    in_ch : string Streams.Channel.t;
    name : string;
  }

  let pair ?(capacity = 64) ?(name = "loopback") () =
    let a2b = Streams.Channel.create ~capacity ()
    and b2a = Streams.Channel.create ~capacity () in
    ( { out_ch = a2b; in_ch = b2a; name = name ^ ":a" },
      { out_ch = b2a; in_ch = a2b; name = name ^ ":b" } )

  let send t m =
    try Streams.Channel.send t.out_ch m
    with Streams.Channel.Closed -> raise Closed_conn

  let send_many t ms = List.iter (send t) ms

  let recv t =
    match Streams.Channel.recv t.in_ch with
    | `Msg m -> `Msg m
    | `Closed -> `Closed

  let close t =
    Streams.Channel.close t.out_ch;
    Streams.Channel.close t.in_ch

  let peer t = t.name
end

let loopback_pair ?capacity ?name () =
  let a, b = Loopback.pair ?capacity ?name () in
  (erase (module Loopback) a, erase (module Loopback) b)

(* ------------------------------------------------------------------ *)
(* TCP: length-prefixed frames over a Unix socket                      *)

module Tcp = struct
  let max_frame = 64 * 1024 * 1024

  (* Every blocking syscall below restarts on EINTR: a long-running
     daemon (snet_serve) handles SIGTERM/SIGALRM, and OCaml delivers
     signals by interrupting whatever syscall a thread is parked in —
     without the restart a signal mid-transfer kills the connection
     with [Unix_error (EINTR, _, _)]. *)
  let rec restart f = try f () with Unix.Unix_error (EINTR, _, _) -> restart f

  type t = {
    fd : Unix.file_descr;
    mutable open_ : bool;
    (* A recv is under way: [close] then leaves the fd to it, so the
       descriptor is never released — and its number reused by a new
       connection — under a reader that is about to read it again. *)
    mutable reading : bool;
    mu : Mutex.t;  (* guards open_ and reading *)
    wmu : Mutex.t;
        (* serialises writers: prefix+payload of one message (and the
           messages of one [send_many]) must hit the stream
           contiguously. [close] takes only [mu], so it can still
           shut the socket down under a writer blocked in [write]. *)
    mutable scratch : Bytes.t;  (* write coalescing buffer; under wmu *)
    peer_name : string;
  }

  (* OCaml delivers SIGPIPE as a signal by default; a worker death must
     surface as an EPIPE exception on the coordinator's write instead
     of killing the process. *)
  let ignore_sigpipe =
    lazy (if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore)

  let of_fd fd peer_name =
    Lazy.force ignore_sigpipe;
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
    {
      fd;
      open_ = true;
      reading = false;
      mu = Mutex.create ();
      wmu = Mutex.create ();
      scratch = Bytes.create 4096;
      peer_name;
    }

  let really_write fd b off len =
    let off = ref off and len = ref len in
    while !len > 0 do
      let n = restart (fun () -> Unix.write fd b !off !len) in
      off := !off + n;
      len := !len - n
    done

  (* [false] on clean EOF mid-read. *)
  let really_read fd b off len =
    let off = ref off and len = ref len and ok = ref true in
    while !ok && !len > 0 do
      let n = restart (fun () -> Unix.read fd b !off !len) in
      if n = 0 then ok := false
      else begin
        off := !off + n;
        len := !len - n
      end
    done;
    !ok

  (* Coalesce [ms] — each as u32 length prefix + payload — into the
     per-connection scratch buffer and issue ONE write for the lot:
     the vectored-write path of batched edges, and (with a singleton
     list) the single-syscall path of ordinary sends. *)
  let send_many t ms =
    let total =
      List.fold_left
        (fun acc m ->
          let len = String.length m in
          if len > max_frame then invalid_arg "Tcp.send: frame exceeds max_frame";
          acc + 4 + len)
        0 ms
    in
    if total > 0 then begin
      Mutex.lock t.mu;
      let closed = not t.open_ in
      Mutex.unlock t.mu;
      if closed then raise Closed_conn;
      Mutex.lock t.wmu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.wmu)
        (fun () ->
          if Bytes.length t.scratch < total then
            t.scratch <- Bytes.create (max total (2 * Bytes.length t.scratch));
          let off = ref 0 in
          List.iter
            (fun m ->
              let len = String.length m in
              Bytes.set_int32_be t.scratch !off (Int32.of_int len);
              Bytes.blit_string m 0 t.scratch (!off + 4) len;
              off := !off + 4 + len)
            ms;
          match really_write t.fd t.scratch 0 total with
          | () -> ()
          | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
              raise Closed_conn)
    end

  let send t m = send_many t [ m ]

  let read_msg t =
    let hdr = Bytes.create 4 in
    match really_read t.fd hdr 0 4 with
    | false -> `Closed
    | exception Unix.Unix_error ((ECONNRESET | EBADF), _, _) -> `Closed
    | true -> (
        let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
        if len < 0 || len > max_frame then `Closed
        else
          let body = Bytes.create len in
          match really_read t.fd body 0 len with
          | true -> `Msg (Bytes.unsafe_to_string body)
          | false -> `Closed
          | exception Unix.Unix_error ((ECONNRESET | EBADF), _, _) -> `Closed)

  let recv t =
    Mutex.lock t.mu;
    let live = t.open_ in
    t.reading <- live;
    Mutex.unlock t.mu;
    if not live then `Closed
    else
      Fun.protect
        ~finally:(fun () ->
          Mutex.lock t.mu;
          t.reading <- false;
          let release = not t.open_ in
          Mutex.unlock t.mu;
          if release then try Unix.close t.fd with _ -> ())
        (fun () -> read_msg t)

  let close t =
    Mutex.lock t.mu;
    let was_open = t.open_ and reading = t.reading in
    t.open_ <- false;
    Mutex.unlock t.mu;
    if was_open then begin
      (* Wakes a blocked recv, which then releases the fd itself. *)
      (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with _ -> ());
      if not reading then try Unix.close t.fd with _ -> ()
    end

  let peer t = t.peer_name

  type listener = { lfd : Unix.file_descr; lport : int }

  let listen ?(host = "127.0.0.1") ?(port = 0) ?(backlog = 16) () =
    Lazy.force ignore_sigpipe;
    let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd addr;
    Unix.listen fd backlog;
    let lport =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    { lfd = fd; lport }

  let port l = l.lport

  (* EINTR-safe readiness wait with a deadline; [true] when readable. *)
  let wait_readable fd deadline =
    let rec go () =
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0. then false
      else
        match Unix.select [ fd ] [] [] remaining with
        | [], _, _ -> false
        | _ -> true
        | exception Unix.Unix_error (EINTR, _, _) -> go ()
    in
    go ()

  let conn_of_accepted (fd, addr) =
    let name =
      match addr with
      | Unix.ADDR_INET (a, p) ->
          Printf.sprintf "tcp:%s:%d" (Unix.string_of_inet_addr a) p
      | _ -> "tcp:?"
    in
    of_fd fd name

  let accept ?timeout_s l =
    (match timeout_s with
    | None -> ()
    | Some t ->
        if not (wait_readable l.lfd (Unix.gettimeofday () +. t)) then
          failwith (Printf.sprintf "Tcp.accept: no connection within %.1fs" t));
    conn_of_accepted (restart (fun () -> Unix.accept l.lfd))

  (* Bounded accept for server loops: [None] on timeout (so the caller
     can check a shutdown flag and come back), never an exception for
     the no-connection case. *)
  let try_accept ~timeout_s l =
    if not (wait_readable l.lfd (Unix.gettimeofday () +. timeout_s)) then None
    else
      match restart (fun () -> Unix.accept l.lfd) with
      | fd_addr -> Some (conn_of_accepted fd_addr)
      | exception Unix.Unix_error ((ECONNABORTED | EAGAIN | EWOULDBLOCK), _, _)
        ->
          None

  let connect ~host ~port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
       try Unix.connect fd addr
       with Unix.Unix_error (EINTR, _, _) ->
         (* A connect interrupted by a signal completes asynchronously:
            retrying it raises EALREADY, so wait for writability and
            read the outcome from SO_ERROR instead. *)
         let rec wait () =
           match Unix.select [] [ fd ] [] (-1.) with
           | _, _ :: _, _ -> ()
           | _ -> wait ()
           | exception Unix.Unix_error (EINTR, _, _) -> wait ()
         in
         wait ();
         (match Unix.getsockopt_error fd with
         | None -> ()
         | Some err -> raise (Unix.Unix_error (err, "connect", "")))
     with e ->
       (try Unix.close fd with _ -> ());
       raise e);
    of_fd fd (Printf.sprintf "tcp:%s:%d" host port)

  let close_listener l = try Unix.close l.lfd with _ -> ()
end
