type hello = {
  spec : string;
  part : int;
  parts : int;
  policy : string;
  timeout : float option;
  credits : int;
  crash_after : int;
  crash_flush : bool;
  batch : int;
  obsv : int;
  coord_pid : int;
  plan : string;
}

type session_ack = {
  session : int;
  ok : bool;
  sa_credits : int;
  sa_batch : int;
  reason : string;
}

type msg =
  | Hello of hello
  | Hello_ack of { part : int }
  | Data of Snet.Record.t
  | Credit of int
  | Eof
  | Done
  | Crash of string
  | Shutdown
  | Data_batch of Snet.Record.t list
  | Open_session of { credits : int; batch : int; resume : int }
  | Session_ack of session_ack
  | Close_session of { session : int }
  | Metrics_report of { part : int; payload : string }
  | Trace_chunk of { part : int; payload : string }
  | Migrate
  | Freeze_ack of { state : string }
  | Restore of { state : string }

let k_hello = 1
let k_hello_ack = 2
let k_data = 3
let k_credit = 4
let k_eof = 5
let k_done = 6
let k_crash = 7
let k_shutdown = 8
let k_data_batch = 9
let k_open_session = 10
let k_session_ack = 11
let k_close_session = 12
let k_metrics_report = 13
let k_trace_chunk = 14
let k_migrate = 15
let k_freeze_ack = 16
let k_restore = 17

(* The Hello spec under which a connection negotiates the session
   sub-protocol (Open_session/Session_ack/Close_session) instead of a
   worker partition. *)
let serve_spec = "serve/2"

let add_u32 b n = Buffer.add_int32_be b (Int32.of_int n)

let add_str b s =
  if String.length s > 0xFFFF then invalid_arg "Proto: string too long";
  Buffer.add_uint16_be b (String.length s);
  Buffer.add_string b s

let encode ?ctx m =
  match m with
  | Data r -> Wire.envelope ?ctx ~prefix:(Char.chr k_data) [ r ]
  | Data_batch rs -> Wire.envelope ?ctx ~prefix:(Char.chr k_data_batch) rs
  | _ ->
  let b = Buffer.create 64 in
  (match m with
  | Hello h ->
      Buffer.add_uint8 b k_hello;
      add_str b h.spec;
      add_u32 b h.part;
      add_u32 b h.parts;
      add_str b h.policy;
      (match h.timeout with
      | None -> Buffer.add_uint8 b 0
      | Some t ->
          Buffer.add_uint8 b 1;
          Buffer.add_int64_be b (Int64.bits_of_float t));
      add_u32 b h.credits;
      add_u32 b (h.crash_after land 0xFFFFFFFF);
      Buffer.add_uint8 b (if h.crash_flush then 1 else 0);
      add_u32 b h.batch;
      Buffer.add_uint8 b (h.obsv land 0xFF);
      add_u32 b h.coord_pid;
      add_str b h.plan
  | Hello_ack { part } ->
      Buffer.add_uint8 b k_hello_ack;
      add_u32 b part
  | Data _ | Data_batch _ -> assert false (* encoded above *)
  | Credit n ->
      Buffer.add_uint8 b k_credit;
      add_u32 b n
  | Eof -> Buffer.add_uint8 b k_eof
  | Done -> Buffer.add_uint8 b k_done
  | Crash msg ->
      Buffer.add_uint8 b k_crash;
      add_str b msg
  | Shutdown -> Buffer.add_uint8 b k_shutdown
  | Open_session { credits; batch; resume } ->
      Buffer.add_uint8 b k_open_session;
      add_u32 b credits;
      add_u32 b batch;
      (* [-1] (no resume) rides as 0 so the field stays unsigned. *)
      add_u32 b (resume + 1)
  | Session_ack a ->
      Buffer.add_uint8 b k_session_ack;
      add_u32 b a.session;
      Buffer.add_uint8 b (if a.ok then 1 else 0);
      add_u32 b a.sa_credits;
      add_u32 b a.sa_batch;
      add_str b a.reason
  | Close_session { session } ->
      Buffer.add_uint8 b k_close_session;
      add_u32 b session
  | Metrics_report { part; payload } ->
      (* Observability payloads use u32 lengths: a raw-bucket report or
         trace chunk routinely exceeds the u16 string cap. *)
      Buffer.add_uint8 b k_metrics_report;
      add_u32 b part;
      add_u32 b (String.length payload);
      Buffer.add_string b payload
  | Trace_chunk { part; payload } ->
      Buffer.add_uint8 b k_trace_chunk;
      add_u32 b part;
      add_u32 b (String.length payload);
      Buffer.add_string b payload
  | Migrate -> Buffer.add_uint8 b k_migrate
  | Freeze_ack { state } ->
      (* Captured engine state uses a u32 length like the other
         observability payloads: it scales with live synchrocells. *)
      Buffer.add_uint8 b k_freeze_ack;
      add_u32 b (String.length state);
      Buffer.add_string b state
  | Restore { state } ->
      Buffer.add_uint8 b k_restore;
      add_u32 b (String.length state);
      Buffer.add_string b state);
  Buffer.contents b

(* Cut [rs] into envelopes of at most [batch] records, in order; a
   singleton envelope goes as plain Data, so a cap of 1 sends plain
   Data throughout. *)
let chunk ~batch rs =
  let rec take k chunk = function
    | r :: rs when k > 0 -> take (k - 1) (r :: chunk) rs
    | rest -> (List.rev chunk, rest)
  in
  let rec go acc = function
    | [] -> List.rev acc
    | rs ->
        let chunk, rest = take (max 1 batch) [] rs in
        go ((match chunk with [ r ] -> Data r | _ -> Data_batch chunk) :: acc) rest
  in
  go [] rs

let data_msgs ?ctx ~batch rs = List.map (encode ?ctx) (chunk ~batch rs)

exception Bad of string

let decode ?ctx s =
  match
    let len = String.length s in
    if len < 1 then raise (Bad "empty message");
    let pos = ref 1 in
    let need n =
      if !pos + n > len then raise (Bad "truncated message")
    in
    let u8 () = need 1; let v = Char.code s.[!pos] in incr pos; v in
    let u32 () =
      need 4;
      let v = Int32.to_int (String.get_int32_be s !pos) land 0xFFFFFFFF in
      pos := !pos + 4;
      v
    in
    let i64 () =
      need 8;
      let v = String.get_int64_be s !pos in
      pos := !pos + 8;
      v
    in
    let str () =
      need 2;
      let n = String.get_uint16_be s !pos in
      pos := !pos + 2;
      need n;
      let v = String.sub s !pos n in
      pos := !pos + n;
      v
    in
    let finish m =
      if !pos <> len then raise (Bad "trailing bytes in message");
      m
    in
    match Char.code s.[0] with
    | k when k = k_hello ->
        let spec = str () in
        let part = u32 () in
        let parts = u32 () in
        let policy = str () in
        let timeout =
          match u8 () with
          | 0 -> None
          | _ -> Some (Int64.float_of_bits (i64 ()))
        in
        let credits = u32 () in
        let crash_after =
          let v = u32 () in
          if v = 0xFFFFFFFF then -1 else v
        in
        let crash_flush = u8 () <> 0 in
        let batch = u32 () in
        let obsv = u8 () in
        let coord_pid = u32 () in
        let plan = str () in
        (* Reject a malformed or inconsistent shard map here, with a
           message that names the problem, instead of letting the
           worker crash on an out-of-bounds partition lookup later. *)
        if plan <> "" then begin
          match Plan.decode plan with
          | Error e -> raise (Bad e)
          | Ok p ->
              let pparts = Plan.parts p in
              if pparts <> parts then
                raise
                  (Bad
                     (Printf.sprintf
                        "shard map %S implies %d partitions but Hello says \
                         parts=%d"
                        plan pparts parts));
              if part >= parts then
                raise
                  (Bad
                     (Printf.sprintf
                        "Hello partition index %d out of range (parts=%d)"
                        part parts))
        end;
        finish
          (Hello
             {
               spec;
               part;
               parts;
               policy;
               timeout;
               credits;
               crash_after;
               crash_flush;
               batch;
               obsv;
               coord_pid;
               plan;
             })
    | k when k = k_hello_ack -> finish (Hello_ack { part = u32 () })
    | k when k = k_data -> (
        match Wire.read_envelope ?ctx s ~pos:1 with
        | Ok [ r ] -> Data r
        | Ok rs ->
            raise
              (Bad
                 (Printf.sprintf "Data envelope holds %d records, not 1"
                    (List.length rs)))
        | Error e -> raise (Bad ("bad Data envelope: " ^ e)))
    | k when k = k_data_batch -> (
        match Wire.read_envelope ?ctx s ~pos:1 with
        | Ok rs -> Data_batch rs
        | Error e -> raise (Bad ("bad Data_batch envelope: " ^ e)))
    | k when k = k_credit -> finish (Credit (u32 ()))
    | k when k = k_eof -> finish Eof
    | k when k = k_done -> finish Done
    | k when k = k_crash -> finish (Crash (str ()))
    | k when k = k_shutdown -> finish Shutdown
    | k when k = k_open_session ->
        let credits = u32 () in
        let batch = u32 () in
        let resume = u32 () - 1 in
        finish (Open_session { credits; batch; resume })
    | k when k = k_session_ack ->
        let session = u32 () in
        let ok = u8 () <> 0 in
        let sa_credits = u32 () in
        let sa_batch = u32 () in
        let reason = str () in
        finish (Session_ack { session; ok; sa_credits; sa_batch; reason })
    | k when k = k_close_session -> finish (Close_session { session = u32 () })
    | k when k = k_metrics_report || k = k_trace_chunk ->
        let part = u32 () in
        let n = u32 () in
        need n;
        let payload = String.sub s !pos n in
        pos := !pos + n;
        finish
          (if k = k_metrics_report then Metrics_report { part; payload }
           else Trace_chunk { part; payload })
    | k when k = k_migrate -> finish Migrate
    | k when k = k_freeze_ack || k = k_restore ->
        let n = u32 () in
        need n;
        let state = String.sub s !pos n in
        pos := !pos + n;
        finish
          (if k = k_freeze_ack then Freeze_ack { state }
           else Restore { state })
    | k -> raise (Bad (Printf.sprintf "unknown message kind %d" k))
  with
  | m -> Ok m
  | exception Bad e -> Error e
  | exception e -> Error (Printexc.to_string e)

let to_string = function
  | Hello h ->
      Printf.sprintf "Hello{spec=%s part=%d/%d policy=%S credits=%d batch=%d%s}"
        h.spec h.part h.parts h.policy h.credits h.batch
        (if h.plan = "" then "" else Printf.sprintf " plan=%S" h.plan)
  | Hello_ack { part } -> Printf.sprintf "Hello_ack{part=%d}" part
  | Data r -> "Data " ^ Snet.Record.to_string r
  | Data_batch rs -> Printf.sprintf "Data_batch[%d]" (List.length rs)
  | Credit n -> Printf.sprintf "Credit %d" n
  | Eof -> "Eof"
  | Done -> "Done"
  | Crash m -> Printf.sprintf "Crash %S" m
  | Shutdown -> "Shutdown"
  | Open_session { credits; batch; resume } ->
      if resume >= 0 then
        Printf.sprintf "Open_session{resume=%d credits=%d batch=%d}" resume
          credits batch
      else Printf.sprintf "Open_session{credits=%d batch=%d}" credits batch
  | Session_ack a ->
      if a.ok then
        Printf.sprintf "Session_ack{session=%d credits=%d batch=%d}" a.session
          a.sa_credits a.sa_batch
      else Printf.sprintf "Session_ack{rejected: %s}" a.reason
  | Close_session { session } -> Printf.sprintf "Close_session{session=%d}" session
  | Metrics_report { part; payload } ->
      Printf.sprintf "Metrics_report{part=%d %dB}" part (String.length payload)
  | Trace_chunk { part; payload } ->
      Printf.sprintf "Trace_chunk{part=%d %dB}" part (String.length payload)
  | Migrate -> "Migrate"
  | Freeze_ack { state } ->
      Printf.sprintf "Freeze_ack{%dB}" (String.length state)
  | Restore { state } -> Printf.sprintf "Restore{%dB}" (String.length state)
