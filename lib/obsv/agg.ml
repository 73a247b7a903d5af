(* Cluster aggregation: worker report/trace codecs, the coordinator
   collector, clock rebase and the merged Chrome trace. See agg.mli. *)

(* --- binary codec ----------------------------------------------------
   Shared by Metrics_report and Trace_chunk payloads. Big-endian,
   u32-length strings (report payloads routinely exceed the 64 KiB cap
   of the control-frame string encoding), one leading magic/version
   byte pair so a foreign payload fails loudly. *)

exception Bad of string

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))
let add_u32 b v = Buffer.add_int32_be b (Int32.of_int v)
let add_i64 b v = Buffer.add_int64_be b (Int64.of_int v)
let add_f64 b v = Buffer.add_int64_be b (Int64.bits_of_float v)

let add_str b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

type cursor = { data : string; mutable pos : int }

let need c n =
  if c.pos + n > String.length c.data then raise (Bad "truncated payload")

let get_u8 c =
  need c 1;
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u32 c =
  need c 4;
  let v = String.get_int32_be c.data c.pos in
  c.pos <- c.pos + 4;
  let v = Int32.to_int v land 0xFFFFFFFF in
  v

let get_i64 c =
  need c 8;
  let v = String.get_int64_be c.data c.pos in
  c.pos <- c.pos + 8;
  Int64.to_int v

let get_f64 c =
  need c 8;
  let v = Int64.float_of_bits (String.get_int64_be c.data c.pos) in
  c.pos <- c.pos + 8;
  v

let get_str c =
  let n = get_u32 c in
  need c n;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let finish c =
  if c.pos <> String.length c.data then raise (Bad "trailing bytes in payload")

let decoding f s =
  match f { data = s; pos = 0 } with
  | v -> Ok v
  | exception Bad e -> Error e
  | exception _ -> Error "malformed payload"

(* --- metrics raw codec ------------------------------------------------ *)

(* Sparse: bucket arrays are overwhelmingly zero (a span that only
   ever lands in a handful of latency buckets still carries 344
   slots), so arrays travel as (length, nonzero count, (index, value)
   pairs) — an order of magnitude smaller on real reports. *)
let add_int_array b a =
  add_u32 b (Array.length a);
  let nz = ref 0 in
  Array.iter (fun v -> if v <> 0 then incr nz) a;
  add_u32 b !nz;
  Array.iteri
    (fun i v ->
      if v <> 0 then begin
        add_u32 b i;
        add_u32 b v
      end)
    a

let get_int_array c =
  let n = get_u32 c in
  if n > 1_000_000 then raise (Bad "oversized array");
  let nz = get_u32 c in
  if nz > n then raise (Bad "oversized array");
  let a = Array.make n 0 in
  for _ = 1 to nz do
    let i = get_u32 c in
    if i >= n then raise (Bad "bucket index out of range");
    a.(i) <- get_u32 c
  done;
  a

let add_raw b (r : Metrics.raw) =
  add_u32 b (List.length r.raw_spans);
  List.iter
    (fun (key, (s : Metrics.raw_span)) ->
      add_str b key;
      add_int_array b s.r_buckets;
      add_i64 b s.r_total_ns;
      add_i64 b s.r_max_ns)
    r.raw_spans;
  add_u32 b (List.length r.raw_edges);
  List.iter
    (fun (name, (e : Metrics.raw_edge)) ->
      add_str b name;
      add_i64 b e.r_sends;
      add_i64 b e.r_recvs;
      add_i64 b e.r_stalls;
      add_i64 b e.r_hwm;
      add_i64 b e.r_batches;
      add_int_array b e.r_bsizes)
    r.raw_edges;
  add_i64 b r.raw_star_hwm;
  add_i64 b r.raw_star_stages

let get_raw c : Metrics.raw =
  let nspans = get_u32 c in
  let raw_spans =
    List.init nspans (fun _ ->
        let key = get_str c in
        let r_buckets = get_int_array c in
        let r_total_ns = get_i64 c in
        let r_max_ns = get_i64 c in
        (key, Metrics.{ r_buckets; r_total_ns; r_max_ns }))
  in
  let nedges = get_u32 c in
  let raw_edges =
    List.init nedges (fun _ ->
        let name = get_str c in
        let r_sends = get_i64 c in
        let r_recvs = get_i64 c in
        let r_stalls = get_i64 c in
        let r_hwm = get_i64 c in
        let r_batches = get_i64 c in
        let r_bsizes = get_int_array c in
        ( name,
          Metrics.{ r_sends; r_recvs; r_stalls; r_hwm; r_batches; r_bsizes } ))
  in
  let raw_star_hwm = get_i64 c in
  let raw_star_stages = get_i64 c in
  Metrics.{ raw_spans; raw_edges; raw_star_hwm; raw_star_stages }

(* --- reports ---------------------------------------------------------- *)

type report = {
  part : int;
  pid : int;
  hello_ts : float;
  sent_ts : float;
  metrics : Metrics.raw;
  journal : Journal_stats.snapshot;
  journal_lag_now : int;
}

let report_magic = 0xA6
let report_version = 1

let encode_report r =
  let b = Buffer.create 4096 in
  add_u8 b report_magic;
  add_u8 b report_version;
  add_u32 b r.part;
  add_i64 b r.pid;
  add_f64 b r.hello_ts;
  add_f64 b r.sent_ts;
  add_raw b r.metrics;
  let (j : Journal_stats.snapshot) = r.journal in
  add_i64 b j.appends;
  add_i64 b j.append_bytes;
  add_i64 b j.fsyncs;
  add_i64 b j.replays;
  add_i64 b j.snapshots;
  add_i64 b j.lag;
  add_i64 b r.journal_lag_now;
  Buffer.contents b

let decode_report =
  decoding (fun c ->
      if get_u8 c <> report_magic then raise (Bad "not a metrics report");
      if get_u8 c <> report_version then raise (Bad "report version mismatch");
      let part = get_u32 c in
      let pid = get_i64 c in
      let hello_ts = get_f64 c in
      let sent_ts = get_f64 c in
      let metrics = get_raw c in
      let appends = get_i64 c in
      let append_bytes = get_i64 c in
      let fsyncs = get_i64 c in
      let replays = get_i64 c in
      let snapshots = get_i64 c in
      let lag = get_i64 c in
      let journal_lag_now = get_i64 c in
      finish c;
      {
        part;
        pid;
        hello_ts;
        sent_ts;
        metrics;
        journal =
          Journal_stats.
            { appends; append_bytes; fsyncs; replays; snapshots; lag };
        journal_lag_now;
      })

let self_report ?(slim = false) ~part ~hello_ts () =
  {
    part;
    pid = Unix.getpid ();
    hello_ts;
    sent_ts = Sink.now ();
    (* Slim reports (in-process workers whose coordinator reads the
       shared tables directly) skip the bucket merge — the collector
       would discard a same-pid metrics payload anyway. *)
    metrics = (if slim then Metrics.empty_raw else Metrics.raw_snapshot ());
    journal = Journal_stats.snapshot ();
    journal_lag_now = Journal_stats.current_lag ();
  }

(* --- trace chunks ----------------------------------------------------- *)

type chunk = { c_part : int; c_pid : int; c_hello_ts : float; c_events : Sink.event list }

let chunk_magic = 0xA7
let chunk_version = 1

let kind_code : Sink.kind -> int = function
  | Sink.Begin -> 0
  | Sink.End -> 1
  | Sink.Instant -> 2
  | Sink.Counter -> 3
  | Sink.Flow_start -> 4
  | Sink.Flow_end -> 5

let kind_of_code = function
  | 0 -> Sink.Begin
  | 1 -> Sink.End
  | 2 -> Sink.Instant
  | 3 -> Sink.Counter
  | 4 -> Sink.Flow_start
  | 5 -> Sink.Flow_end
  | n -> raise (Bad (Printf.sprintf "unknown event kind %d" n))

let encode_chunk ch =
  let b = Buffer.create 65536 in
  add_u8 b chunk_magic;
  add_u8 b chunk_version;
  add_u32 b ch.c_part;
  add_i64 b ch.c_pid;
  add_f64 b ch.c_hello_ts;
  add_u32 b (List.length ch.c_events);
  List.iter
    (fun (e : Sink.event) ->
      add_i64 b e.seq;
      add_f64 b e.ts;
      add_i64 b e.track;
      add_u8 b (kind_code e.kind);
      add_str b e.cat;
      add_str b e.name;
      add_i64 b e.value)
    ch.c_events;
  Buffer.contents b

let decode_chunk =
  decoding (fun c ->
      if get_u8 c <> chunk_magic then raise (Bad "not a trace chunk");
      if get_u8 c <> chunk_version then raise (Bad "chunk version mismatch");
      let c_part = get_u32 c in
      let c_pid = get_i64 c in
      let c_hello_ts = get_f64 c in
      let n = get_u32 c in
      let c_events =
        List.init n (fun _ ->
            let seq = get_i64 c in
            let ts = get_f64 c in
            let track = get_i64 c in
            let kind = kind_of_code (get_u8 c) in
            let cat = get_str c in
            let name = get_str c in
            let value = get_i64 c in
            Sink.{ seq; ts; track; kind; cat; name; value })
      in
      finish c;
      { c_part; c_pid; c_hello_ts; c_events })

let self_chunk ~part ~hello_ts () =
  {
    c_part = part;
    c_pid = Unix.getpid ();
    c_hello_ts = hello_ts;
    c_events = Sink.events ();
  }

(* --- collector -------------------------------------------------------- *)

type wstate = {
  mutable alive : bool;
  mutable reason : string;
  mutable hello_sent_ts : float;
  mutable last_report : report option;
  mutable last_report_at : float;
  (* The report before [last_report]: stall rate is derived from the
     delta between the two, so a partition that stalled heavily during
     warm-up but runs clean now reads as healthy. *)
  mutable prev_report : report option;
  mutable chunks : chunk list;
  mutable g_queue : int;
  mutable g_credits : int;
  mutable g_window : int;
  mutable place : string;
  mutable migrations : int;
  mutable mig_downtime : float;
}

type collector = {
  mu : Mutex.t;
  workers : (int, wstate) Hashtbl.t;
  self_pid : int;
}

let create () =
  { mu = Mutex.create (); workers = Hashtbl.create 8; self_pid = Unix.getpid () }

let wstate col part =
  match Hashtbl.find_opt col.workers part with
  | Some w -> w
  | None ->
      let w =
        {
          alive = true;
          reason = "";
          hello_sent_ts = nan;
          last_report = None;
          last_report_at = nan;
          prev_report = None;
          chunks = [];
          g_queue = 0;
          g_credits = 0;
          g_window = 0;
          place = "";
          migrations = 0;
          mig_downtime = 0.;
        }
      in
      Hashtbl.replace col.workers part w;
      w

let note_hello col ~part =
  Mutex.protect col.mu (fun () ->
      let w = wstate col part in
      w.alive <- true;
      w.reason <- "";
      w.hello_sent_ts <- Sink.now ())

(* The whole report is swapped in under the collector lock, so readers
   never observe half of an old report and half of a new one — a dead
   worker's final report stays intact ("last report retained"). *)
let note_report col (r : report) =
  Mutex.protect col.mu (fun () ->
      let w = wstate col r.part in
      w.prev_report <- w.last_report;
      w.last_report <- Some r;
      w.last_report_at <- Sink.now ())

let note_chunk col ch =
  Mutex.protect col.mu (fun () ->
      let w = wstate col ch.c_part in
      w.chunks <- w.chunks @ [ ch ])

let note_gauges col ~part ~queue ~credits ~window =
  Mutex.protect col.mu (fun () ->
      let w = wstate col part in
      w.g_queue <- queue;
      w.g_credits <- credits;
      w.g_window <- window)

let note_death col ~part ~reason =
  Mutex.protect col.mu (fun () ->
      let w = wstate col part in
      w.alive <- false;
      w.reason <- reason)

let note_place col ~part ~place =
  Mutex.protect col.mu (fun () ->
      let w = wstate col part in
      w.place <- place)

let note_migration col ~part ~downtime =
  Mutex.protect col.mu (fun () ->
      let w = wstate col part in
      w.migrations <- w.migrations + 1;
      w.mig_downtime <- w.mig_downtime +. downtime)

let migration_downtime col ~part =
  Mutex.protect col.mu (fun () ->
      match Hashtbl.find_opt col.workers part with
      | Some w -> w.mig_downtime
      | None -> 0.)

(* --- cluster snapshot ------------------------------------------------- *)

type cluster = {
  merged : Metrics.snapshot;
  parts : Health.part list;
  workers_seen : int;
}

let sorted_workers col =
  Hashtbl.fold (fun part w acc -> (part, w) :: acc) col.workers []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let edge_totals (r : report) =
  let bs = ref [||] in
  let add_bsizes a =
    let n = max (Array.length !bs) (Array.length a) in
    let prev = !bs in
    bs :=
      Array.init n (fun i ->
          (if i < Array.length prev then prev.(i) else 0)
          + if i < Array.length a then a.(i) else 0)
  in
  let s, rv, st =
    List.fold_left
      (fun (s, rv, st) (_, (e : Metrics.raw_edge)) ->
        add_bsizes e.r_bsizes;
        (s + e.r_sends, rv + e.r_recvs, st + e.r_stalls))
      (0, 0, 0) r.metrics.Metrics.raw_edges
  in
  (s, rv, st, !bs)

let part_of_wstate now part w =
  let sends, recvs, stalls, bsizes, jlag =
    match w.last_report with
    | None -> (0, 0, 0, [||], 0)
    | Some r ->
        let s, rv, st, bs = edge_totals r in
        (s, rv, st, bs, r.journal_lag_now)
  in
  (* Stall rate over the last reporting interval, not since birth:
     deltas against the previous report. A 0/0 interval (reports faster
     than any sends, or a respawned worker whose counters reset) must
     not leak nan/inf downstream — guard the denominator here, and
     Health.make clamps non-finite overrides besides. *)
  let stall_rate =
    match (w.last_report, w.prev_report) with
    | Some cur, Some prev ->
        let cs, _, cst, _ = edge_totals cur in
        let ps, _, pst, _ = edge_totals prev in
        let ds = cs - ps and dst = cst - pst in
        if ds > 0 && dst >= 0 then
          Some (float_of_int dst /. float_of_int ds)
        else Some 0.
    | _ ->
        (* Fewer than two reports: fall back to the cumulative rate
           Health.make derives from ~stalls/~sends. *)
        None
  in
  Health.make ~part ~alive:w.alive ~reason:w.reason ~place:w.place
    ~migrations:w.migrations ~queue_depth:w.g_queue ~window:w.g_window
    ~credits_free:w.g_credits ~sends ~recvs ~stalls ?stall_rate
    ~batch_p50:(Metrics.batch_percentile 0.50 bsizes)
    ~batch_p95:(Metrics.batch_percentile 0.95 bsizes)
    ~journal_lag:jlag
    ~age:
      (if Float.is_nan w.last_report_at then -1. else now -. w.last_report_at)
    ()

let cluster col =
  let now = Sink.now () in
  let local = Metrics.raw_snapshot () in
  Mutex.protect col.mu (fun () ->
      let ws = sorted_workers col in
      let merged_raw =
        List.fold_left
          (fun acc (_, w) ->
            match w.last_report with
            | Some r when r.pid <> col.self_pid ->
                Metrics.merge_raw acc r.metrics
            | _ -> acc)
          local ws
      in
      let parts = List.map (fun (part, w) -> part_of_wstate now part w) ws in
      Health.set parts;
      {
        merged = Metrics.snapshot_of_raw merged_raw;
        parts;
        workers_seen = List.length ws;
      })

(* --- cluster JSON ----------------------------------------------------- *)

let cluster_to_json cl =
  let merged =
    match Jsonx.parse (Metrics.to_json cl.merged) with
    | Ok j -> j
    | Error _ -> Jsonx.Null
  in
  Jsonx.render
    (Jsonx.Obj
       [
         ("cluster", Jsonx.Bool true);
         ("workers_seen", Jsonx.Num (float_of_int cl.workers_seen));
         ("merged", merged);
         ("parts", Jsonx.List (List.map Health.to_json cl.parts));
       ])
  ^ "\n"

let cluster_of_json s =
  match Jsonx.parse s with
  | Error e -> Error e
  | Ok j -> (
      match
        ( Option.bind (Jsonx.member "merged" j) (fun m -> Some m),
          Option.bind (Jsonx.member "parts" j) Jsonx.to_list,
          Option.bind (Jsonx.member "workers_seen" j) Jsonx.to_int )
      with
      | Some merged_j, Some parts_j, Some workers_seen -> (
          match Metrics.of_json (Jsonx.render merged_j) with
          | Error e -> Error e
          | Ok merged -> (
              let parts = List.filter_map Health.of_json parts_j in
              if List.length parts <> List.length parts_j then
                Error "bad cluster json: malformed part"
              else
                match Jsonx.member "cluster" j with
                | Some (Jsonx.Bool true) ->
                    Ok { merged; parts; workers_seen }
                | _ -> Error "not a cluster snapshot"))
      | _ -> Error "bad cluster json")

let is_cluster_json s =
  match Jsonx.parse s with
  | Ok j -> ( match Jsonx.member "cluster" j with Some (Jsonx.Bool true) -> true | _ -> false)
  | Error _ -> false

(* --- merged trace ----------------------------------------------------- *)

(* Worker clocks are rebased against the Hello handshake: the
   coordinator noted its own clock just before sending Hello to
   partition [i] ([note_hello]) and the worker reports the local time
   it processed that Hello, so
     offset_i = hello_sent_ts_i - hello_local_ts_i
   estimates the clock skew plus the (small, local) Hello transit
   time; worker timestamps shift by offset_i onto the coordinator
   clock. Chunks whose pid equals the collector's own (loopback
   workers sharing this process) are skipped — their events are
   already in the local sink. *)
let merged_trace col ~local_events =
  Mutex.protect col.mu (fun () ->
      let ws = sorted_workers col in
      let worker_events =
        List.concat_map
          (fun (part, w) ->
            List.filter_map
              (fun ch ->
                if ch.c_pid = col.self_pid then None
                else begin
                  let off =
                    if Float.is_nan w.hello_sent_ts then 0.
                    else w.hello_sent_ts -. ch.c_hello_ts
                  in
                  Some
                    ( part,
                      List.map
                        (fun (e : Sink.event) ->
                          { e with Sink.ts = e.Sink.ts +. off })
                        ch.c_events )
                end)
              w.chunks)
          ws
      in
      let t0 =
        List.fold_left
          (fun acc (_, evs) -> Float.min acc (Export.earliest evs))
          (Export.earliest local_events)
          worker_events
      in
      let procs =
        Export.Process { pid = 1; process_name = "coordinator" }
        :: List.filter_map
             (fun (part, w) ->
               if List.exists (fun ch -> ch.c_pid <> col.self_pid) w.chunks
               then
                 Some
                   (Export.Process
                      {
                        pid = part + 2;
                        process_name = Printf.sprintf "worker %d" part;
                      })
               else None)
             ws
      in
      procs
      @ Export.of_events ~pid:1 ~t0 local_events
      @ List.concat_map
          (fun (part, evs) -> Export.of_events ~pid:(part + 2) ~t0 evs)
          worker_events)
