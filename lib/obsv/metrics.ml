(* Aggregated metrics: log-linear latency histograms and per-edge
   counters, all lock-free. See metrics.mli. *)

(* --- log-linear histogram bucketing ---------------------------------
   Octave 0 covers [0, base_ns) in [sub] linear buckets; octave o >= 1
   covers [base_ns * 2^(o-1) * 2, ...) — i.e. [base_ns << (o-1) * 2 —
   concretely bucket index  sub + (o-1)*sub + s  covers
   [lo + s*lo/sub, lo + (s+1)*lo/sub) with lo = base_ns << (o-1).
   42 octaves above base reach ~78 hours; larger values clamp into the
   last bucket and are reported via the tracked maximum. *)

let sub = 8
let base_ns = 64
let octaves = 42
let n_buckets = sub + (octaves * sub)

let bucket_of_ns ns =
  let ns = max 0 ns in
  if ns < base_ns then ns * sub / base_ns
  else begin
    let o = ref 0 and v = ref (ns / base_ns) in
    while !v >= 2 do
      incr o;
      v := !v asr 1
    done;
    let lo = base_ns lsl !o in
    let idx = sub + (!o * sub) + ((ns - lo) / (lo / sub)) in
    min idx (n_buckets - 1)
  end

let bucket_upper_ns i =
  if i < sub then (i + 1) * (base_ns / sub)
  else
    let o = (i - sub) / sub and s = (i - sub) mod sub in
    let lo = base_ns lsl o in
    lo + ((s + 1) * (lo / sub))

(* The one rank rule, shared by the histogram percentiles below and
   the exact [quantile]: the [q]-quantile of [n] ordered observations
   is the [max 1 (ceil (q n))]-th smallest, clamped to [n]. *)
let rank q n = min n (max 1 (int_of_float (ceil (q *. float_of_int n))))

(* The first slot of a counting histogram whose cumulative count
   reaches the [q] rank; [None] for an empty histogram. *)
let rank_slot q counts =
  let n = Array.fold_left ( + ) 0 counts in
  if n = 0 then None
  else
    let r = rank q n in
    let rec go i cum =
      let cum = cum + counts.(i) in
      if cum >= r then i else go (i + 1) cum
    in
    Some (go 0 0)

let percentile q buckets ~max_s =
  match rank_slot q buckets with
  | None -> 0.
  | Some i -> Float.min (float_of_int (bucket_upper_ns i) *. 1e-9) max_s

let quantile q sorted =
  let n = Array.length sorted in
  if n = 0 then Float.nan else sorted.(rank q n - 1)

type hist = {
  count : int;
  total : float;
  max_s : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let hist_of_buckets buckets ~total ~max_s =
  {
    count = Array.fold_left ( + ) 0 buckets;
    total;
    max_s;
    p50 = percentile 0.50 buckets ~max_s;
    p95 = percentile 0.95 buckets ~max_s;
    p99 = percentile 0.99 buckets ~max_s;
  }

(* --- cells ----------------------------------------------------------- *)

(* Cells are sharded per domain, like the sink's ring buffers: each
   domain owns a shard and is the only writer of the cells in it, so
   the hot path is plain (unboxed) integer arithmetic on a plain int
   array — no atomics, no cache-line ping-pong between domains, and no
   per-bucket Atomic.t boxes (allocating hundreds of those per cell
   turns out to be pathologically slow once a second domain exists).
   Threads of one domain share its shard; they interleave only at
   poll points, which the straight-line load/add/store updates below
   do not contain, so same-domain updates cannot tear either.
   [snapshot] merges all shards with racy reads: per-field monotone,
   exact after quiescence, not a consistent cut — the same relaxed
   contract Core.Stats documents. The only lock is on the first touch
   of a new name in a shard (cell insert) and on shard registration. *)

type span_cell = {
  buckets : int array;
  mutable total_ns : int;
  mutable max_ns : int;
}

(* Batch sizes are small integers, so their distribution is an exact
   histogram up to [batch_max] (larger batches clamp into the last
   slot); slot [s] counts batches of exactly [s] messages. *)
let batch_max = 128

type edge_cell = {
  mutable sends : int;
  mutable recvs : int;
  mutable stalls : int;
  mutable hwm : int;
  mutable batches : int;
  bsizes : int array;  (* length batch_max + 1; slot 0 unused *)
}

module SMap = Map.Make (String)

(* Per-shard direct-mapped cell cache, verified by PHYSICAL string
   equality. Call sites pass literal categories and component paths
   built once at net construction, so the same string objects arrive
   on every record; a hit skips the key concatenation (an allocation)
   and the string-keyed map walk that otherwise dominate the record
   path. A miss — cold slot, collision, or a caller with fresh string
   objects — falls through to the map and installs the slot, so the
   cache is only ever a shortcut, never a source of truth. *)
(* 1024 slots: wide nets with expanded star stages reach hundreds of
   distinct span keys, and a direct-mapped cache only pays off while
   collisions stay rare. *)
let cache_size = 1024
let cache_idx s = Hashtbl.hash s land (cache_size - 1)

type shard = {
  mutable spans : span_cell SMap.t;
  mutable edges : edge_cell SMap.t;
  span_cache : (string * string * span_cell) option array;
  edge_cache : (string * edge_cell) option array;
  shard_gen : int;
}

let registry : shard list ref = ref []
let registry_mutex = Mutex.create ()

(* Bumped by [clear]: shards from an older generation are dead — they
   drop out of the registry and each domain lazily re-registers a
   fresh shard on its next record. *)
let generation = Atomic.make 0
let star_hwm = Atomic.make 0
let star_stages = Atomic.make 0

let new_shard () =
  let s =
    {
      spans = SMap.empty;
      edges = SMap.empty;
      span_cache = Array.make cache_size None;
      edge_cache = Array.make cache_size None;
      shard_gen = Atomic.get generation;
    }
  in
  Mutex.protect registry_mutex (fun () -> registry := s :: !registry);
  s

let shard_key : shard Domain.DLS.key = Domain.DLS.new_key new_shard

let my_shard () =
  let s = Domain.DLS.get shard_key in
  if s.shard_gen = Atomic.get generation then s
  else begin
    let s' = new_shard () in
    Domain.DLS.set shard_key s';
    s'
  end

(* First touch of a name in a shard: serialised so two threads of the
   same domain cannot insert twice and strand one thread's cell. *)
let find_or_add find add fresh =
  match find () with
  | Some c -> c
  | None ->
      Mutex.protect registry_mutex (fun () ->
          match find () with
          | Some c -> c
          | None ->
              let c = fresh () in
              add c;
              c)

let span_cell shard key =
  find_or_add
    (fun () -> SMap.find_opt key shard.spans)
    (fun c -> shard.spans <- SMap.add key c shard.spans)
    (fun () ->
      { buckets = Array.make n_buckets 0; total_ns = 0; max_ns = 0 })

let edge_cell shard key =
  find_or_add
    (fun () -> SMap.find_opt key shard.edges)
    (fun c -> shard.edges <- SMap.add key c shard.edges)
    (fun () ->
      {
        sends = 0;
        recvs = 0;
        stalls = 0;
        hwm = 0;
        batches = 0;
        bsizes = Array.make (batch_max + 1) 0;
      })

let atomic_max cell v =
  let rec go () =
    let cur = Atomic.get cell in
    if v > cur && not (Atomic.compare_and_set cell cur v) then go ()
  in
  go ()

(* Span keys pack cat and name with a NUL, which cannot appear in
   component paths. *)
let span_key ~cat ~name = cat ^ "\000" ^ name

let split_span_key key =
  match String.index_opt key '\000' with
  | Some i ->
      (String.sub key 0 i, String.sub key (i + 1) (String.length key - i - 1))
  | None -> ("", key)

(* --- lifecycle ------------------------------------------------------- *)

let on () = Sink.flag Sink.metrics_bit

let clear () =
  Atomic.incr generation;
  let gen = Atomic.get generation in
  Mutex.protect registry_mutex (fun () ->
      registry := List.filter (fun s -> s.shard_gen = gen) !registry);
  Atomic.set star_hwm 0;
  Atomic.set star_stages 0

let enable () =
  clear ();
  Sink.set_flag Sink.metrics_bit true

let disable () = Sink.set_flag Sink.metrics_bit false

(* --- recording ------------------------------------------------------- *)

let my_span_cell ~cat ~name =
  let s = my_shard () in
  let i = cache_idx name in
  match Array.unsafe_get s.span_cache i with
  | Some (c, n, cell) when c == cat && n == name -> cell
  | _ ->
      let cell = span_cell s (span_key ~cat ~name) in
      Array.unsafe_set s.span_cache i (Some (cat, name, cell));
      cell

let my_edge_cell ~name =
  let s = my_shard () in
  let i = cache_idx name in
  match Array.unsafe_get s.edge_cache i with
  | Some (n, cell) when n == name -> cell
  | _ ->
      let cell = edge_cell s name in
      Array.unsafe_set s.edge_cache i (Some (name, cell));
      cell

let record_span ~cat ~name ~dt =
  let cell = my_span_cell ~cat ~name in
  let ns = int_of_float (Float.max 0. (dt *. 1e9)) in
  let b = bucket_of_ns ns in
  cell.buckets.(b) <- cell.buckets.(b) + 1;
  cell.total_ns <- cell.total_ns + ns;
  if ns > cell.max_ns then cell.max_ns <- ns

let record_edge_send ~name ~depth =
  let cell = my_edge_cell ~name in
  cell.sends <- cell.sends + 1;
  if depth > cell.hwm then cell.hwm <- depth

let record_edge_recv ~name ~depth =
  let cell = my_edge_cell ~name in
  cell.recvs <- cell.recvs + 1;
  if depth > cell.hwm then cell.hwm <- depth

let record_edge_stall ~name =
  let cell = my_edge_cell ~name in
  cell.stalls <- cell.stalls + 1

let record_edge_batch ~name ~size =
  let cell = my_edge_cell ~name in
  cell.batches <- cell.batches + 1;
  let s = if size > batch_max then batch_max else max 1 size in
  cell.bsizes.(s) <- cell.bsizes.(s) + 1

let record_star_depth ~depth =
  ignore (Atomic.fetch_and_add star_stages 1);
  atomic_max star_hwm depth

(* --- snapshot -------------------------------------------------------- *)

type edge = {
  sends : int;
  recvs : int;
  stalls : int;
  hwm : int;
  batches : int;
  batch_p50 : int;
  batch_p95 : int;
}

let batch_percentile q bsizes =
  match rank_slot q bsizes with None -> 0 | Some s -> s

type snapshot = {
  spans : (string * string * hist) list;
  edges : (string * edge) list;
  star_depth_hwm : int;
  star_stages : int;
}

(* --- raw snapshots ---------------------------------------------------
   A raw snapshot keeps the full bucket arrays instead of derived
   percentiles, so snapshots from different processes sharing this
   bucket layout merge losslessly by vector addition; the coordinator
   converts the merged raw back to a [snapshot] at the end. *)

type raw_span = { r_buckets : int array; r_total_ns : int; r_max_ns : int }

type raw_edge = {
  r_sends : int;
  r_recvs : int;
  r_stalls : int;
  r_hwm : int;
  r_batches : int;
  r_bsizes : int array;  (* length batch_max + 1 *)
}

type raw = {
  raw_spans : (string * raw_span) list;  (* key = [span_key] packed *)
  raw_edges : (string * raw_edge) list;
  raw_star_hwm : int;
  raw_star_stages : int;
}

(* Merge all live shards. Reads race with writers (see the cell-layer
   note): each value read is some value the owner wrote, so merged
   counters are per-field monotone and exact once writers quiesce. *)
let raw_snapshot () =
  let shards = Mutex.protect registry_mutex (fun () -> !registry) in
  let gen = Atomic.get generation in
  let shards = List.filter (fun s -> s.shard_gen = gen) shards in
  let span_acc : (string, span_cell) Hashtbl.t = Hashtbl.create 64 in
  let edge_acc : (string, edge_cell) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (s : shard) ->
      SMap.iter
        (fun key (c : span_cell) ->
          let acc =
            match Hashtbl.find_opt span_acc key with
            | Some acc -> acc
            | None ->
                let acc =
                  { buckets = Array.make n_buckets 0; total_ns = 0; max_ns = 0 }
                in
                Hashtbl.add span_acc key acc;
                acc
          in
          (* Hot for wide nets: hundreds of span keys x 344 buckets
             per shard, snapshotted on every shipped report. Skipping
             the (overwhelmingly) zero slots keeps a report tick
             cheap. *)
          for i = 0 to Array.length c.buckets - 1 do
            let n = c.buckets.(i) in
            if n <> 0 then acc.buckets.(i) <- acc.buckets.(i) + n
          done;
          acc.total_ns <- acc.total_ns + c.total_ns;
          acc.max_ns <- max acc.max_ns c.max_ns)
        s.spans;
      SMap.iter
        (fun name (c : edge_cell) ->
          let acc =
            match Hashtbl.find_opt edge_acc name with
            | Some acc -> acc
            | None ->
                let acc =
                  {
                    sends = 0;
                    recvs = 0;
                    stalls = 0;
                    hwm = 0;
                    batches = 0;
                    bsizes = Array.make (batch_max + 1) 0;
                  }
                in
                Hashtbl.add edge_acc name acc;
                acc
          in
          acc.sends <- acc.sends + c.sends;
          acc.recvs <- acc.recvs + c.recvs;
          acc.stalls <- acc.stalls + c.stalls;
          acc.hwm <- max acc.hwm c.hwm;
          acc.batches <- acc.batches + c.batches;
          for i = 0 to Array.length c.bsizes - 1 do
            let n = c.bsizes.(i) in
            if n <> 0 then acc.bsizes.(i) <- acc.bsizes.(i) + n
          done)
        s.edges)
    shards;
  let raw_spans =
    Hashtbl.fold
      (fun key (c : span_cell) acc ->
        ( key,
          { r_buckets = c.buckets; r_total_ns = c.total_ns; r_max_ns = c.max_ns }
        )
        :: acc)
      span_acc []
    |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)
  in
  let raw_edges =
    Hashtbl.fold
      (fun name (c : edge_cell) acc ->
        ( name,
          {
            r_sends = c.sends;
            r_recvs = c.recvs;
            r_stalls = c.stalls;
            r_hwm = c.hwm;
            r_batches = c.batches;
            r_bsizes = c.bsizes;
          } )
        :: acc)
      edge_acc []
    |> List.sort (fun (n1, _) (n2, _) -> compare n1 n2)
  in
  {
    raw_spans;
    raw_edges;
    raw_star_hwm = Atomic.get star_hwm;
    raw_star_stages = Atomic.get star_stages;
  }

let add_array a b =
  let n = max (Array.length a) (Array.length b) in
  Array.init n (fun i ->
      (if i < Array.length a then a.(i) else 0)
      + if i < Array.length b then b.(i) else 0)

let merge_raw a b =
  let merge_assoc merge xs ys =
    let tbl = Hashtbl.create 64 in
    List.iter (fun (k, v) -> Hashtbl.replace tbl k v) xs;
    List.iter
      (fun (k, v) ->
        match Hashtbl.find_opt tbl k with
        | None -> Hashtbl.replace tbl k v
        | Some v0 -> Hashtbl.replace tbl k (merge v0 v))
      ys;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)
  in
  let merge_span (x : raw_span) (y : raw_span) =
    {
      r_buckets = add_array x.r_buckets y.r_buckets;
      r_total_ns = x.r_total_ns + y.r_total_ns;
      r_max_ns = max x.r_max_ns y.r_max_ns;
    }
  in
  let merge_edge (x : raw_edge) (y : raw_edge) =
    {
      r_sends = x.r_sends + y.r_sends;
      r_recvs = x.r_recvs + y.r_recvs;
      r_stalls = x.r_stalls + y.r_stalls;
      r_hwm = max x.r_hwm y.r_hwm;
      r_batches = x.r_batches + y.r_batches;
      r_bsizes = add_array x.r_bsizes y.r_bsizes;
    }
  in
  {
    raw_spans = merge_assoc merge_span a.raw_spans b.raw_spans;
    raw_edges = merge_assoc merge_edge a.raw_edges b.raw_edges;
    raw_star_hwm = max a.raw_star_hwm b.raw_star_hwm;
    raw_star_stages = a.raw_star_stages + b.raw_star_stages;
  }

let snapshot_of_raw raw =
  let spans =
    List.map
      (fun (key, (c : raw_span)) ->
        let cat, name = split_span_key key in
        ( cat,
          name,
          hist_of_buckets c.r_buckets
            ~total:(float_of_int c.r_total_ns *. 1e-9)
            ~max_s:(float_of_int c.r_max_ns *. 1e-9) ))
      raw.raw_spans
  in
  let edges =
    List.map
      (fun (name, (c : raw_edge)) ->
        ( name,
          {
            sends = c.r_sends;
            recvs = c.r_recvs;
            stalls = c.r_stalls;
            hwm = c.r_hwm;
            batches = c.r_batches;
            batch_p50 = batch_percentile 0.50 c.r_bsizes;
            batch_p95 = batch_percentile 0.95 c.r_bsizes;
          } ))
      raw.raw_edges
  in
  {
    spans;
    edges;
    star_depth_hwm = raw.raw_star_hwm;
    star_stages = raw.raw_star_stages;
  }

let empty_raw =
  { raw_spans = []; raw_edges = []; raw_star_hwm = 0; raw_star_stages = 0 }

let snapshot () = snapshot_of_raw (raw_snapshot ())

(* --- rendering ------------------------------------------------------- *)

let dur_to_string s =
  if s < 1e-6 then Printf.sprintf "%.0fns" (s *. 1e9)
  else if s < 1e-3 then Printf.sprintf "%.1fus" (s *. 1e6)
  else if s < 1. then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.3fs" s

let pp ppf snap =
  Format.fprintf ppf "@[<v>metrics:@,";
  if snap.spans <> [] then begin
    Format.fprintf ppf "  %-28s %8s %10s %9s %9s %9s %9s@," "span" "count"
      "total" "p50" "p95" "p99" "max";
    List.iter
      (fun (cat, name, h) ->
        Format.fprintf ppf "  %-28s %8d %10s %9s %9s %9s %9s@,"
          (Printf.sprintf "%s:%s" cat name)
          h.count (dur_to_string h.total) (dur_to_string h.p50)
          (dur_to_string h.p95) (dur_to_string h.p99) (dur_to_string h.max_s))
      snap.spans
  end;
  if snap.edges <> [] then begin
    Format.fprintf ppf "  %-28s %8s %8s %8s %6s %6s %6s@," "edge" "sends"
      "recvs" "stalls" "hwm" "b-p50" "b-p95";
    List.iter
      (fun (name, e) ->
        Format.fprintf ppf "  %-28s %8d %8d %8d %6d %6d %6d@," name e.sends
          e.recvs e.stalls e.hwm e.batch_p50 e.batch_p95)
      snap.edges
  end;
  Format.fprintf ppf "  star stages %d, depth high-water %d@]"
    snap.star_stages snap.star_depth_hwm

(* --- serialisation --------------------------------------------------- *)

let to_json snap =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"spans\":[";
  List.iteri
    (fun i (cat, name, h) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"cat\":\"%s\",\"name\":\"%s\",\"count\":%d,\"total\":%.9f,\"max\":%.9f,\"p50\":%.9f,\"p95\":%.9f,\"p99\":%.9f}"
           (Jsonx.escape cat) (Jsonx.escape name) h.count h.total h.max_s h.p50
           h.p95 h.p99))
    snap.spans;
  Buffer.add_string b "],\"edges\":[";
  List.iteri
    (fun i (name, e) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"%s\",\"sends\":%d,\"recvs\":%d,\"stalls\":%d,\"hwm\":%d,\"batches\":%d,\"batch_p50\":%d,\"batch_p95\":%d}"
           (Jsonx.escape name) e.sends e.recvs e.stalls e.hwm e.batches
           e.batch_p50 e.batch_p95))
    snap.edges;
  Buffer.add_string b
    (Printf.sprintf "],\"star_depth_hwm\":%d,\"star_stages\":%d}"
       snap.star_depth_hwm snap.star_stages);
  Buffer.contents b

let of_json s =
  let ( let* ) r f = match r with Some v -> f v | None -> Error "bad metrics json" in
  match Jsonx.parse s with
  | Error e -> Error e
  | Ok j ->
      let* spans_j = Option.bind (Jsonx.member "spans" j) Jsonx.to_list in
      let* edges_j = Option.bind (Jsonx.member "edges" j) Jsonx.to_list in
      let* star_depth_hwm =
        Option.bind (Jsonx.member "star_depth_hwm" j) Jsonx.to_int
      in
      let* star_stages =
        Option.bind (Jsonx.member "star_stages" j) Jsonx.to_int
      in
      let span_of j =
        let* cat = Option.bind (Jsonx.member "cat" j) Jsonx.to_string in
        let* name = Option.bind (Jsonx.member "name" j) Jsonx.to_string in
        let* count = Option.bind (Jsonx.member "count" j) Jsonx.to_int in
        let* total = Option.bind (Jsonx.member "total" j) Jsonx.to_float in
        let* max_s = Option.bind (Jsonx.member "max" j) Jsonx.to_float in
        let* p50 = Option.bind (Jsonx.member "p50" j) Jsonx.to_float in
        let* p95 = Option.bind (Jsonx.member "p95" j) Jsonx.to_float in
        let* p99 = Option.bind (Jsonx.member "p99" j) Jsonx.to_float in
        Ok (cat, name, { count; total; max_s; p50; p95; p99 })
      in
      let edge_of j =
        let* name = Option.bind (Jsonx.member "name" j) Jsonx.to_string in
        let* sends = Option.bind (Jsonx.member "sends" j) Jsonx.to_int in
        let* recvs = Option.bind (Jsonx.member "recvs" j) Jsonx.to_int in
        let* stalls = Option.bind (Jsonx.member "stalls" j) Jsonx.to_int in
        let* hwm = Option.bind (Jsonx.member "hwm" j) Jsonx.to_int in
        (* Absent in metrics files written before batch tracking. *)
        let opt_int key =
          Option.value (Option.bind (Jsonx.member key j) Jsonx.to_int) ~default:0
        in
        Ok
          ( name,
            {
              sends;
              recvs;
              stalls;
              hwm;
              batches = opt_int "batches";
              batch_p50 = opt_int "batch_p50";
              batch_p95 = opt_int "batch_p95";
            } )
      in
      let rec map_result f = function
        | [] -> Ok []
        | x :: xs -> (
            match f x with
            | Error e -> Error e
            | Ok y -> (
                match map_result f xs with
                | Error e -> Error e
                | Ok ys -> Ok (y :: ys)))
      in
      (match map_result span_of spans_j with
      | Error e -> Error e
      | Ok spans -> (
          match map_result edge_of edges_j with
          | Error e -> Error e
          | Ok edges -> Ok { spans; edges; star_depth_hwm; star_stages }))
