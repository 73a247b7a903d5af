(** Derived metrics: per-box latency histograms, per-edge throughput
    and queue-depth high-water marks, star depth over time.

    Unlike the event {!Sink} (which retains individual events for
    export), metrics aggregate in place: fixed-size HDR-style
    histograms and atomic counters keyed by component path. They can
    be enabled independently of event recording and are cheap enough
    to leave on for long runs.

    Histograms are log-linear: each power-of-two octave above a 64 ns
    base is split into 8 linear sub-buckets, giving a relative
    quantile error bounded by 1/8 ≈ 12.5% across the full range
    (64 ns .. >1 h). Percentiles are reported as the upper bound of
    the containing bucket, clamped to the observed maximum.

    Concurrency: cells are sharded per domain (like the {!Sink} ring
    buffers) and written single-writer as plain integers — the hot
    path takes no lock and performs no atomic read-modify-write; the
    only lock is on the first touch of a new name in a shard.
    {!snapshot} merges all shards with racy reads, so counters
    recorded while it runs may land in either the returned snapshot
    or the next one: per-field monotone, exact after writers quiesce,
    not a consistent cut (same relaxed semantics as
    [Core.Stats.snapshot]). *)

(** {1 Lifecycle} *)

val enable : unit -> unit
(** Start aggregating; clears previous metrics. *)

val disable : unit -> unit

val on : unit -> bool
val clear : unit -> unit

(** {1 Recording (runtime-internal; callers check {!on} first)} *)

val record_span : cat:string -> name:string -> dt:float -> unit
(** Add a duration (seconds) to the histogram for [cat]/[name]. *)

val record_edge_send : name:string -> depth:int -> unit
(** Count one message onto edge [name]; [depth] is the queue depth
    after the send and updates the high-water mark. *)

val record_edge_recv : name:string -> depth:int -> unit
val record_edge_stall : name:string -> unit

val record_edge_batch : name:string -> size:int -> unit
(** Count one consumer-side batch of [size] messages drained from edge
    [name] in a single lock/park cycle (or one cut-edge envelope).
    Sizes feed an exact small-integer histogram (clamped at 128) from
    which the snapshot reports p50/p95. *)

val record_star_depth : depth:int -> unit

(** {1 Snapshot} *)

type hist = {
  count : int;
  total : float;  (** Sum of observations, seconds. *)
  max_s : float;  (** Largest observation, seconds. *)
  p50 : float;
  p95 : float;
  p99 : float;  (** Percentiles, seconds. *)
}

type edge = {
  sends : int;
  recvs : int;
  stalls : int;
  hwm : int;  (** Queue-depth high-water mark. *)
  batches : int;  (** Consumer-side batch drains observed. *)
  batch_p50 : int;
  batch_p95 : int;
      (** Batch-size percentiles (messages per drain), 0 when no
          batch was recorded. *)
}

type snapshot = {
  spans : (string * string * hist) list;  (** cat, name, histogram. *)
  edges : (string * edge) list;
  star_depth_hwm : int;
  star_stages : int;
}

val snapshot : unit -> snapshot
(** Current aggregates; span and edge lists sorted by name. *)

(** {1 Raw snapshots (cluster aggregation)} *)

(** A raw snapshot keeps the full log-linear bucket arrays instead of
    derived percentiles. Because every process uses the same bucket
    layout ([sub]=8, 64 ns base), raw snapshots from different workers
    merge losslessly by vector addition ({!merge_raw}); the coordinator
    converts the merged result back to a {!snapshot} with
    {!snapshot_of_raw}. {!Agg} ships these across the wire. *)

type raw_span = {
  r_buckets : int array;  (** Log-linear histogram counts. *)
  r_total_ns : int;
  r_max_ns : int;
}

type raw_edge = {
  r_sends : int;
  r_recvs : int;
  r_stalls : int;
  r_hwm : int;
  r_batches : int;
  r_bsizes : int array;  (** Exact batch-size histogram, slot 0 unused. *)
}

type raw = {
  raw_spans : (string * raw_span) list;
      (** Keyed by the packed ["cat\000name"] span key; sorted. *)
  raw_edges : (string * raw_edge) list;  (** Keyed by edge name; sorted. *)
  raw_star_hwm : int;
  raw_star_stages : int;
}

val raw_snapshot : unit -> raw
(** Current aggregates with full buckets (same racy-merge contract as
    {!snapshot}). *)

val merge_raw : raw -> raw -> raw
(** Union of the two: counters and buckets vector-add, high-water
    marks and maxima take the max. Commutative and associative. *)

val snapshot_of_raw : raw -> snapshot
(** Derive percentiles from a (possibly merged) raw snapshot. *)

val empty_raw : raw
(** The identity of {!merge_raw}. *)

val percentile : float -> int array -> max_s:float -> float
(** [percentile q buckets ~max_s] — exposed for the exporter and
    bench; [q] in [0,1], buckets as stored (log-linear). The rank is
    {!quantile}'s, so the result is the upper bound of the bucket
    holding the exact [q]-quantile: never below it, at most 12.5%
    above it (for observations of 64 ns and more), clamped to
    [max_s]. *)

val batch_percentile : float -> int array -> int
(** Percentile over an exact batch-size histogram (as in
    {!raw_edge.r_bsizes}), same rank rule; 0 when it is empty. Used
    by the cluster aggregator. *)

val quantile : float -> float array -> float
(** [quantile q sorted] is the exact [q]-quantile of samples sorted
    in increasing order: the [max 1 (ceil (q n))]-th smallest of the
    [n] samples, the rank {!percentile} uses; [nan] when [sorted] is
    empty. *)

val hist_of_buckets : int array -> total:float -> max_s:float -> hist
(** Build a {!hist} from raw bucket counts (used by bench to report
    percentiles from its own sampled histograms). *)

val pp : Format.formatter -> snapshot -> unit
(** Render the metrics table ([Stats.pp] appends this when metrics
    are on; [snet_top] renders a richer, sorted variant). *)

(** {1 Serialisation (for [--metrics-out] / [snet_top])} *)

val to_json : snapshot -> string
val of_json : string -> (snapshot, string) result
