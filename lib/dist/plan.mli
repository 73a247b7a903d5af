(** Placement plans: how the flattened serial spine maps onto
    distributed partitions.

    A plan is a sequence of stages in pipeline order, each owning one
    or more consecutive partition indices starting from 0:

    - [Run {lo; hi}] fuses segments [lo..hi] into one partition;
    - [Shard {seg; shards}] replicates segment [seg] — a
      nondeterministic parallel replication [A !! <t>] — across
      [shards] partitions, routing records by {!shard_of} on the split
      tag so equal tag values deterministically reach the same
      partition (the combinator's own guarantee, preserved across
      machine boundaries).

    Plans travel in [Proto.Hello] via {!encode}/{!decode}, so the
    coordinator and every worker provably agree on the layout. The
    cost-model planner that builds non-default plans from [@place]/
    [@shards]/[@weight] hints lives in [Elastic.Plan]; this module is
    only the data type and its arithmetic. *)

type stage =
  | Run of { lo : int; hi : int }
  | Shard of { seg : int; shards : int }

type t = stage array

val width : stage -> int
(** Number of partitions a stage owns. *)

val parts : t -> int
(** Total partition count (sum of stage widths). *)

val nsegs : t -> int
(** Number of spine segments the plan covers. *)

val validate : ?nsegs:int -> t -> (unit, string) result
(** Check the stages cover segments [0..n-1] contiguously in order
    with positive shard counts; [?nsegs] additionally pins the total. *)

val encode : t -> string
(** Compact text form for the wire: stages comma-joined, [lo-h] /
    bare [lo] for a run, [seg!k] for a shard group — e.g.
    ["0,1!4,2-3"]. *)

val decode : string -> (t, string) result
(** Inverse of {!encode}; validates. All errors start ["bad plan"]. *)

val to_string : t -> string
(** Human-readable rendering, e.g. ["seg 0 | seg 1 sharded x4"]. *)

val base : t -> int -> int
(** [base t i] is the first partition index of stage [i]. *)

val stage_of_part : t -> int -> int
(** Which stage a partition index belongs to.
    @raise Invalid_argument when out of range. *)

val segments_of_part : t -> int -> int * int
(** Segment range [(lo, hi)] that partition runs; every replica of a
    shard stage runs [(seg, seg)]. *)

val shard_of : shards:int -> int -> int
(** Deterministic tag-value hash into [0, shards). Coordinator routing
    and tests must use exactly this function. *)

val contiguous : parts:int -> weights:int list -> t
(** The default cut: box-count-balanced contiguous runs over
    per-segment weights, as a plan of [Run] stages (at most [parts] of
    them).
    @raise Invalid_argument when [parts <= 0] or [weights] is empty. *)
