(** Cost-model planner: turn the placement hints carried by
    {!Snet.Net.Place} wrappers ([@place worker=N], [@shards k],
    [@weight w] in the DSL) into a {!Dist.Plan.t} the distributed
    engine executes.

    The model works on the flattened serial spine
    ({!Dist.Engine_dist.segments}):

    - a segment hinted [@shards k] becomes a {!Dist.Plan.Shard} stage
      of width [k] — the segment must be a nondeterministic parallel
      replication ([A !! <t>]), whose tag-hash routing keeps equal
      tags on the same replica;
    - a segment hinted [@place worker=N] is pinned to start partition
      [N]: the segments before it must fill exactly [N] partitions, or
      planning fails with a feasibility error;
    - maximal runs of unhinted segments share the remaining partition
      budget proportionally to their summed weights ([@weight w], or
      the box count when unhinted), and each run is then cut by the
      same box-count-balanced greedy rule as {!Dist.Plan.contiguous}.

    Extra budget beyond the network's placeable slots is not an error
    — the surplus workers are simply never spawned, as with
    {!Dist.Plan.contiguous}. *)

val has_hints : Snet.Net.t -> bool
(** True when any spine segment carries a {!Snet.Net.Place} wrapper —
    callers use this to decide between this planner and the default
    cut. *)

val of_net : workers:int -> Snet.Net.t -> (Dist.Plan.t, string) result
(** Plan [net] over at most [workers] partitions. Errors name the
    offending segment: invalid hint values, [@shards] on anything but
    a nondeterministic split, pins out of order or infeasible, or a
    budget too small for the hinted shape. *)

val describe : Dist.Plan.t -> Snet.Net.t -> string
(** Multi-line, human-readable placement: one line per partition with
    its segment range or shard slot, plus the subnet it runs — what
    [snet_sudoku --stats] prints. *)
