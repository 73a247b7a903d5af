(** Captured runtime state of a network instance.

    The stateful parts of a running S-Net are exactly the synchro-cell
    stores plus the demand-driven unfolding extents of [**] (star
    stages) and [!!] (split replicas). [Netstate.t] is a pure-data
    image of that state, keyed by the engine's deterministic component
    paths, so an engine can be rebuilt from the network spec and
    resumed mid-stream: {!Engine_seq.run_state} /
    {!Engine_conc.capture} produce one, and both engines accept a
    [?restore] argument that replays it into a freshly built instance.

    Paths are engine-independent: both engines compile the network
    through the same nodes ([Node]), which name every component the
    same way, so a capture taken on either engine restores on the
    other, and {!Engine_seq} is the reference for captured state as
    it is for outputs. Unfolding extents matter because replica paths
    are deterministic: pre-building the recorded replicas re-creates
    the sync cells that live inside them, which is what lets the sync
    slots be restored at all. *)

type sync_cell = { slots : Record.t option list; spent : bool }
(** One synchro cell: [slots] aligned with the cell's pattern list
    (a stored record per matched pattern), [spent] once it has fired
    and passes records through. *)

type t = {
  syncs : (string * sync_cell) list;
  splits : (string * int list) list;  (** replica tags built, per split *)
  stars : (string * int) list;  (** stages unfolded, per star *)
}

val empty : t

val normalize : t -> t
(** Drop entries describing pristine components (untouched sync cells,
    zero-depth stars, tag-less splits) and sort by path, so captures
    taken through different execution orders compare equal. *)

val is_empty : t -> bool
(** [true] iff the state is indistinguishable from a fresh instance. *)

val equal : t -> t -> bool
(** Structural equality modulo {!normalize}. *)

val sync_cell : t -> string -> sync_cell option
val split_tags : t -> string -> int list
val star_depth : t -> string -> int

val to_string : t -> string
(** Debug rendering, one component per line. *)
