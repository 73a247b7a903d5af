(** Stream observation utilities.

    The paper argues that with S-Net "debugging the concurrent
    behaviour becomes rather straightforward as all streams can be
    observed individually". Every engine accepts an [?observer]
    callback invoked with the component path a record is about to
    enter; this module provides ready-made observers. *)

type entry = {
  index : int;  (** Global arrival index, starting at 0. *)
  edge : string;  (** Component path, e.g. ["/stage@3/box:solveOneLevel"]. *)
  record : Record.t;
}

val contains : needle:string -> string -> bool
(** Allocation-free substring test; the edge matcher behind {!on_edge}
    and {!records_on}. *)

type recorder = {
  observe : edge:string -> Record.t -> unit;
      (** Pass as the engine's [?observer]. *)
  entries : unit -> entry list;
      (** Retained entries in arrival order; usable while the network
          is still running. *)
  dropped : unit -> int;
      (** Entries discarded because the capacity bound was hit. *)
}

val recorder : ?capacity:int -> unit -> recorder
(** A thread-safe observer that records every event. Without
    [capacity] it accumulates unboundedly; with [capacity] (≥ 1) only
    the newest [capacity] entries are retained — the oldest are
    dropped and counted in [dropped]. The [index] field keeps its
    global arrival number either way, so a trimmed trace still shows
    where the retained suffix starts. *)

val printer :
  ?prefix:string -> out_channel -> edge:string -> Record.t -> unit
(** An observer that prints one line per event, flushing each. *)

val on_edge :
  string ->
  (Record.t -> unit) ->
  edge:string ->
  Record.t ->
  unit
(** [on_edge needle f] fires [f] only for edges containing [needle] —
    observe one stream individually. *)

val edges : entry list -> string list
(** Distinct edges in first-seen order. *)

val records_on : string -> entry list -> Record.t list
(** Records that entered edges containing the given substring, in
    order. *)
