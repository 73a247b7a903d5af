(** The network compiled once, for both engines.

    [build] walks a {!Net.t} a single time and gives every component
    its engine-independent path, its decision, its step and its
    per-instance state. An engine supplies only a {!host}: how to run
    a leaf's step, how to wrap a routing decision, how to send, and
    what a merge point is. {!Engine_seq} calls the nodes directly;
    {!Engine_conc} hosts leaves as actors and routing nodes as inline
    routes carrying {!Detmerge} metadata. The combinator semantics —
    best-match choice, synchro-cell slots, star exit, split tag, error
    bypass — therefore exist once, and so do the paths a {!Netstate.t}
    is keyed by: a capture taken on either engine restores on the
    other.

    Paths: [/L] and [/R] for the two sides of a serial composition,
    [/l] and [/r] for the branches of a choice, [/box:N], [/filter:N],
    [/sync], [/stage@d] for a star's [d]-th stage, [/split[t=v]] for
    the replica of tag [t] value [v], and [/tag] for an [Observe]
    point. *)

type observer = edge:string -> Record.t -> unit

type ctx
(** One network instance: its stats, observer, the state it restores
    from, and the registry {!capture} reads. *)

val create : ?observer:observer -> restore:Netstate.t -> Stats.t -> ctx

val capture : ctx -> Netstate.t
(** The instance's sync-cell stores and star/split unfolding extents.
    Only sound at quiescence: it reads state private to the nodes. *)

type ('t, 'm) host = {
  leaf : string -> (Record.t -> Record.t list) -> down:'t -> 't;
      (** [leaf path step ~down] hosts a box, filter or sync cell,
          sending its outputs to [down]. [step] consumes one record
          and returns its outputs in emission order: it calls the
          observer, passes an error record through untouched, and
          otherwise runs the box (under {!Supervise}), filter or cell
          with its span and stats; it raises what a fail-fast box
          raises. Each leaf is one instance, counted in
          {!Stats.record_instance} when built. *)
  route : ('m -> Record.t -> unit) -> 't;
      (** Wrap a routing node: it runs on the sender. *)
  send : 't -> 'm -> Record.t -> unit;
  merge : string -> det:bool -> down:'t -> ('m -> 'm) * 't;
      (** The merge point of a choice, split or star named by the
          path: the stamp its entry applies and the target its
          branches (or exiting records) go to. Must not send. *)
}
(** What an engine supplies: ['t] is where a node's records go, ['m]
    the metadata they travel with. *)

val build : ctx -> ('t, 'm) host -> Net.t -> down:'t -> 't
(** Build the network's entry, emitting into [down]. Star stages and
    split replicas build lazily, each exactly once under concurrent
    senders, when the first record reaches them, or at once when
    [restore] records them. A record no choice branch accepts or
    lacking a split's tag raises {!Errors.Route_error} in the route. *)
