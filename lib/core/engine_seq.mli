(** Sequential reference engine.

    A deterministic, single-threaded interpreter with the obvious
    depth-first semantics: input records are processed one at a time,
    and every record a component emits is carried through the rest of
    the network before the component's next emission is looked at.
    Deterministic and nondeterministic combinator variants therefore
    coincide here. This engine defines the reference output against
    which the concurrent engine is tested: a deterministic network run
    concurrently must produce exactly this output; a nondeterministic
    one must produce a permutation of it.

    Star stages and split replicas unfold lazily, when the first
    record reaches them, and every instance is counted when it is
    built — the same rule as {!Engine_conc}, since both engines build
    through the same nodes — so the paper's unfolding bounds can be
    checked without real threads. *)

type observer = edge:string -> Record.t -> unit
(** Called with the path of the component a record is about to enter.
    Paths look like ["/stage@1/split[k=3]/box:solveOneLevel"]. *)

exception Route_error of string
(** A record reached a parallel composition no branch of which accepts
    it, or a star that can neither pass it out nor into the body. *)

val run :
  ?observer:observer ->
  ?stats:Stats.t ->
  ?supervision:Supervise.config ->
  ?restore:Netstate.t ->
  Net.t ->
  Record.t list ->
  Record.t list
(** Checks that every input record's variant can flow through the
    network ({!Typecheck.flow}), then feeds the records through in
    order. [supervision], when given, overrides every box's own config
    ({!Net.with_supervision}); error records emitted by supervised
    boxes bypass the remaining components and appear in the output.
    [restore], when given, replays a {!Netstate.t} captured on either
    engine into the freshly compiled network before any input
    flows: sync cells refill their stores and star/split unfoldings
    are re-created, so running the suffix of an input stream over the
    captured prefix state is equivalent to one uninterrupted run.
    @raise Typecheck.Type_error on ill-typed networks.
    @raise Route_error on routing failures the static check cannot
    exclude (records supplied at run time may carry fewer labels than
    any branch wants). *)

val run_state :
  ?observer:observer ->
  ?stats:Stats.t ->
  ?supervision:Supervise.config ->
  ?restore:Netstate.t ->
  Net.t ->
  Record.t list ->
  Record.t list * Netstate.t
(** Like {!run}, additionally returning the network state after the
    last input — the snapshot primitive: for any cut point [k] of an
    input stream [xs],
    [run_state net (take k xs)] followed by
    [run ~restore:(snd …) net (drop k xs)] emits exactly what
    [run net xs] emits after position [k]. *)
