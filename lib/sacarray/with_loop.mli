(** SaC with-loops: data-parallel array comprehensions.

    A with-loop associates one or more {e generators} — rectangular,
    optionally strided index sets — with element expressions and builds
    an array ({!genarray}, {!modarray}) or folds a value ({!fold}).
    As in the paper (Section 2):

    - no evaluation order is defined {e within} a generator, which is
      what makes with-loops data-parallel for free;
    - when generators overlap, {e later generators win}: the paper's
      example sets index [3] to the second generator's value;
    - elements of a genarray covered by no generator take the default
      value; elements of a modarray take the source array's value.

    Passing [~pool] executes each generator's index space in parallel
    on the given {!Scheduler.Pool.t}; omitting it runs sequentially.
    Bodies must be pure: they may run in any order and concurrently.
    The index vector passed to a body is a scratch buffer reused across
    the calls of one execution chunk — it is valid only for the
    duration of the call, a body must not modify it, and a body that
    wants to retain it must copy it. (Every form runs on one stride
    odometer, for unit-step and strided generators alike. It hands the
    form whole runs along the innermost moving axis — the run's first
    point, its flat offset in the result, the offset step and the
    length — and the form's own loop calls the body at each point,
    advancing the index vector and the offset together.) *)

type generator
(** A rectangular index set [lower <= iv < upper], optionally strided. *)

val range : ?step:int array -> int array -> int array -> generator
(** [range lower upper] is the generator [lower <= iv < upper]; with
    [~step] only indices [lower + k*step] (component-wise) are members.
    @raise Invalid_argument on rank mismatch or non-positive steps. *)

val range_incl : ?step:int array -> int array -> int array -> generator
(** [range_incl lower upper] is [lower <= iv <= upper] — the form the
    paper's [addNumber] uses. *)

val generator_size : generator -> int
(** Number of index points. *)

val generator_rank : generator -> int

val generator_mem : generator -> int array -> bool
(** Membership test, including the stride constraint. *)

val generator_iter : generator -> (int array -> unit) -> unit
(** Row-major iteration; a fresh vector per call. *)

(** {1 With-loop forms} *)

type 'a part = generator * (int array -> 'a)
(** One [generator : expr] association. *)

val genarray :
  ?pool:Scheduler.Pool.t ->
  shape:Shape.t ->
  default:'a ->
  'a part list ->
  'a Nd.t
(** [genarray ~shape ~default parts] — the paper's
    [with { gens }: genarray(shape, default)].
    @raise Invalid_argument if any generator index falls outside
    [shape] or has the wrong rank. *)

val genarray_init :
  ?pool:Scheduler.Pool.t -> shape:Shape.t -> (int array -> 'a) -> 'a Nd.t
(** A genarray whose single generator covers the whole index space, so
    no default is needed: [genarray_init ~shape f] evaluates [f]
    exactly once per index. This is the form most derived array
    operations (map, zipwith, selection) compile to. *)

val modarray : ?pool:Scheduler.Pool.t -> 'a Nd.t -> 'a part list -> 'a Nd.t
(** [modarray src parts] — a new array shaped like [src] with the
    generator-covered elements recomputed. *)

val fold :
  ?pool:Scheduler.Pool.t ->
  neutral:'a ->
  combine:('a -> 'a -> 'a) ->
  'a part list ->
  'a
(** Fold-with-loop: combine the value of every generator point with
    [combine], starting from [neutral]. [combine] must be associative
    and commutative with unit [neutral] — with-loops define no
    evaluation order. *)
