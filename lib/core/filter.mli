(** S-Net filters: [\[pattern -> rec1; ...; recn\]].

    A filter is pure S-Net-level housekeeping (Section 4): for each
    accepted input record it emits one output record per specifier.
    Items of a specifier copy a field, rename a field, or set a tag
    from an arithmetic expression over the pattern's tags. Excess
    labels of the input — labels outside the pattern — are attached to
    every output by flow inheritance, which is what lets the paper's
    [{} -> {<k>=1}] filter extend [{board, opts}] records without
    naming their fields. *)

type item =
  | Copy_field of string
      (** A field name occurring in the pattern: copied over. *)
  | Rename_field of { target : string; source : string }
      (** [target = source]: the source's value under a new label. *)
  | Set_tag of string * Pattern.expr
      (** [<target> = expr]; expression tags must occur in the
          pattern. A bare new tag defaults to 0 ([Const 0]). *)

type spec = item list
(** One output record specifier. *)

type t

val make : ?name:string -> Pattern.t -> spec list -> t
(** @raise Invalid_argument when an item references a field or tag not
    present in the pattern, or the pattern's guard does (static
    checks). An empty [spec list] deletes matching records. *)

val name : t -> string
val pattern : t -> Pattern.t
val specs : t -> spec list

val apply : t -> Record.t -> Record.t list
(** Outputs for one input, flow inheritance included, in specifier
    order. Like {!Box.execute}, a filter plans each output once per
    input shape, for at most {!max_plans} shapes; other shapes, and
    private ones, take the unplanned path, with the same results and
    errors.
    @raise Invalid_argument if the record does not match the filter's
    pattern (the surrounding network must route correctly). *)

val max_plans : int
(** 8 input shapes per filter. *)

val signature : t -> Rectype.signature
(** Input: the pattern's variant. Output: one variant per specifier
    (before flow inheritance; an empty specifier list yields the empty
    output type). *)

val to_string : t -> string
