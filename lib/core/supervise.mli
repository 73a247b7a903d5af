(** Box supervision: failure policy, timeouts and well-typed error
    records, shared by every engine.

    In the paper's setting a box is foreign computation (a SaC
    function); S-Net has no opinion about what happens when it fails.
    In a long-running coordination program, one record that makes a box
    raise must not poison the entire network run. This module gives
    every engine the same contract: a supervised box invocation either
    emits its outputs, or — according to a per-network {!policy} —
    re-raises, retries with exponential backoff, or emits a single
    {e error record} that the network routes like any other record.

    An error record is the failing input record (so all its labels
    flow-inherit downstream) extended with the {!error_tag} tag and two
    string-valued fields naming the box and the failure. Every
    combinator passes error records through unchanged: choice and split
    forward them straight to their merge point, and a star treats them
    as exiting (otherwise a poisoned record would unfold stages
    forever). The S+Net work on fault-tolerant coordination (Poss et
    al.) motivates exactly this record-level containment. *)

type policy =
  | Fail_fast
      (** Re-raise the box exception to the caller of [run]; the run is
          abandoned. This is the historical behaviour and the
          default. *)
  | Error_record
      (** Convert the failure into one error record emitted in place of
          the box's outputs. *)
  | Retry of int
      (** Re-attempt the invocation up to [n] more times with
          exponential backoff; if every attempt fails, fall back to
          [Error_record] behaviour. *)

type config = {
  policy : policy;
  timeout : float option;
      (** Per-invocation wall-clock budget in seconds. OCaml cannot
          preempt a running box, so the budget is checked {e post hoc}:
          an invocation that finishes over budget has its outputs
          discarded and is treated as a failure ({!Box_timeout}) under
          the configured policy. *)
}

val default : config
(** [{ policy = Fail_fast; timeout = None }]. *)

val make : ?policy:policy -> ?timeout:float -> unit -> config
(** @raise Invalid_argument on a non-positive [timeout] or negative
    retry count. *)

exception Box_timeout of {
  box : string;
  elapsed : float;
  budget : float;
}

(** {1 Error records} *)

val error_tag : string
(** ["error"] — the tag marking error records. *)

val string_key : string Value.Key.key
(** The key under which [error_msg] and [error_box] field values are
    injected. Exposed so serialization layers ({!Dist.Wire}) can
    encode error-stamped records and so applications can build
    string-valued fields without inventing a second key. *)

val error_record : box:string -> input:Record.t -> exn -> Record.t
(** The input record extended with [<error>], [error_msg] and
    [error_box]; existing labels of the input are preserved. *)

val is_error : Record.t -> bool

val error_message : Record.t -> string option
(** The failure rendered by [Printexc.to_string], when [r] is an error
    record built here. *)

val error_origin : Record.t -> string option
(** Name of the box that failed. *)

(** {1 Supervised invocation} *)

type outcome =
  | Emit of Record.t list
  | Fail of exn  (** Only under [Fail_fast]. *)

val supervise :
  config ->
  stats:Stats.t ->
  name:string ->
  (Record.t -> Record.t list) ->
  Record.t ->
  outcome
(** Run one box invocation under the config. Updates the stats
    counters: [box_retries] per re-attempt, [box_timeouts] per
    over-budget invocation, [box_errors] once per invocation whose
    failure was final (raised or converted). With the default config
    this reduces to a bare call plus one exception handler — the
    no-failure fast path adds no timing or allocation. *)

(** {1 Policy parsing (CLI / bench)} *)

val policy_to_string : policy -> string
val policy_of_string : string -> (policy, string) result
(** Accepts ["fail"], ["fail-fast"], ["error-record"], ["record"],
    ["retry:<n>"]. *)
