(** Write-once synchronisation cells (ivars).

    A future is filled exactly once, either with a value or with an
    exception; any number of consumers may block on it. Used as the
    completion handle for tasks submitted to a {!Pool}. *)

type 'a t

val create : unit -> 'a t
(** A fresh, unresolved future. *)

val fill : 'a t -> 'a -> unit
(** [fill fut v] resolves [fut] with [v].
    @raise Invalid_argument if [fut] is already resolved. *)

val fill_error : 'a t -> exn -> unit
(** [fill_error fut e] resolves [fut] with the exception [e].
    @raise Invalid_argument if [fut] is already resolved. *)

val run : 'a t -> (unit -> 'a) -> unit
(** [run fut f] evaluates [f ()] and resolves [fut] with its result or
    with the exception it raises. *)

val await : 'a t -> 'a
(** Block until resolved; return the value or re-raise the stored
    exception. *)

val peek : 'a t -> ('a, exn) result option
(** [peek fut] is the current state without blocking. *)

val is_resolved : 'a t -> bool
