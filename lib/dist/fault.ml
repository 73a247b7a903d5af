(** Fault plans: the failures a distributed run injects into its own
    workers, in [Journal.arm_crash]'s vocabulary — a worker dies at the
    [crossing]-th crossing (1-based) of a named seam of its loop. A
    fault applies to its partition's first spawn only ({!spawn}), so a
    replacement runs clean. *)

type seam =
  | Record  (** Dies before feeding its [crossing]-th input record. *)
  | Flush
      (** As [Record], but the envelope's outputs so far still go out,
          never its credit: what the sequence watermark dedupes. *)
  | Freeze  (** Receiving [Migrate]: dies instead of answering it. *)

type fault =
  | Crash of { part : int; seam : seam; crossing : int }
  | Stall of { part : int; us : int }
      (** Every record the worker consumes waits [us] microseconds. *)

type t = fault list

let part_of = function Crash { part; _ } | Stall { part; _ } -> part

(** @raise Invalid_argument on a partition outside [0, parts), a
    crossing below 1, a [Freeze] crossing other than 1 (a worker
    freezes once), or a negative stall. *)
let validate ~parts t =
  let bad fmt = Printf.ksprintf (fun s -> invalid_arg ("fault plan: " ^ s)) fmt in
  List.iter
    (fun f ->
      if part_of f < 0 || part_of f >= parts then
        bad "partition %d is outside the plan's 0..%d" (part_of f) (parts - 1);
      match f with
      | Crash { seam = Freeze; crossing; _ } when crossing <> 1 ->
          bad "freeze crossing %d: a worker freezes once" crossing
      | Crash { crossing; _ } when crossing < 1 ->
          bad "crossing %d: the first is crossing 1" crossing
      | Stall { us; _ } when us < 0 -> bad "stall of %d us is negative" us
      | _ -> ())
    t

(** The faults the worker spawned for partition [part] injects. *)
let spawn t ~part:p ~first = if first then List.filter (fun f -> part_of f = p) t else []

let record_crashes =
  List.filter_map (function
    | Crash { part; seam = (Record | Flush) as s; crossing } ->
        Some (part, crossing, s = Flush)
    | _ -> None)

(** The Hello's [crash_after] and [crash_flush] for the first
    [Record]/[Flush] crash of [t]; [(-1, false)] without one. *)
let to_hello t =
  match record_crashes t with (_, n, flush) :: _ -> (n - 1, flush) | [] -> (-1, false)

let of_hello (h : Proto.hello) =
  if h.crash_after < 0 then []
  else
    let seam = if h.crash_flush then Flush else Record in
    [ Crash { part = h.part; seam; crossing = h.crash_after + 1 } ]

(** Whether Hellos carry all of [t]: one [Record]/[Flush] crash per
    partition and nothing else. *)
let over_wire t =
  let parts = List.map (fun (p, _, _) -> p) (record_crashes t) in
  List.length parts = List.length t
  && List.length (List.sort_uniq compare parts) = List.length parts

(** [Some flush] when [t] kills the worker at its [n]-th record. *)
let record_crash t n =
  List.find_map (fun (_, k, flush) -> if k = n then Some flush else None)
    (record_crashes t)

let freeze_crash = List.exists (function Crash { seam = Freeze; _ } -> true | _ -> false)
let stall_us = List.fold_left (fun us -> function Stall s -> us + s.us | _ -> us) 0
