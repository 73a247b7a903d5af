(* A placement plan: how the flattened serial spine of a network maps
   onto distributed partitions.

   The spine is a list of segments (Engine_dist.segments). A plan is a
   sequence of stages in pipeline order; each stage owns one or more
   partition indices, assigned consecutively from 0:

   - [Run {lo; hi}]: segments [lo..hi] fused into ONE partition;
   - [Shard {seg; shards}]: segment [seg] (a nondeterministic [!!]
     replication) replicated across [shards] partitions, with records
     routed by [shard_of] on the split tag so equal tag values always
     reach the same partition — which preserves the combinator's
     "equal tags meet the same replica" guarantee across machines.

   The default box-count-balanced contiguous cut ([contiguous]) is a
   plan whose stages are all [Run]s. Plans travel in [Proto.Hello] as a compact text
   form so coordinator and workers provably agree on the layout. *)

type stage =
  | Run of { lo : int; hi : int }
  | Shard of { seg : int; shards : int }

type t = stage array

let width = function Run _ -> 1 | Shard { shards; _ } -> shards
let parts t = Array.fold_left (fun acc s -> acc + width s) 0 t

let nsegs t =
  Array.fold_left
    (fun acc -> function
      | Run { hi; _ } -> max acc (hi + 1)
      | Shard { seg; _ } -> max acc (seg + 1))
    0 t

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

let validate ?nsegs:expect t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec go i next_seg =
    if i = Array.length t then
      match expect with
      | Some n when next_seg <> n ->
          err "plan covers %d segments but the network has %d" next_seg n
      | _ -> Ok ()
    else
      match t.(i) with
      | Run { lo; hi } ->
          if lo <> next_seg then
            err "stage %d starts at segment %d, expected %d" i lo next_seg
          else if hi < lo then err "stage %d: empty segment range %d-%d" i lo hi
          else go (i + 1) (hi + 1)
      | Shard { seg; shards } ->
          if seg <> next_seg then
            err "stage %d starts at segment %d, expected %d" i seg next_seg
          else if shards < 1 then
            err "stage %d: shard count %d must be >= 1" i shards
          else go (i + 1) (seg + 1)
  in
  if Array.length t = 0 then err "empty plan" else go 0 0

(* ------------------------------------------------------------------ *)
(* Text codec (the [Proto.Hello] plan field)                           *)

(* Stage forms, comma-joined: [lo-hi] or bare [lo] for a Run,
   [seg!k] for a Shard — e.g. ["0,1!4,2-3"]. *)

let encode t =
  String.concat ","
    (Array.to_list t
    |> List.map (function
         | Run { lo; hi } when lo = hi -> string_of_int lo
         | Run { lo; hi } -> Printf.sprintf "%d-%d" lo hi
         | Shard { seg; shards } -> Printf.sprintf "%d!%d" seg shards))

let decode s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let int_of what field =
    match int_of_string_opt field with
    | Some n when n >= 0 -> Ok n
    | _ -> err "bad plan: %s %S is not a non-negative integer" what field
  in
  let stage_of field =
    match String.index_opt field '!' with
    | Some i -> (
        let seg = String.sub field 0 i in
        let k = String.sub field (i + 1) (String.length field - i - 1) in
        match (int_of "segment" seg, int_of "shard count" k) with
        | Ok seg, Ok shards when shards >= 1 -> Ok (Shard { seg; shards })
        | Ok _, Ok shards -> err "bad plan: shard count %d must be >= 1" shards
        | (Error _ as e), _ | _, (Error _ as e) -> e)
    | None -> (
        match String.index_opt field '-' with
        | Some i -> (
            let lo = String.sub field 0 i in
            let hi = String.sub field (i + 1) (String.length field - i - 1) in
            match (int_of "segment" lo, int_of "segment" hi) with
            | Ok lo, Ok hi -> Ok (Run { lo; hi })
            | (Error _ as e), _ | _, (Error _ as e) -> e)
        | None -> (
            match int_of "segment" field with
            | Ok lo -> Ok (Run { lo; hi = lo })
            | Error _ as e -> e))
  in
  if String.trim s = "" then Error "bad plan: empty"
  else
    let fields = String.split_on_char ',' (String.trim s) in
    let rec go acc = function
      | [] -> (
          let t = Array.of_list (List.rev acc) in
          match validate t with Ok () -> Ok t | Error e -> Error ("bad plan: " ^ e))
      | f :: rest -> (
          match stage_of f with
          | Ok st -> go (st :: acc) rest
          | Error _ as e -> e)
    in
    go [] fields

let to_string t =
  String.concat " | "
    (Array.to_list t
    |> List.map (function
         | Run { lo; hi } when lo = hi -> Printf.sprintf "seg %d" lo
         | Run { lo; hi } -> Printf.sprintf "segs %d-%d" lo hi
         | Shard { seg; shards } -> Printf.sprintf "seg %d sharded x%d" seg shards))

(* ------------------------------------------------------------------ *)
(* Partition-index arithmetic                                          *)

(* First partition index of stage [i]. *)
let base t i =
  let b = ref 0 in
  for j = 0 to i - 1 do
    b := !b + width t.(j)
  done;
  !b

(* Which stage a partition index belongs to. *)
let stage_of_part t part =
  let rec go i b =
    if i >= Array.length t then
      invalid_arg
        (Printf.sprintf "Plan.stage_of_part: partition %d out of range" part)
    else
      let w = width t.(i) in
      if part < b + w then i else go (i + 1) (b + w)
  in
  go 0 0

(* Segment range a partition runs: a [Run] partition runs its whole
   range; every replica of a [Shard] stage runs the shard segment. *)
let segments_of_part t part =
  match t.(stage_of_part t part) with
  | Run { lo; hi } -> (lo, hi)
  | Shard { seg; _ } -> (seg, seg)

(* ------------------------------------------------------------------ *)
(* Shard routing                                                       *)

(* Deterministic tag-value hash: Knuth multiplicative scrambling so
   consecutive tag values spread across shards, then reduced into
   [0, shards). Both sides of the wire use this same function — the
   invariant "equal tags meet the same replica" depends on it. *)
let shard_of ~shards v =
  if shards <= 1 then 0
  else
    let h = v * 0x9E3779B1 in
    (h land max_int) mod shards

(* ------------------------------------------------------------------ *)
(* The default cut                                                     *)

(* Box-count-balanced contiguous grouping of [weights] into at most
   [parts] runs: Engine_dist's default cut when no plan is given. *)
let contiguous ~parts ~weights =
  if parts <= 0 then invalid_arg "Plan.contiguous: parts must be positive";
  let w = Array.of_list (List.map (max 1) weights) in
  let n = Array.length w in
  if n = 0 then invalid_arg "Plan.contiguous: no segments";
  let k = min parts n in
  let total = Array.fold_left ( + ) 0 w in
  let stages = ref [] in
  let i = ref 0 and remaining = ref total in
  for g = 0 to k - 1 do
    let groups_left = k - g in
    let target = float_of_int !remaining /. float_of_int groups_left in
    (* leave at least one segment for every later group *)
    let limit = if g = k - 1 then n else n - (groups_left - 1) in
    let lo = !i in
    let accw = ref 0 in
    while
      !i < limit
      && (!i = lo
         || g = k - 1
         || float_of_int !accw +. (float_of_int w.(!i) /. 2.) <= target)
    do
      accw := !accw + w.(!i);
      incr i
    done;
    remaining := !remaining - !accw;
    stages := Run { lo; hi = !i - 1 } :: !stages
  done;
  Array.of_list (List.rev !stages)
