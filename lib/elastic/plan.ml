(* Cost-model planner: placement hints -> Dist.Plan.t. See plan.mli. *)

type seg_info = {
  index : int;
  weight : int;
  shards : int option;
  pin : int option;
}

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let seg_infos net =
  let segs = Array.of_list (Dist.Engine_dist.segments net) in
  let info i seg =
    let h = Snet.Net.hints_of seg in
    let weight =
      match h.Snet.Net.weight with
      | Some w when w >= 1 -> Ok w
      | Some w -> err "segment %d: @weight %d must be >= 1" i w
      | None -> Ok (max 1 (Snet.Net.count_boxes seg))
    in
    let shards =
      match h.Snet.Net.shards with
      | None -> Ok None
      | Some k when k < 1 -> err "segment %d: @shards %d must be >= 1" i k
      | Some k -> (
          (* Typecheck enforces this on checked nets; re-validate here
             because plans can be built for hand-assembled networks. *)
          match Snet.Net.unplace seg with
          | Snet.Net.Split { det = false; _ } -> Ok (Some k)
          | Snet.Net.Split { det = true; _ } ->
              err
                "segment %d: @shards on a deterministic split (!) — \
                 sharding would break its causal merge order"
                i
          | _ ->
              err
                "segment %d: @shards only applies to a parallel \
                 replication (!!)"
                i)
    in
    let pin =
      match h.Snet.Net.place with
      | Some p when p < 0 -> err "segment %d: @place worker=%d must be >= 0" i p
      | p -> Ok p
    in
    match (weight, shards, pin) with
    | Ok weight, Ok shards, Ok pin -> Ok { index = i; weight; shards; pin }
    | (Error _ as e), _, _ | _, (Error _ as e), _ | _, _, (Error _ as e) -> e
  in
  let rec collect i acc =
    if i = Array.length segs then Ok (List.rev acc)
    else
      match info i segs.(i) with
      | Ok s -> collect (i + 1) (s :: acc)
      | Error _ as e -> e
  in
  collect 0 []

let has_hints net =
  List.exists
    (fun seg -> Snet.Net.hints_of seg <> Snet.Net.no_hints)
    (Dist.Engine_dist.segments net)

(* --- block planning ---------------------------------------------------

   Pins cut the spine into blocks with fixed partition budgets: a
   segment pinned at worker=N must START partition N, so everything
   before it occupies exactly N partitions. Within a block, sharded
   segments are fixed-width stages; the gaps between them (free runs)
   share the block's remaining budget proportionally to their summed
   weights, then each free run is cut by the same box-count-balanced
   greedy rule as Dist.Plan.contiguous. *)

(* A block element: one sharded stage, or one maximal run of free
   segments. *)
type elem = Eshard of seg_info | Erun of seg_info list

let elems_of segs =
  let rec go acc run = function
    | [] -> List.rev (if run = [] then acc else Erun (List.rev run) :: acc)
    | s :: rest -> (
        match s.shards with
        | Some _ ->
            let acc = if run = [] then acc else Erun (List.rev run) :: acc in
            go (Eshard s :: acc) [] rest
        | None -> go acc (s :: run) rest)
  in
  go [] [] segs

(* Distribute [budget] partitions over the free runs of [elems]
   proportionally to run weight: every run starts at 1 partition and
   the remainder goes, one at a time, to the run with the highest
   weight per partition, never past the run's segment count. *)
let run_parts ~budget elems =
  let runs =
    List.filter_map (function Erun r -> Some r | Eshard _ -> None) elems
  in
  let n = List.length runs in
  let alloc = Array.make n 1 in
  let lens = Array.of_list (List.map List.length runs) in
  let ws =
    Array.of_list
      (List.map (fun r -> List.fold_left (fun a s -> a + s.weight) 0 r) runs)
  in
  let spend = ref (budget - n) in
  let pick () =
    let best = ref (-1) and best_ratio = ref neg_infinity in
    for i = 0 to n - 1 do
      if alloc.(i) < lens.(i) then begin
        let ratio = float_of_int ws.(i) /. float_of_int alloc.(i) in
        if ratio > !best_ratio then begin
          best := i;
          best_ratio := ratio
        end
      end
    done;
    !best
  in
  while
    !spend > 0
    &&
    match pick () with
    | -1 -> false
    | i ->
        alloc.(i) <- alloc.(i) + 1;
        decr spend;
        true
  do
    ()
  done;
  alloc

let plan_block ~budget segs =
  let elems = elems_of segs in
  let nshard_parts =
    List.fold_left
      (fun a -> function
        | Eshard s -> a + Option.get s.shards
        | Erun _ -> a)
      0 elems
  in
  let nruns =
    List.length (List.filter (function Erun _ -> true | _ -> false) elems)
  in
  let min_parts = nshard_parts + nruns in
  let max_parts =
    nshard_parts
    + List.fold_left
        (fun a -> function Erun r -> a + List.length r | _ -> a)
        0 elems
  in
  if budget < min_parts then
    err "segments %d..%d need at least %d partitions, only %d available"
      (List.hd segs).index
      (List.nth segs (List.length segs - 1)).index
      min_parts budget
  else begin
    (* More budget than slots is not an error: the extra workers are
       simply not spawned (the legacy cut caps the same way). *)
    let budget = min budget max_parts in
    let alloc = run_parts ~budget:(budget - nshard_parts) elems in
    let stages = ref [] in
    let run_i = ref 0 in
    List.iter
      (function
        | Eshard s ->
            stages :=
              Dist.Plan.Shard { seg = s.index; shards = Option.get s.shards }
              :: !stages
        | Erun r ->
            let q = alloc.(!run_i) in
            incr run_i;
            let weights = List.map (fun s -> s.weight) r in
            let base = (List.hd r).index in
            Array.iter
              (fun st ->
                match st with
                | Dist.Plan.Run { lo; hi } ->
                    stages :=
                      Dist.Plan.Run { lo = lo + base; hi = hi + base }
                      :: !stages
                | Dist.Plan.Shard _ -> assert false)
              (Dist.Plan.contiguous ~parts:q ~weights))
      elems;
    Ok (List.rev !stages)
  end

let of_net ~workers net =
  if workers <= 0 then err "workers must be positive"
  else
    match seg_infos net with
    | Error _ as e -> e
    | Ok [] -> err "empty network"
    | Ok segs -> (
        (* Split at pins. Each pinned segment opens a new block whose
           base partition index is the pin. *)
        let rec blocks cur acc = function
          | [] -> List.rev (List.rev cur :: acc)
          | s :: rest when s.pin <> None && cur <> [] ->
              blocks [ s ] (List.rev cur :: acc) rest
          | s :: rest -> blocks (s :: cur) acc rest
        in
        let bs =
          match segs with
          | first :: _ when first.pin <> None && first.pin <> Some 0 ->
              [ (* force the feasibility error below *) ]
          | _ -> blocks [] [] segs |> List.filter (( <> ) [])
        in
        match bs with
        | [] ->
            err
              "segment 0: @place worker=%d — the first segment always \
               starts at partition 0"
              (match (List.hd segs).pin with Some p -> p | None -> 0)
        | _ -> (
            (* Budgets: block i ends where block i+1's pin begins; the
               last block gets whatever remains of [workers]. *)
            let rec assemble base acc = function
              | [] -> Ok (List.rev acc)
              | b :: rest ->
                  let bound =
                    match rest with
                    | (p :: _) :: _ -> (
                        match p.pin with Some n -> n | None -> assert false)
                    | [] :: _ -> assert false
                    | [] -> workers
                  in
                  if bound <= base then
                    match rest with
                    | (p :: _) :: _ ->
                        err
                          "segment %d: @place worker=%d is not after the %d \
                           partition(s) already placed before it"
                          p.index bound base
                    | _ ->
                        err
                          "segment %d: no partition budget left — %d \
                           worker(s) are all pinned earlier in the spine"
                          (List.hd b).index workers
                  else begin
                    match plan_block ~budget:(bound - base) b with
                    | Error _ as e -> e
                    | Ok stages ->
                        let placed =
                          List.fold_left
                            (fun a st -> a + Dist.Plan.width st)
                            0 stages
                        in
                        (* A pin mid-spine demands the block before it
                           fill its budget exactly; the final block may
                           come up short (extra workers unused). *)
                        if rest <> [] && placed <> bound - base then
                          err
                            "segment %d: @place worker=%d leaves a gap — \
                             the segments before it can only fill %d \
                             partition(s) from %d"
                            (match rest with
                            | (p :: _) :: _ -> p.index
                            | _ -> 0)
                            bound (base + placed) base
                        else assemble (base + placed) (List.rev stages @ acc) rest
                  end
            in
            match assemble 0 [] bs with
            | Error _ as e -> e
            | Ok stages -> (
                let p = Array.of_list stages in
                match
                  Dist.Plan.validate ~nsegs:(List.length segs) p
                with
                | Ok () -> Ok p
                | Error e -> Error e)))

let describe plan net =
  let segs = Array.of_list (Dist.Engine_dist.segments net) in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "plan: %s (%d partition(s))\n" (Dist.Plan.to_string plan)
       (Dist.Plan.parts plan));
  let part = ref 0 in
  Array.iter
    (fun st ->
      match st with
      | Dist.Plan.Run { lo; hi } ->
          Buffer.add_string b
            (Printf.sprintf "  part %d: seg%s %s\n" !part
               (if lo = hi then "" else "s")
               (if lo = hi then string_of_int lo
                else Printf.sprintf "%d-%d" lo hi));
          Buffer.add_string b
            (Printf.sprintf "          %s\n"
               (Snet.Net.to_string
                  (Snet.Net.serial_list
                     (Array.to_list (Array.sub segs lo (hi - lo + 1))))));
          incr part
      | Dist.Plan.Shard { seg; shards } ->
          for k = 0 to shards - 1 do
            Buffer.add_string b
              (Printf.sprintf "  part %d: seg %d shard %d/%d\n" !part seg k
                 shards);
            if k = 0 then
              Buffer.add_string b
                (Printf.sprintf "          %s\n"
                   (Snet.Net.to_string segs.(seg)));
            incr part
          done)
    plan;
  Buffer.contents b
