type observer = edge:string -> Record.t -> unit

type ctx = {
  stats : Stats.t;
  observer : observer option;
  (* Prior run state replayed into nodes as they build; lazily built
     star stages and split replicas consult it too, so restored
     unfolding re-creates the sync cells nested inside. *)
  restore : Netstate.t;
  (* The capture registry: each stateful node adds its entry to a
     state. Nodes build from actor handlers under the concurrent
     engine, so registration takes [lock]. *)
  lock : Mutex.t;
  mutable captures : (Netstate.t -> Netstate.t) list;
}

let create ?observer ~restore stats =
  { stats; observer; restore; lock = Mutex.create (); captures = [] }

let register ctx add =
  Mutex.protect ctx.lock (fun () -> ctx.captures <- add :: ctx.captures)

(* The adders read node state that, under the concurrent engine, is
   private to the node's actor: only sound at quiescence. *)
let capture ctx =
  let adds = Mutex.protect ctx.lock (fun () -> ctx.captures) in
  Netstate.normalize (List.fold_left (fun s add -> add s) Netstate.empty adds)

let observe ctx path r =
  match ctx.observer with Some f -> f ~edge:path r | None -> ()

(* A leaf (box, filter or sync cell) is one instance, counted when
   built. Its step observes the record and passes an error record
   through untouched; [emitted] counts what a real step emits. *)
let instance ctx path =
  Stats.record_instance ctx.stats;
  path

let bypass ctx path r =
  observe ctx path r;
  Supervise.is_error r

let emitted ctx outs =
  Stats.record_emission ctx.stats (List.length outs);
  outs

let box ctx path b =
  let name = Box.name b in
  let path = instance ctx (path ^ "/box:" ^ name) in
  let sup = Box.supervision b in
  let step r =
    if bypass ctx path r then [ r ]
    else begin
      Stats.record_box_invocation ctx.stats;
      let t0 = Obsv.Probe.span_start () in
      let outcome =
        Supervise.supervise sup ~stats:ctx.stats ~name (Box.execute b) r
      in
      Obsv.Probe.span_end ~cat:"box" ~name:path t0;
      match outcome with
      | Supervise.Emit outs -> emitted ctx outs
      | Supervise.Fail e -> raise e
    end
  in
  (path, step)

let filter ctx path f =
  let path = instance ctx (path ^ "/filter:" ^ Filter.name f) in
  let step r =
    if bypass ctx path r then [ r ]
    else begin
      Stats.record_filter_invocation ctx.stats;
      let t0 = Obsv.Probe.span_start () in
      let outs = Filter.apply f r in
      Obsv.Probe.span_end ~cat:"filter" ~name:path t0;
      emitted ctx outs
    end
  in
  (path, step)

(* A synchro-cell stores the first record matching each still-empty
   pattern; once every slot is filled it emits their merge and is spent,
   passing every later record through. A stored record emits nothing. *)
let sync ctx path patterns =
  let path = instance ctx (path ^ "/sync") in
  let pats = Array.of_list patterns in
  let slots = Array.make (Array.length pats) None in
  let spent = ref false in
  (match Netstate.sync_cell ctx.restore path with
  | None -> ()
  | Some c ->
      spent := c.Netstate.spent;
      List.iteri
        (fun i s -> if i < Array.length slots then slots.(i) <- s)
        c.Netstate.slots);
  register ctx (fun s ->
      let cell = { Netstate.slots = Array.to_list slots; spent = !spent } in
      { s with Netstate.syncs = (path, cell) :: s.Netstate.syncs });
  let rec free_slot r i =
    if i = Array.length pats then None
    else if Option.is_none slots.(i) && Pattern.matches pats.(i) r then Some i
    else free_slot r (i + 1)
  in
  let step r =
    if bypass ctx path r then [ r ]
    else if !spent then emitted ctx [ r ]
    else
      match free_slot r 0 with
      | None -> emitted ctx [ r ]
      | Some i ->
          slots.(i) <- Some r;
          if Array.for_all Option.is_some slots then begin
            spent := true;
            (* Merge in pattern order; earlier patterns win on label
               collisions. *)
            let merged =
              Array.fold_left
                (fun acc stored ->
                  match (acc, stored) with
                  | None, s -> s
                  | Some acc, Some stored ->
                      Some (Record.inherit_from ~excess:stored acc)
                  | Some acc, None -> Some acc)
                None slots
            in
            emitted ctx [ Option.get merged ]
          end
          else []
  in
  (path, step)

(* Best-match routing: the branch whose input type matches the record
   with the greater arity; a tie goes left (a legal resolution of the
   nondeterministic choice, and the deterministic one for [A | B]). *)
let chooses_left net path left right =
  let left_in = Typecheck.input_type left in
  let right_in = Typecheck.input_type right in
  fun r ->
    match (Rectype.match_score left_in r, Rectype.match_score right_in r) with
    | None, None ->
        raise
          (Errors.Route_error
             (Printf.sprintf "record %s matches neither branch of %s at %s"
                (Record.to_string r) (Net.to_string net) path))
    | Some _, None -> true
    | None, Some _ -> false
    | Some a, Some b -> a >= b

let split_tag path tag r =
  match Record.tag tag r with
  | Some v -> v
  | None ->
      raise
        (Errors.Route_error
           (Printf.sprintf "record %s lacks split tag <%s> at %s"
              (Record.to_string r) tag path))

(* Lazy unfolding under concurrent senders: [find] reads what has been
   published without a lock; a miss takes [lock], looks again and
   calls [build], which publishes. So each entry is built exactly once.
   Hosts' [leaf] and [merge] never send, so no send happens while
   [lock] is held. [find] and [build] are made once per table, so a
   hit allocates nothing. *)
let find_or_build lock ~find ~build key =
  match find key with
  | Some t -> t
  | None ->
      Mutex.protect lock (fun () ->
          match find key with Some t -> t | None -> build key)

module Int_map = Map.Make (Int)

type ('t, 'm) host = {
  leaf : string -> (Record.t -> Record.t list) -> down:'t -> 't;
  route : ('m -> Record.t -> unit) -> 't;
  send : 't -> 'm -> Record.t -> unit;
  merge : string -> det:bool -> down:'t -> ('m -> 'm) * 't;
}

let leaf host (path, step) ~down = host.leaf path step ~down

let rec build ctx host path net ~down =
  match net with
  | Net.Box b -> leaf host (box ctx path b) ~down
  | Net.Filter f -> leaf host (filter ctx path f) ~down
  | Net.Sync patterns -> leaf host (sync ctx path patterns) ~down
  (* Placement hints are extra-functional: build the body at the same
     path so annotated and bare nets capture/restore identically. *)
  | Net.Place { body; _ } -> build ctx host path body ~down
  | Net.Observe { tag; body } ->
      let path = path ^ "/" ^ tag in
      let inner = build ctx host path body ~down in
      host.route (fun m r ->
          observe ctx path r;
          host.send inner m r)
  | Net.Serial (a, b) ->
      let cb = build ctx host (path ^ "/R") b ~down in
      build ctx host (path ^ "/L") a ~down:cb
  (* Routing nodes decide first, then stamp the region entry: error
     records go straight to the merge point, since they may match no
     branch and lack the routing tag. *)
  | Net.Choice { left; right; det } ->
      let stamp, merge = host.merge (path ^ "/choice-col") ~det ~down in
      let cl = build ctx host (path ^ "/l") left ~down:merge in
      let cr = build ctx host (path ^ "/r") right ~down:merge in
      let left_wins = chooses_left net path left right in
      host.route (fun m r ->
          let next =
            if Supervise.is_error r then merge
            else if left_wins r then cl
            else cr
          in
          host.send next (stamp m) r)
  | Net.Split { body; tag; det } ->
      let stamp, merge = host.merge (path ^ "/split-col") ~det ~down in
      let replicas = Atomic.make Int_map.empty in
      let replica =
        find_or_build (Mutex.create ())
          ~find:(fun v -> Int_map.find_opt v (Atomic.get replicas))
          ~build:(fun v ->
            let t =
              build ctx host
                (Printf.sprintf "%s/split[%s=%d]" path tag v)
                body ~down:merge
            in
            Atomic.set replicas (Int_map.add v t (Atomic.get replicas));
            Stats.record_split_replica ctx.stats;
            t)
      in
      List.iter
        (fun v -> ignore (replica v))
        (Netstate.split_tags ctx.restore path);
      register ctx (fun s ->
          let tags =
            Int_map.fold (fun v _ acc -> v :: acc) (Atomic.get replicas) []
          in
          { s with Netstate.splits = (path, tags) :: s.Netstate.splits });
      host.route (fun m r ->
          let next =
            if Supervise.is_error r then merge
            else replica (split_tag path tag r)
          in
          host.send next (stamp m) r)
  | Net.Star { body; exit; det } ->
      let stamp, out = host.merge (path ^ "/star-col") ~det ~down in
      let depth = ref 0 in
      register ctx (fun s ->
          { s with Netstate.stars = (path, !depth) :: s.Netstate.stars });
      let restored = Netstate.star_depth ctx.restore path in
      (* Tap [d] sits before stage [d+1]; tap 0 is the star's entry
         and, for a deterministic star, the region entry. *)
      let rec tap d =
        let next_stage = Atomic.make None in
        let stage =
          find_or_build (Mutex.create ())
            ~find:(fun () -> Atomic.get next_stage)
            ~build:(fun () ->
              let s =
                build ctx host
                  (Printf.sprintf "%s/stage@%d" path (d + 1))
                  body ~down:(tap (d + 1))
              in
              Atomic.set next_stage (Some s);
              Mutex.protect ctx.lock (fun () ->
                  if d + 1 > !depth then depth := d + 1);
              Stats.record_star_stage ctx.stats ~depth:(d + 1);
              Obsv.Probe.star_depth ~depth:(d + 1);
              s)
        in
        (* Restored unfolding: build the recorded stages eagerly so
           the sync cells inside them exist to receive their state. *)
        if restored > d then ignore (stage ());
        let stamp = if d = 0 then stamp else Fun.id in
        host.route (fun m r ->
            (* An error record exits at the next tap; looping it back
               through the body would unfold stages forever. *)
            let next =
              if Supervise.is_error r || Pattern.matches exit r then out
              else stage ()
            in
            host.send next (stamp m) r)
      in
      tap 0

let build ctx host net ~down = build ctx host "" net ~down
