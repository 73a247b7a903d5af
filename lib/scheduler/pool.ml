(* Work-stealing pool.

   One Chase–Lev deque per worker domain: a worker pushes and pops its
   own deque LIFO (locality for nested fork), thieves steal FIFO
   (oldest = biggest ranges under binary splitting). Submissions from
   threads that are not workers of this pool go through a small
   mutex-protected injector queue — that mutex is off the hot path,
   which is pop-own-deque.

   Parking: an idle worker that finds no work advertises itself in
   [n_parked], re-checks every queue, and then sleeps on a condition
   variable guarded by an epoch counter. Producers make work visible
   first, then (only if someone advertised) bump the epoch and signal.
   With OCaml's sequentially-consistent atomics this cannot lose a
   wakeup: if the producer read [n_parked = 0], the worker's re-check
   is ordered after the push and finds the task; if it read a non-zero
   value, the epoch bump is observed by the worker's wait predicate
   under the park mutex.

   [parallel_for_range]/[parallel_for_reduce_range] use lazy binary
   splitting instead of a shared fetch-and-add cursor: every
   participant owns a contiguous range and only splits off the right
   half (pushed to its own deque, stealable) when somebody is visibly
   hungry — a parked worker exists or the participant's own deque has
   been emptied by thieves. On a saturated machine each participant
   therefore runs its whole range as straight-line loops with no
   shared-counter traffic. *)

type task = unit -> unit

type counters = {
  c_tasks : int Atomic.t;   (* tasks executed by workers or helpers *)
  c_steals : int Atomic.t;  (* successful steals *)
  c_parks : int Atomic.t;   (* times a worker went to sleep *)
  c_splits : int Atomic.t;  (* ranges split by the range operations *)
}

type t = {
  deques : task Chase_lev.t array; (* slot i is owned by worker i *)
  injector : task Queue.t;
  inj_mutex : Mutex.t;
  inj_size : int Atomic.t;
  park_mutex : Mutex.t;
  park_cond : Condition.t;
  epoch : int Atomic.t;
  n_parked : int Atomic.t;
  steal_cursor : int Atomic.t; (* start hint for helper threads *)
  (* Pluggable steal-victim choice (detcheck's strategy hook): given
     the stealing worker's slot and the deque count, returns the sweep
     start. [None] — the production default — compiles to the direct
     per-worker RNG call. *)
  steal_choice : (slot:int -> n:int -> int) option;
  closed : bool Atomic.t;
  mutable domains : unit Domain.t list;
  workers : int;
  counters : counters;
}

(* Which pool (if any) the current domain is a worker of, and its deque
   slot. Lets [submit] from inside a task go to the worker's own deque,
   and lets helping/stealing skip the caller's own empty deque. *)
let worker_ctx : (t * int) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let my_slot t =
  match Domain.DLS.get worker_ctx with
  | Some (p, slot) when p == t -> Some slot
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Waking and parking                                                  *)

let wake t =
  if Atomic.get t.n_parked > 0 then begin
    Atomic.incr t.epoch;
    Mutex.lock t.park_mutex;
    Condition.signal t.park_cond;
    Mutex.unlock t.park_mutex
  end

let wake_all t =
  Atomic.incr t.epoch;
  Mutex.lock t.park_mutex;
  Condition.broadcast t.park_cond;
  Mutex.unlock t.park_mutex

let has_visible_work t =
  Atomic.get t.inj_size > 0
  || Array.exists (fun d -> not (Chase_lev.is_empty d)) t.deques

let park t =
  Atomic.incr t.n_parked;
  let e = Atomic.get t.epoch in
  (* Advertised-parked re-check: any producer that missed our
     increment pushed before it, so we see its task here. *)
  if has_visible_work t || Atomic.get t.closed then Atomic.decr t.n_parked
  else begin
    Atomic.incr t.counters.c_parks;
    Obsv.Probe.instant ~cat:"pool" ~name:"park" ();
    Mutex.lock t.park_mutex;
    while Atomic.get t.epoch = e && not (Atomic.get t.closed) do
      Condition.wait t.park_cond t.park_mutex
    done;
    Mutex.unlock t.park_mutex;
    Atomic.decr t.n_parked
  end

(* ------------------------------------------------------------------ *)
(* Finding work                                                        *)

let pop_injector t =
  if Atomic.get t.inj_size = 0 then None
  else begin
    Mutex.lock t.inj_mutex;
    let task = Queue.take_opt t.injector in
    if task <> None then Atomic.decr t.inj_size;
    Mutex.unlock t.inj_mutex;
    (* If the injector still holds work, pass the baton. *)
    if task <> None && Atomic.get t.inj_size > 0 then wake t;
    task
  end

(* One sweep over all deques starting at [start], skipping [exclude]. *)
let steal_sweep t ~start ~exclude =
  let w = Array.length t.deques in
  let rec go i =
    if i >= w then None
    else
      let v = (start + i) mod w in
      if v = exclude then go (i + 1)
      else
        match Chase_lev.steal t.deques.(v) with
        | Some task ->
            Atomic.incr t.counters.c_steals;
            Obsv.Probe.instant ~cat:"pool" ~name:"steal" ~value:v ();
            if not (Chase_lev.is_empty t.deques.(v)) then wake t;
            Some task
        | None -> go (i + 1)
  in
  if w = 0 then None else go 0

(* Work discovery for a worker: own deque, injector, then steal. *)
let find_work t slot rand =
  match Chase_lev.pop t.deques.(slot) with
  | Some _ as task -> task
  | None -> (
      match pop_injector t with
      | Some _ as task -> task
      | None ->
          let w = Array.length t.deques in
          if w <= 1 then None
          else
            let start =
              match t.steal_choice with
              | None -> Random.State.int rand w
              | Some choose -> choose ~slot ~n:w mod w
            in
            steal_sweep t ~start ~exclude:slot)

(* Work discovery for any thread ([help], waiters). *)
let try_pop t =
  let slot = my_slot t in
  let own =
    match slot with Some s -> Chase_lev.pop t.deques.(s) | None -> None
  in
  match own with
  | Some _ as task -> task
  | None -> (
      match pop_injector t with
      | Some _ as task -> task
      | None ->
          let w = Array.length t.deques in
          if w = 0 then None
          else
            steal_sweep t
              ~start:(Atomic.fetch_and_add t.steal_cursor 1 mod w)
              ~exclude:(match slot with Some s -> s | None -> -1))

let exec_task t task =
  Atomic.incr t.counters.c_tasks;
  let t0 = Obsv.Probe.span_start () in
  match task () with
  | () -> Obsv.Probe.span_end ~cat:"pool" ~name:"task" t0
  | exception e ->
    Obsv.Probe.span_end ~cat:"pool" ~name:"task" t0;
    (* Tasks are expected to contain their own failures (futures capture
       them); anything escaping here would otherwise kill the worker
       domain. *)
    Printf.eprintf "Pool worker: uncaught exception: %s\n%!"
      (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Workers and lifecycle                                               *)

let spawn_worker t slot =
  Domain.spawn (fun () ->
      Domain.DLS.set worker_ctx (Some (t, slot));
      let rand = Random.State.make [| slot; 0x5eed |] in
      let rec loop () =
        match find_work t slot rand with
        | Some task ->
            exec_task t task;
            loop ()
        | None ->
            if Atomic.get t.closed then
              (* Drained: a full sweep found nothing after close.  Any
                 task a racing steal hid from us was taken by the racer
                 and executes there. *)
              ()
            else begin
              park t;
              loop ()
            end
      in
      loop ())

let create ?num_domains ?steal_choice () =
  let workers =
    match num_domains with
    | Some n ->
        if n < 0 then invalid_arg "Pool.create: negative num_domains";
        n
    | None -> max 0 (Domain.recommended_domain_count () - 1)
  in
  let t =
    {
      deques = Array.init workers (fun _ -> Chase_lev.create ~capacity:256 ());
      injector = Queue.create ();
      inj_mutex = Mutex.create ();
      inj_size = Atomic.make 0;
      park_mutex = Mutex.create ();
      park_cond = Condition.create ();
      epoch = Atomic.make 0;
      n_parked = Atomic.make 0;
      steal_cursor = Atomic.make 0;
      steal_choice;
      closed = Atomic.make false;
      domains = [];
      workers;
      counters =
        {
          c_tasks = Atomic.make 0;
          c_steals = Atomic.make 0;
          c_parks = Atomic.make 0;
          c_splits = Atomic.make 0;
        };
    }
  in
  t.domains <- List.init workers (fun slot -> spawn_worker t slot);
  t

let num_workers t = t.workers
let parallelism t = t.workers + 1

type stats = { tasks : int; steals : int; parks : int; splits : int }

let stats t =
  {
    tasks = Atomic.get t.counters.c_tasks;
    steals = Atomic.get t.counters.c_steals;
    parks = Atomic.get t.counters.c_parks;
    splits = Atomic.get t.counters.c_splits;
  }

let push_task t task =
  (match my_slot t with
  | Some slot -> Chase_lev.push t.deques.(slot) task
  | None ->
      Mutex.lock t.inj_mutex;
      Queue.push task t.injector;
      Atomic.incr t.inj_size;
      Mutex.unlock t.inj_mutex);
  wake t

let submit t task =
  if Atomic.get t.closed then invalid_arg "Pool: submit to a shut-down pool";
  push_task t task

let post = submit

let shutdown t =
  let was_closed = Atomic.exchange t.closed true in
  wake_all t;
  if not was_closed then begin
    List.iter Domain.join t.domains;
    t.domains <- []
  end

let help t =
  match try_pop t with
  | Some task ->
      exec_task t task;
      true
  | None -> false

let async t f =
  let fut = Future.create () in
  submit t (fun () -> Future.run fut f);
  fut

(* Wait for [fut] while helping to drain the pool, so that a task that
   itself calls [run] cannot starve the pool. With no workers the task
   can only be executed by this thread (via [help]) or a sibling
   external thread, so after a bounded spin we block on the future
   rather than burning the CPU. *)
let await_helping t fut =
  let rec loop spins =
    match Future.peek fut with
    | Some (Ok v) -> v
    | Some (Error e) -> raise e
    | None ->
        if help t then loop 0
        else if t.workers = 0 && spins < 256 then begin
          Domain.cpu_relax ();
          loop (spins + 1)
        end
        else Future.await fut
  in
  loop 0

let run t f = await_helping t (async t f)

(* ------------------------------------------------------------------ *)
(* Data-parallel ranges with lazy binary splitting                     *)

exception Stop

let default_grain t n =
  (* Aim for ~8 leaves per participant to absorb imbalance, but never
     below 1 index per leaf. *)
  max 1 (n / (parallelism t * 8))

(* Split only when somebody visibly wants work: a parked worker, or (if
   the caller is a worker) thieves have emptied its deque. *)
let work_wanted t =
  Atomic.get t.n_parked > 0
  ||
  match my_slot t with
  | Some slot -> Chase_lev.is_empty t.deques.(slot)
  | None -> false

(* [fn] names the public entry point in the [grain < 1] error. *)
let reduce_range ~fn t ?grain ~lo ~hi ~combine ~init body =
  let n = hi - lo in
  if n <= 0 then init
  else begin
    let grain =
      match grain with
      | Some g ->
          if g < 1 then invalid_arg (fn ^ ": grain < 1");
          g
      | None -> default_grain t n
    in
    if parallelism t <= 1 || n <= grain then combine init (body ~lo ~hi)
    else begin
      let failure = Atomic.make None in
      let pending = Atomic.make 1 in
      let done_fut = Future.create () in
      let result = ref init in
      let res_mutex = Mutex.create () in
      let merge v =
        Mutex.lock res_mutex;
        match combine !result v with
        | r ->
            result := r;
            Mutex.unlock res_mutex
        | exception e ->
            Mutex.unlock res_mutex;
            raise e
      in
      let finished () =
        if Atomic.fetch_and_add pending (-1) = 1 then Future.fill done_fut ()
      in
      let rec run_range rlo rhi =
        (try process rlo rhi with
        | Stop -> ()
        | e ->
            (* Record the first failure; later ones are dropped. *)
            ignore (Atomic.compare_and_set failure None (Some e)));
        finished ()
      and process rlo rhi =
        let lo = ref rlo and hi = ref rhi in
        while !lo < !hi do
          if Atomic.get failure <> None then raise Stop;
          if !hi - !lo > grain && work_wanted t then begin
            let mid = !lo + ((!hi - !lo) / 2) in
            let l = mid and h = !hi in
            Atomic.incr pending;
            Atomic.incr t.counters.c_splits;
            Obsv.Probe.instant ~cat:"pool" ~name:"split" ();
            push_task t (fun () -> run_range l h);
            hi := mid
          end
          else begin
            let stop = min !hi (!lo + grain) in
            merge (body ~lo:!lo ~hi:stop);
            lo := stop
          end
        done
      in
      (* The caller is a participant: it runs the root range and then
         helps until every split-off piece has finished. *)
      run_range lo hi;
      let rec wait spins =
        if not (Future.is_resolved done_fut) then
          if help t then wait 0
          else if spins < 64 then begin
            Domain.cpu_relax ();
            wait (spins + 1)
          end
          else Future.await done_fut
      in
      wait 0;
      match Atomic.get failure with
      | Some e -> raise e
      | None -> !result
    end
  end

let parallel_for_reduce_range t ?grain ~lo ~hi ~combine ~init body =
  reduce_range ~fn:"Pool.parallel_for_reduce_range" t ?grain ~lo ~hi ~combine
    ~init body

let parallel_for_range t ?grain ~lo ~hi body =
  reduce_range ~fn:"Pool.parallel_for_range" t ?grain ~lo ~hi
    ~combine:(fun () () -> ())
    ~init:() body

let default_size = ref None
let default_pool = ref None
let default_mutex = Mutex.create ()

let set_default_num_domains n =
  Mutex.lock default_mutex;
  default_size := Some n;
  Mutex.unlock default_mutex

let default () =
  Mutex.lock default_mutex;
  let pool =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create ?num_domains:!default_size () in
        default_pool := Some p;
        p
  in
  Mutex.unlock default_mutex;
  pool
