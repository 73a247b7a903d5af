(* Lock-free per-domain ring buffers of timed events. See sink.mli. *)

type kind = Begin | End | Instant | Counter | Flow_start | Flow_end

type event = {
  seq : int;
  ts : float;
  track : int;
  kind : kind;
  cat : string;
  name : string;
  value : int;
}

let dummy =
  { seq = -1; ts = 0.; track = 0; kind = Instant; cat = ""; name = ""; value = 0 }

(* --- gate ------------------------------------------------------------ *)

let events_bit = 1
let metrics_bit = 2
let flags = Atomic.make 0

let set_flag bit on =
  let rec go () =
    let v = Atomic.get flags in
    let v' = if on then v lor bit else v land lnot bit in
    if not (Atomic.compare_and_set flags v v') then go ()
  in
  go ()

let flag bit = Atomic.get flags land bit <> 0
let events_on () = flag events_bit
let active () = Atomic.get flags <> 0

(* --- clock ----------------------------------------------------------- *)

let clock : (unit -> float) ref = ref Unix.gettimeofday
let set_clock f = clock := f
let now () = !clock ()

(* --- rings ----------------------------------------------------------- *)

(* One ring per domain, found through DLS so recording needs no lock.
   [head] counts events ever written; the slot is [head mod capacity],
   so a full ring overwrites its oldest entries (drop-oldest) and the
   overflow is [head - capacity]. Threads sharing a domain (e.g. the
   dist coordinator's reader threads) get unique slots from the atomic
   fetch-and-add on [head]. *)
type ring = { slots : event array; head : int Atomic.t; gen : int }

let default_capacity = 65536
let capacity = Atomic.make default_capacity
let generation = Atomic.make 0
let registry : ring list ref = ref []
let registry_mutex = Mutex.create ()
let seq = Atomic.make 0

let new_ring () =
  let r =
    { slots = Array.make (Atomic.get capacity) dummy;
      head = Atomic.make 0;
      gen = Atomic.get generation }
  in
  Mutex.protect registry_mutex (fun () -> registry := r :: !registry);
  r

let ring_key = Domain.DLS.new_key new_ring

(* [clear] bumps the generation and empties the registry, but each
   domain still holds its old ring in DLS; the next emit there notices
   the stale generation (or capacity change) and registers a fresh
   ring, lazily completing the reset. *)
let my_ring () =
  let r = Domain.DLS.get ring_key in
  if
    r.gen = Atomic.get generation
    && Array.length r.slots = Atomic.get capacity
  then r
  else begin
    let r' = new_ring () in
    Domain.DLS.set ring_key r';
    r'
  end

let track_id () =
  ((Domain.self () :> int) lsl 16) lor (Thread.id (Thread.self ()) land 0xFFFF)

let emit ~kind ~cat ~name ~value ~ts =
  let r = my_ring () in
  let s = Atomic.fetch_and_add seq 1 in
  let slot = Atomic.fetch_and_add r.head 1 mod Array.length r.slots in
  r.slots.(slot) <- { seq = s; ts; track = track_id (); kind; cat; name; value }

let emit_now ~kind ~cat ~name ~value = emit ~kind ~cat ~name ~value ~ts:(now ())

(* --- lifecycle and reading ------------------------------------------ *)

let clear () =
  Atomic.incr generation;
  Mutex.protect registry_mutex (fun () -> registry := []);
  Atomic.set seq 0

let enable ?capacity:(c = default_capacity) () =
  Atomic.set capacity (max 1 c);
  clear ();
  set_flag events_bit true

let disable () = set_flag events_bit false

let rings () = Mutex.protect registry_mutex (fun () -> !registry)

let events () =
  let collect r =
    let head = Atomic.get r.head in
    let cap = Array.length r.slots in
    let n = min head cap in
    List.init n (fun i -> r.slots.((head - n + i) mod cap))
  in
  rings ()
  |> List.concat_map collect
  |> List.filter (fun e -> e.seq >= 0)
  |> List.sort (fun a b -> compare a.seq b.seq)

let dropped () =
  rings ()
  |> List.fold_left
       (fun acc r -> acc + max 0 (Atomic.get r.head - Array.length r.slots))
       0
