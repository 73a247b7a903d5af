(* Shared pieces of the end-to-end benchmark: metric values, the run
   context, failure tallies, sample statistics, /proc readers, the
   in-memory span buffer written as a Chrome trace, and the box shim
   that times every Box.execute of a network. *)

type metric = { name : string; unit : string; value : float }

let metric name unit value = { name; unit; value }

(* CLOCK_MONOTONIC in seconds, to the nanosecond: box calls of the tag
   networks take well under a microsecond. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type ctx = {
  seed : int;
  seconds : float;  (** Length of the measured phase. *)
  traced : bool;  (** The per-layer run (spans, counters, side probes). *)
  smoke : bool;  (** Tiny inputs, oracles only. *)
  out_dir : string;  (** Scratch and output files of this run. *)
  bin_dir : string;  (** Where snet_worker.exe and snet_serve.exe live. *)
}

(* One random stream per workload and purpose, all derived from the
   run seed, so the same seed always gives the same inputs. *)
let rng ctx purpose = Random.State.make [| ctx.seed; Hashtbl.hash purpose |]

(* ------------------------------------------------------------------ *)
(* Failures: every input attempted, every wrong output, exception or
   timeout counted, and the first few named. *)

type tally = {
  mu : Mutex.t;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let tally () = { mu = Mutex.create (); attempted = 0; failed = 0; errors = [] }

let with_lock mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let attempt t n = with_lock t.mu (fun () -> t.attempted <- t.attempted + n)

let fail t ?(n = 1) fmt =
  Printf.ksprintf
    (fun msg ->
      with_lock t.mu (fun () ->
          t.failed <- t.failed + n;
          if List.length t.errors < 8 then t.errors <- msg :: t.errors))
    fmt

(* ------------------------------------------------------------------ *)
(* Samples and order statistics *)

type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 1024 0.; n = 0 }

let add s x =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0. in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let count s = s.n

let sorted s =
  let a = Array.sub s.a 0 s.n in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array; [p] in [0, 100]. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let median_of xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  percentile a 50.

(* p99 of each window of at least [w] consecutive samples, median over
   the windows: a host stall moves the windows it falls in, not the
   run. With fewer than [w] samples, the p99 of all of them. *)
let windowed_p99 s w =
  let k = max 1 (s.n / w) in
  median_of
    (List.init k (fun i ->
         let lo = i * s.n / k and hi = (i + 1) * s.n / k in
         let a = Array.sub s.a lo (hi - lo) in
         Array.sort Float.compare a;
         percentile a 99.))

(* Time [f] over enough repetitions to fill [budget] seconds; the
   cost of one call in seconds. *)
let time_per_call ?(budget = 0.05) f =
  let reps = ref 0 and t0 = now () in
  while now () -. t0 < budget || !reps = 0 do
    f ();
    incr reps
  done;
  (now () -. t0) /. float_of_int !reps

(* ------------------------------------------------------------------ *)
(* /proc readers: resident-set high-water marks and CPU time of the
   processes under test. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A "Key:   123 kB" line of /proc/<pid>/status, in kB. *)
let status_kb pid key =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> None
  | s ->
      String.split_on_char '\n' s
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.sub line 0 i = key ->
                 Scanf.sscanf
                   (String.sub line (i + 1) (String.length line - i - 1))
                   " %d" Option.some
             | _ -> None)

let peak_rss_mb pid =
  match status_kb pid "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.
  | None -> Float.nan

(* Kernel clock ticks per second; 100 on every Linux this runs on. *)
let clk_tck = 100.

(* utime + stime of a live process, from /proc/<pid>/stat. *)
let proc_cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> None
  | s -> (
      (* The command name may hold spaces; fields resume after ')'. *)
      let rest =
        let i = String.rindex s ')' in
        String.sub s (i + 2) (String.length s - i - 2)
      in
      match String.split_on_char ' ' rest with
      | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: ut :: st :: _ ->
          Some ((float_of_string ut +. float_of_string st) /. clk_tck)
      | _ -> None)

(* CPU of this process plus every child it has reaped. *)
let cpu_self_and_reaped () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

(* Direct children forked by the main thread of this process. *)
let children () =
  let pid = Unix.getpid () in
  match read_file (Printf.sprintf "/proc/%d/task/%d/children" pid pid) with
  | exception Sys_error _ -> []
  | s ->
      String.split_on_char ' ' (String.trim s)
      |> List.filter_map int_of_string_opt

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove p with Sys_error _ -> ())

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------------------------------------------ *)
(* Host speed. The benchmark runs on shared hosts whose speed drifts by
   a quarter and more over seconds and minutes, and every time metric,
   CPU time included, moves with it. So the benchmark times a probe of
   fixed work next to what it measures and reports times scaled to a
   host where one probe tick takes [ref_s]. The unscaled values are
   printed too, as [raw.*] extras.

   The probe is the benchmark's own code and calls only the standard
   library, nothing of the program. A tick does the kinds of work the
   program's coordination does: it builds an integer map node by node
   (allocation, pointer chasing, comparison closures), then formats,
   parses, hashes, splits and sorts a few dozen short strings. All of it
   dies within the tick.

   Two ways to use it. The fig2 and fig3 closed loops run a tick
   between every two inputs and scale each input by the ticks next to
   it. Set-ups, and items that span other processes (dist runs, serve
   segments), run between bursts of ticks and are scaled by the bursts
   on either side. README.md gives the measurements behind both. *)

module Speed = struct
  (* A round figure near a tick's time on the two-vCPU development VM
     when it ran fast. Fixed: it sets the scale, and values stay
     comparable across runs and commits only while it and the tick's
     work are unchanged. *)
  let ref_s = 2.5e-4

  module IM = Map.Make (Int)
  module SS = Set.Make (String)

  (* 1,500 insertions into a map of up to 1,300 integer keys. *)
  let map_work () =
    let m = ref IM.empty in
    for i = 1 to 1500 do
      m := IM.add ((i * 7919) land 4095) i !m
    done;
    ignore (Sys.opaque_identity !m)

  (* Forty keys formatted, parsed back, hashed into a table and a
     buffer; the buffer split, its pieces put in a set; the table
     sorted and joined. *)
  let string_work () =
    let h = Hashtbl.create 64 and b = Buffer.create 256 and acc = ref 0 in
    for i = 0 to 39 do
      let k = Printf.sprintf "k%d-%d" ((i * 7919) land 255) i in
      Hashtbl.replace h k i;
      Buffer.add_string b k;
      acc := !acc + Scanf.sscanf k "k%d-%s" (fun a s -> a + String.length s)
    done;
    let set =
      List.fold_left (fun s w -> SS.add w s) SS.empty
        (String.split_on_char '-' (Buffer.contents b))
    in
    let sorted = List.sort compare (Hashtbl.fold (fun k v a -> (v, k) :: a) h []) in
    acc :=
      !acc + SS.cardinal set
      + String.length (String.concat "," (List.map snd sorted));
    ignore (Sys.opaque_identity !acc)

  (* One tick, about 0.25 ms: short enough to run between every two
     inputs of a closed loop. Its seconds. *)
  let tick () =
    let t0 = now () in
    map_work ();
    string_work ();
    now () -. t0

  (* Sixteen ticks, about 4 ms. *)
  let burst () = List.init 16 (fun _ -> tick ())

  (* [ticks] holds [n + 1] ticks with item [i] between ticks [i] and
     [i + 1]: each item's factor, [ref_s / m] with [m] the median of the
     four ticks nearest it (the two on either side of it and one more
     each way). A host changes speed within a second, and the ticks next
     to an item see the speed it ran at. *)
  let local_factors ticks n =
    Array.init n (fun i ->
        let lo = max 0 (i - 1) and hi = min n (i + 2) in
        let a = Array.sub ticks lo (hi - lo + 1) in
        Array.sort Float.compare a;
        let k = Array.length a in
        let m = if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2. in
        ref_s /. m)

  (* A run of measured items with a burst before the first and after
     each. [measure m f] runs [f ()] and returns its result with the
     factor that scales its times to reference speed, from the bursts
     on either side of it (below 1 on a slow host). *)
  type meter = { mutable last : float list; mutable probes : float list }

  let meter () =
    ignore (burst ());
    let b = burst () in
    { last = b; probes = b }

  let measure m f =
    let r = f () in
    let after = burst () in
    let factor = ref_s /. median_of (m.last @ after) in
    m.last <- after;
    m.probes <- after @ m.probes;
    (r, factor)

  (* The median tick over the run, for the printed extras. *)
  let probe_ms m = metric "host.probe_ms" "ms" (median_of m.probes *. 1e3)
end

(* A time metric at reference speed, with its unscaled value as the
   [raw.*] extra. *)
let scaled name unit ~value ~raw = (metric name unit value, metric ("raw." ^ name) unit raw)

(* [reps] set-ups back to back, between two probe bursts. [setup i]
   gives the [i]th set-up's result and seconds; each result but the
   last is passed to [discard] before the next set-up starts. Returns
   the last result, and each set-up's seconds with the bursts' factor.
   fig2's and fig3's set-ups take microseconds, and a tick between
   every two left each on caches the tick had just refilled: ten runs
   spread 21% and 43% at reference speed. *)
let setup_batch ~reps ~discard setup =
  let (last, dts), f =
    Speed.measure (Speed.meter ()) (fun () ->
        let last = ref None and dts = ref [] in
        for i = 0 to reps - 1 do
          Option.iter discard !last;
          let r, dt = setup i in
          last := Some r;
          dts := dt :: !dts
        done;
        (Option.get !last, !dts))
  in
  (last, List.map (fun dt -> (dt, f)) dts)

(* [setup_s] from set-up seconds and factors: the median set-up time,
   at reference speed and raw. *)
let setup_metric samples =
  scaled "setup_s" "s"
    ~value:(median_of (List.map (fun (dt, f) -> dt *. f) samples))
    ~raw:(median_of (List.map fst samples))

(* A closed loop: [input ()] returns one input's latency in seconds,
   run for [seconds] of measured time with a probe tick before the
   first input and after each. [each_second ()] runs between inputs
   once a second, outside every input's latency and CPU time. Per
   input: latency, CPU seconds and factor. *)
type loop = { lat : float array; cpu : float array; f : float array; ticks : float array }

let closed_loop ~seconds ?(each_second = fun () -> ()) input =
  let t0 = now () in
  let ticks = samples () and items = ref [] and due = ref t0 in
  add ticks (Speed.tick ());
  while now () -. t0 < seconds do
    if now () >= !due then begin
      each_second ();
      due := !due +. 1.
    end;
    let c0 = cpu_self_and_reaped () in
    let lat = input () in
    items := (lat, cpu_self_and_reaped () -. c0) :: !items;
    add ticks (Speed.tick ())
  done;
  let items = Array.of_list (List.rev !items) in
  let ticks = Array.sub ticks.a 0 ticks.n in
  {
    lat = Array.map fst items;
    cpu = Array.map snd items;
    f = Speed.local_factors ticks (Array.length items);
    ticks;
  }

(* Throughput, p50, p90 and CPU per input of a closed loop, each input
   at reference speed by its own factor, and raw; the scaled latencies
   in order, for a windowed p99; the median tick, as [host.probe_ms].
   One input is in flight, so throughput is inputs over the sum of
   their latencies: the probe ticks between them are not counted. *)
let loop_metrics l =
  let n = Array.length l.lat in
  let fn = float_of_int n in
  let sum = Array.fold_left ( +. ) 0. in
  let by_f a = Array.mapi (fun i x -> x *. l.f.(i)) a in
  let lat = by_f l.lat in
  let sorted_of a =
    let a = Array.copy a in
    Array.sort Float.compare a;
    a
  in
  let sl = sorted_of lat and sr = sorted_of l.lat in
  let ms a p = percentile a p *. 1e3 in
  ( [
      scaled "throughput_per_s" "inputs/s" ~value:(fn /. sum lat) ~raw:(fn /. sum l.lat);
      scaled "latency_p50_ms" "ms" ~value:(ms sl 50.) ~raw:(ms sr 50.);
      scaled "latency_p90_ms" "ms" ~value:(ms sl 90.) ~raw:(ms sr 90.);
      scaled "cpu_ms_per_input" "ms"
        ~value:(sum (by_f l.cpu) /. fn *. 1e3)
        ~raw:(sum l.cpu /. fn *. 1e3);
    ],
    { a = lat; n },
    metric "host.probe_ms" "ms" (median_of (Array.to_list l.ticks) *. 1e3) )

(* ------------------------------------------------------------------ *)
(* Spans: kept in memory, written as a Chrome trace when the run ends.
   The buffer is capped so a long traced run cannot grow without
   bound; counts and sums a metric needs are kept by the caller. *)

module Spans = struct
  type span = { cat : string; sname : string; tid : int; t0 : float; t1 : float }
  type t = { smu : Mutex.t; mutable items : span list; mutable kept : int }

  let cap = 50_000
  let create () = { smu = Mutex.create (); items = []; kept = 0 }

  let add t ~cat ~name ~tid t0 t1 =
    with_lock t.smu (fun () ->
        if t.kept < cap then begin
          t.items <- { cat; sname = name; tid; t0; t1 } :: t.items;
          t.kept <- t.kept + 1
        end)

  (* Render through Obsv.Export and check the result with its own
     reader before writing. *)
  let write_chrome t ~path =
    let spans = List.rev t.items in
    let base = List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans in
    let tids = List.sort_uniq compare (List.map (fun s -> s.tid) spans) in
    let items =
      List.map
        (fun tid ->
          Obsv.Export.Meta
            { pid = 1; tid; thread_name = Printf.sprintf "bench/%d" tid })
        tids
      @ List.map
          (fun s ->
            Obsv.Export.Complete
              {
                ts = (s.t0 -. base) *. 1e6;
                dur = Float.max 0. ((s.t1 -. s.t0) *. 1e6);
                pid = 1;
                tid = s.tid;
                cat = s.cat;
                name = s.sname;
              })
          spans
    in
    let doc = Obsv.Export.render items in
    match Obsv.Export.validate doc with
    | Error e -> Error e
    | Ok () -> Ok (Out_channel.with_open_bin path (fun oc -> output_string oc doc))
end

(* The traced run's Chrome trace: OUT/trace-WORKLOAD-seedN.json. *)
let write_trace ctx tally spans workload =
  let path =
    Filename.concat ctx.out_dir (Printf.sprintf "trace-%s-seed%d.json" workload ctx.seed)
  in
  match Spans.write_chrome spans ~path with
  | Ok () -> ()
  | Error e -> fail tally "trace: %s" e

(* ------------------------------------------------------------------ *)
(* Box shim: rebuild every box of a network so each Box.execute is
   timed. The shim box has the original's name, signature and
   supervision; it rebuilds the projected record, runs the original
   box on it, and re-emits each output under its variant. Only the
   Box.execute call lies inside the span. *)

module Shim = struct
  type t = {
    spans : Spans.t;
    mu : Mutex.t;
    mutable calls : int;
    mutable self_s : float;
    durs : samples;
  }

  let create spans =
    { spans; mu = Mutex.create (); calls = 0; self_s = 0.; durs = samples () }

  let key labels =
    List.sort compare
      (List.map (function Snet.Box.F f -> "F" ^ f | Snet.Box.T g -> "T" ^ g) labels)

  let wrap t b =
    let open Snet in
    let name = Box.name b in
    let input = Box.input_labels b and outputs = Box.output_variants b in
    let variants = List.mapi (fun i ls -> (i + 1, key ls, ls)) outputs in
    let sup = Box.supervision b in
    let impl ~emit args =
      let r =
        List.fold_left2
          (fun r l a ->
            match (l, a) with
            | Box.F f, Box.Field v -> Record.with_field f v r
            | Box.T g, Box.Tag n -> Record.with_tag g n r
            | _ -> invalid_arg ("box shim: argument kind mismatch in " ^ name))
          Record.empty input args
      in
      let t0 = now () in
      let outs = Box.execute b r in
      let t1 = now () in
      with_lock t.mu (fun () ->
          t.calls <- t.calls + 1;
          t.self_s <- t.self_s +. (t1 -. t0);
          add t.durs (t1 -. t0));
      (* One track per domain, clear of the workloads' own tracks. *)
      Spans.add t.spans ~cat:"box" ~name ~tid:(100 + (Domain.self () :> int)) t0 t1;
      List.iter
        (fun o ->
          let k =
            key
              (List.map (fun f -> Box.F f) (Record.field_labels o)
              @ List.map (fun g -> Box.T g) (Record.tag_labels o))
          in
          match List.find_opt (fun (_, k', _) -> k' = k) variants with
          | Some (v, _, ls) ->
              emit v
                (List.map
                   (function
                     | Box.F f -> Box.Field (Record.field_exn f o)
                     | Box.T g -> Box.Tag (Record.tag_exn g o))
                   ls)
          | None -> invalid_arg ("box shim: output matches no variant of " ^ name))
        outs
    in
    Box.make ~name ~policy:sup.Supervise.policy ?timeout:sup.Supervise.timeout
      ~input ~outputs impl

  let net t net = Snet.Net.map_boxes (wrap t) net
end

(* Observer that counts component entries (hops), from any domain. *)
let hop_counter () =
  let hops = Atomic.make 0 in
  ((fun ~edge:_ _ -> Atomic.incr hops), hops)

(* ------------------------------------------------------------------ *)
(* Per-layer metrics shared by every workload. [per_input_s] is the
   untraced end-to-end time per input, [seq_per_input_s] the same
   inputs through Engine_seq, [shim_inputs] / [inputs] the inputs the
   shim and the counters cover. *)

let box_and_coord_metrics ~(shim : Shim.t) ~shim_inputs ~per_input_s
    ~seq_per_input_s =
  let n = float_of_int (max 1 shim_inputs) in
  let box_per_input = shim.Shim.self_s /. n in
  let durs = sorted shim.Shim.durs in
  [
    metric "box.calls_per_input" "count" (float_of_int shim.Shim.calls /. n);
    metric "box.us_per_call_p50" "us" (percentile durs 50. *. 1e6);
    metric "box.share" "ratio" (box_per_input /. per_input_s);
    metric "coord.us_per_input" "us" ((per_input_s -. box_per_input) *. 1e6);
    metric "coord.over_seq" "ratio" (per_input_s /. seq_per_input_s);
  ]

let engine_metrics ~(stats : Snet.Stats.snapshot) ~hops ~inputs =
  let n = float_of_int (max 1 inputs) in
  let per x = float_of_int x /. n in
  [
    metric "core.hops_per_input" "count" (per hops);
    metric "core.instances_per_input" "count" (per stats.Snet.Stats.instances);
    metric "core.filter_calls_per_input" "count"
      (per stats.Snet.Stats.filter_invocations);
    metric "scheduler.tasks_per_input" "count" (per stats.Snet.Stats.sched_tasks);
    metric "scheduler.parks_per_input" "count" (per stats.Snet.Stats.sched_parks);
    metric "scheduler.steals_per_input" "count"
      (per stats.Snet.Stats.sched_steals);
  ]

(* Wire codec cost on a sample of the workload's records: render and
   read each one, check the round trip keeps every label. *)
let wire_metrics tally records =
  let records = Array.of_list records in
  let n = Array.length records in
  if n = 0 then begin
    fail tally "wire: no records sampled";
    []
  end
  else begin
    let ctx = Dist.Wire.ctx () in
    let frames = Array.map (Dist.Wire.render ~ctx) records in
    Array.iteri
      (fun i f ->
        match Dist.Wire.read ~ctx f with
        | Ok r when Snet.Record.compare_structure r records.(i) = 0 -> ()
        | Ok _ -> fail tally "wire: round trip changed record %d" i
        | Error e -> fail tally "wire: read failed: %s" e)
      frames;
    let enc =
      time_per_call (fun () ->
          Array.iter (fun r -> ignore (Dist.Wire.render ~ctx r)) records)
    in
    let dec =
      time_per_call (fun () ->
          Array.iter (fun f -> ignore (Dist.Wire.read ~ctx f)) frames)
    in
    let bytes = Array.fold_left (fun acc f -> acc + String.length f) 0 frames in
    let fn = float_of_int n in
    [
      metric "wire.encode_ns" "ns" (enc /. fn *. 1e9);
      metric "wire.decode_ns" "ns" (dec /. fn *. 1e9);
      metric "wire.bytes_per_record" "bytes" (float_of_int bytes /. fn);
    ]
  end
