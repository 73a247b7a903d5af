(* dist-stream: tag-only records through Networks.shard on
   Engine_dist.run_spawned with two real snet_worker processes over
   TCP, in runs of 20,000 records repeated for the measured time. Every
   record crosses three cut edges (dist:w0.in, dist:w1.in, dist:out)
   and the boxes do almost nothing, so wire, transport, credit flow and
   the worker flush path dominate. Each run spawns its workers afresh:
   its spawn and handshake are set-up, the rest is the run. *)

open Harness

(* The workers' pools have no worker domain: the boxes are trivial, and
   the coordinator and two workers with a domain each oversubscribed
   two vCPUs, which made the run-to-run spread two to three times
   wider. *)
let worker_domains = 0

(* Stream length is a property of the workload: the short runs only
   feed the length-scaling probe of the traced run. *)
let run_len ctx = if ctx.smoke then 2_000 else 20_000
let short_len ctx = run_len ctx / 10
let z_of x = (((3 * x) + 1) * 10) + (x mod 8)

let inputs xs =
  Array.to_list
    (Array.mapi
       (fun i x -> Snet.Record.of_list ~fields:[] ~tags:[ ("x", x); ("bid", i) ])
       xs)

(* Inputs that did not yield exactly one correct z. *)
let wrong_outputs xs outs =
  let n = Array.length xs in
  let seen = Array.make n 0 and stray = ref 0 in
  List.iter
    (fun r ->
      match (Snet.Record.tag "bid" r, Snet.Record.tag "z" r) with
      | Some b, Some z when b >= 0 && b < n && z = z_of xs.(b) ->
          seen.(b) <- seen.(b) + 1
      | _ -> incr stray)
    outs;
  (Array.fold_left (fun acc c -> if c = 1 then acc else acc + 1) 0 seen, !stray)

type rep = {
  len : int;
  setup_s : float;
  run_s : float;
  cpu_s : float;  (** Coordinator and both workers, spawn included. *)
  t_in : float array;  (** Per record: entered the dist:w0.in edge. *)
  t_mid : float array;  (** Entered dist:w1.in (traced reps only). *)
  t_out : float array;  (** Reached dist:out. *)
}

let run ctx tally =
  let worker_exe = Filename.concat ctx.bin_dir "snet_worker.exe" in
  let spec = Sudoku.Netspec.spec "shard" in
  let net = Sudoku.Networks.shard () in
  let st = rng ctx "dist-stream" in
  let gen len = Array.init len (fun _ -> Random.State.int st (1 lsl 20)) in
  let spans = Spans.create () in
  let captured = ref [] and n_captured = ref 0 in
  (* Workers hold the engine state: track their resident high-water
     mark while they live. *)
  let rss_peak_kb = ref 0 and sampling = Atomic.make true in
  let sampler =
    Thread.create
      (fun () ->
        while Atomic.get sampling do
          List.iter
            (fun p ->
              match status_kb p "VmHWM" with
              | Some k when k > !rss_peak_kb -> rss_peak_kb := k
              | _ -> ())
            (children ());
          Thread.delay 0.02
        done)
      ()
  in
  let one_rep ?stats ~traced len =
    let xs = gen len in
    let t_in = Array.make len Float.nan
    and t_mid = Array.make len Float.nan
    and t_out = Array.make len Float.nan in
    let stamp arr r =
      match Snet.Record.tag "bid" r with
      | Some b when b >= 0 && b < len -> arr.(b) <- now ()
      | _ -> ()
    in
    let tap ~edge r =
      if edge = "dist:w0.in" then begin
        stamp t_in r;
        if traced && !n_captured < 2_000 then begin
          captured := r :: !captured;
          incr n_captured
        end
      end
      else if edge = "dist:out" then stamp t_out r
      else if traced && edge = "dist:w1.in" then stamp t_mid r
    in
    let cpu0 = cpu_self_and_reaped () in
    let t_call = now () in
    let t_ready = ref Float.nan in
    let outs =
      match
        Dist.Engine_dist.run_spawned ~worker_exe ~spec ~workers:2
          ~worker_args:[ "--domains"; string_of_int worker_domains ]
          ?stats ~tap
          ~on_handle:(fun _ -> t_ready := now ())
          net (inputs xs)
      with
      | outs -> Some outs
      | exception e ->
          fail tally ~n:len "dist-stream: run raised %s" (Printexc.to_string e);
          None
    in
    let t_end = now () in
    (* The workers are reaped by now: their CPU is in the children's. *)
    let cpu_s = cpu_self_and_reaped () -. cpu0 in
    attempt tally len;
    match outs with
    | None -> None
    | Some outs ->
        let wrong, stray = wrong_outputs xs outs in
        if wrong > 0 || stray > 0 then
          fail tally ~n:(max 1 wrong)
            "dist-stream: %d inputs without exactly one correct z, %d stray \
             outputs"
            wrong stray;
        if traced then begin
          Spans.add spans ~cat:"dist" ~name:"setup" ~tid:0 t_call !t_ready;
          Spans.add spans ~cat:"dist" ~name:"run" ~tid:0 !t_ready t_end;
          let edge name tid a b =
            Array.iteri
              (fun i t ->
                if not (Float.is_nan t || Float.is_nan b.(i)) then
                  Spans.add spans ~cat:"edge" ~name ~tid t b.(i))
              a
          in
          edge "w0" 1 t_in t_mid;
          edge "w1" 2 t_mid t_out
        end;
        Some
          {
            len;
            setup_s = !t_ready -. t_call;
            run_s = t_end -. !t_ready;
            cpu_s;
            t_in;
            t_mid;
            t_out;
          }
  in
  (* Repeat runs until [seconds] have passed; failed runs are already
     counted and leave no sample. *)
  let repeat seconds f =
    let t0 = now () in
    let rec go acc =
      let acc = f acc in
      if now () -. t0 < seconds then go acc else acc
    in
    go []
  in
  let reps_for seconds len =
    repeat seconds (fun acc ->
        match one_rep ~traced:false len with Some r -> r :: acc | None -> acc)
  in
  let records reps = List.fold_left (fun a r -> a + r.len) 0 reps in
  let run_s reps = List.fold_left (fun a r -> a +. r.run_s) 0. reps in
  let residence reps from_ to_ =
    let s = samples () in
    List.iter
      (fun r ->
        let a = from_ r and b = to_ r in
        Array.iteri (fun i t -> if not (Float.is_nan t || Float.is_nan b.(i)) then add s (b.(i) -. t)) a)
      reps;
    sorted s
  in
  let finish () =
    Atomic.set sampling false;
    Thread.join sampler
  in
  Fun.protect ~finally:finish (fun () ->
      (* Warm-up: one run, outputs checked, not measured. *)
      ignore (one_rep ~traced:false (run_len ctx));
      if not ctx.traced then begin
        (* Every metric is taken per run, between probe bursts, and the
           median over the runs reported: one run hit by a host stall
           moves nothing. *)
        let meter = Speed.meter () in
        let reps =
          repeat ctx.seconds (fun acc ->
              match Speed.measure meter (fun () -> one_rep ~traced:false (run_len ctx)) with
              | Some r, f -> (r, f) :: acc
              | None, _ -> acc)
        in
        (* [g r f]: run [r]'s value with its times scaled by [f]. *)
        let per_run name unit g =
          scaled name unit
            ~value:(median_of (List.map (fun (r, f) -> g r f) reps))
            ~raw:(median_of (List.map (fun (r, _) -> g r 1.) reps))
        in
        let lat p r f =
          percentile (residence [ r ] (fun r -> r.t_in) (fun r -> r.t_out)) p *. f *. 1e3
        in
        let times =
          [
            per_run "throughput_per_s" "inputs/s" (fun r f -> float_of_int r.len /. (r.run_s *. f));
            per_run "latency_p50_ms" "ms" (lat 50.);
            per_run "latency_p90_ms" "ms" (lat 90.);
            per_run "cpu_ms_per_input" "ms" (fun r f -> r.cpu_s *. f /. float_of_int r.len *. 1e3);
          ]
        and setup = per_run "setup_s" "s" (fun r f -> r.setup_s *. f) in
        ( List.map fst times
          @ [ metric "peak_rss_mb" "MB" (float_of_int !rss_peak_kb /. 1024.); fst setup ],
          [],
          (fst (per_run "latency_p99_ms" "ms" (lat 99.)) :: List.map snd (times @ [ setup ]))
          @ [ Speed.probe_ms meter ] )
      end
      else begin
        (* Untraced and traced runs alternate; the traced ones tap
           every cut edge and count credit stalls. *)
        let stats = Snet.Stats.create () in
        let plain = ref [] in
        let traced =
          repeat ctx.seconds (fun acc ->
              Option.iter (fun r -> plain := r :: !plain) (one_rep ~traced:false (run_len ctx));
              match one_rep ~stats ~traced:true (run_len ctx) with
              | Some r -> r :: acc
              | None -> acc)
        in
        let plain = !plain in
        let short = reps_for (if ctx.smoke then 0.1 else 1.0) (short_len ctx) in
        let ns_per_record reps =
          median_of (List.map (fun r -> r.run_s /. float_of_int r.len *. 1e9) reps)
        in
        let per_input_s = run_s plain /. float_of_int (records plain) in
        (* The same records through the same net in this process: box
           and engine counters of the layers the workers run. *)
        let xs = gen (run_len ctx) in
        let pool = Scheduler.Pool.create ~num_domains:worker_domains () in
        let shim = Shim.create spans in
        let observer, hops = hop_counter () in
        let replay_stats = Snet.Stats.create () in
        let outs =
          Snet.Engine_conc.run ~pool ~observer ~stats:replay_stats (Shim.net shim net)
            (inputs xs)
        in
        Scheduler.Pool.shutdown pool;
        let t_seq = now () in
        let seq_outs = Snet.Engine_seq.run net (inputs xs) in
        let seq_per_input_s = (now () -. t_seq) /. float_of_int (Array.length xs) in
        List.iter
          (fun outs ->
            attempt tally (Array.length xs);
            match wrong_outputs xs outs with
            | 0, 0 -> ()
            | wrong, stray ->
                fail tally ~n:(max 1 wrong) "dist-stream replay: %d wrong, %d stray" wrong stray)
          [ outs; seq_outs ];
        let n_traced = records traced in
        let snap = Snet.Stats.snapshot stats in
        let w0 = residence traced (fun r -> r.t_in) (fun r -> r.t_mid) in
        let w1 = residence traced (fun r -> r.t_mid) (fun r -> r.t_out) in
        write_trace ctx tally spans "dist-stream";
        ( [],
          box_and_coord_metrics ~shim ~shim_inputs:(Array.length xs) ~per_input_s
            ~seq_per_input_s
          @ engine_metrics ~stats:(Snet.Stats.snapshot replay_stats)
              ~hops:(Atomic.get hops) ~inputs:(Array.length xs)
          @ [
              metric "flow.stalls_per_input" "count"
                (float_of_int snap.Snet.Stats.backpressure_stalls /. float_of_int n_traced);
            ]
          @ wire_metrics tally !captured
          @ [
              metric "trace.overhead_ratio" "ratio"
                (run_s traced /. float_of_int n_traced /. per_input_s);
            ],
          [
            metric "dist.edge_us_p50.w0" "us" (percentile w0 50. *. 1e6);
            metric "dist.edge_us_p99.w0" "us" (percentile w0 99. *. 1e6);
            metric "dist.edge_us_p50.w1" "us" (percentile w1 50. *. 1e6);
            metric "dist.edge_us_p99.w1" "us" (percentile w1 99. *. 1e6);
            metric "dist.ns_per_record.round2k" "ns" (ns_per_record short);
            metric "dist.ns_per_record.round20k" "ns" (ns_per_record plain);
          ] )
      end)
