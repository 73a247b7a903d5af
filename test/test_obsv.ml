(* The observability layer: event sink ring buffers, probe semantics,
   derived metrics, Chrome-trace export round-trips, and the
   interaction with virtual time under detcheck. Also the relaxed
   Stats snapshot semantics documented in stats.mli. *)

module Sink = Obsv.Sink
module Probe = Obsv.Probe
module Metrics = Obsv.Metrics
module Export = Obsv.Export

(* The sink and metrics are process-global; every test switches them
   off and drains them on the way out so suites stay independent. *)
let with_sink ?capacity f =
  Sink.enable ?capacity ();
  Fun.protect
    ~finally:(fun () ->
      Sink.disable ();
      Sink.clear ())
    f

let with_metrics f =
  Metrics.enable ();
  Fun.protect ~finally:(fun () -> Metrics.disable ()) f

(* --- sink basics -------------------------------------------------- *)

let test_sink_basics () =
  let evs =
    with_sink (fun () ->
        let t0 = Probe.span_start () in
        Probe.span_end ~cat:"box" ~name:"solve" t0;
        Probe.instant ~cat:"pool" ~name:"steal" ~value:3 ();
        Probe.counter ~cat:"star" ~name:"depth" ~value:7;
        Probe.edge_send ~name:"/e" ~depth:2;
        Probe.edge_stall ~name:"/e";
        Sink.events ())
  in
  Alcotest.(check int) "five probes, six events" 6 (List.length evs);
  let kinds = List.map (fun e -> e.Sink.kind) evs in
  Alcotest.(check bool)
    "kind sequence" true
    (kinds
    = [ Sink.Begin; Sink.End; Sink.Instant; Sink.Counter; Sink.Counter;
        Sink.Instant ]);
  let seqs = List.map (fun e -> e.Sink.seq) evs in
  Alcotest.(check bool)
    "seq strictly increasing" true
    (List.for_all2 ( < ) (List.filteri (fun i _ -> i < 5) seqs) (List.tl seqs));
  (match evs with
  | b :: e :: _ ->
      Alcotest.(check string) "span cat" "box" b.Sink.cat;
      Alcotest.(check string) "span name" "solve" b.Sink.name;
      Alcotest.(check bool) "end not before begin" true (e.Sink.ts >= b.Sink.ts);
      Alcotest.(check int) "same track" b.Sink.track e.Sink.track
  | _ -> Alcotest.fail "missing span events");
  let stall = List.nth evs 5 in
  Alcotest.(check string) "stall name suffix" "/e!stall" stall.Sink.name;
  Alcotest.(check int) "nothing dropped" 0 (Sink.dropped ())

let test_ring_drop_oldest () =
  let evs, dropped =
    with_sink ~capacity:8 (fun () ->
        for i = 0 to 19 do
          Probe.instant ~cat:"t" ~name:(Printf.sprintf "i%d" i) ()
        done;
        (Sink.events (), Sink.dropped ()))
  in
  Alcotest.(check int) "ring keeps capacity" 8 (List.length evs);
  Alcotest.(check int) "drop count" 12 dropped;
  Alcotest.(check (list string))
    "newest events survive"
    (List.init 8 (fun i -> Printf.sprintf "i%d" (12 + i)))
    (List.map (fun e -> e.Sink.name) evs)

let test_disabled_probes () =
  Sink.disable ();
  Metrics.disable ();
  Sink.clear ();
  Alcotest.(check bool)
    "span_start is the disabled sentinel" true
    (Probe.span_start () = Probe.disabled);
  Probe.span_end ~cat:"box" ~name:"x" (Probe.span_start ());
  Probe.instant ~cat:"pool" ~name:"park" ();
  Probe.edge_send ~name:"/e" ~depth:1;
  Alcotest.(check int) "no events recorded" 0 (List.length (Sink.events ()))

(* A sink enabled mid-span must not record an unmatched End: the
   start was the disabled sentinel, so span_end stays a no-op. *)
let test_toggle_mid_span () =
  Sink.disable ();
  Sink.clear ();
  let t0 = Probe.span_start () in
  let evs =
    with_sink (fun () ->
        Probe.span_end ~cat:"box" ~name:"late" t0;
        Sink.events ())
  in
  Alcotest.(check int) "no dangling End" 0 (List.length evs)

(* --- span pairing property ---------------------------------------- *)

(* Probe.span_end emits Begin then End back-to-back from one thread,
   so per track every Begin must be immediately followed by its
   matching End — even with another thread interleaving into the same
   domain ring. *)
let prop_span_pairing =
  QCheck.Test.make ~name:"every Begin has a matching adjacent End per track"
    ~count:30
    (QCheck.make QCheck.Gen.(list_size (int_range 0 80) (int_range 0 3)))
    (fun ops ->
      let evs =
        with_sink (fun () ->
            let do_ops () =
              List.iter
                (fun op ->
                  match op with
                  | 0 ->
                      let t0 = Probe.span_start () in
                      Probe.span_end ~cat:"box" ~name:"a" t0
                  | 1 ->
                      let t0 = Probe.span_start () in
                      Probe.span_end ~cat:"filter" ~name:"f" t0
                  | 2 -> Probe.instant ~cat:"pool" ~name:"park" ()
                  | _ -> Probe.edge_send ~name:"/e" ~depth:1)
                ops
            in
            let t = Thread.create do_ops () in
            do_ops ();
            Thread.join t;
            Sink.events ())
      in
      let tracks =
        List.sort_uniq compare (List.map (fun e -> e.Sink.track) evs)
      in
      List.for_all
        (fun tr ->
          let tevs = List.filter (fun e -> e.Sink.track = tr) evs in
          let rec ok = function
            | [] -> true
            | e :: rest -> (
                match e.Sink.kind with
                | Sink.Begin -> (
                    match rest with
                    | e2 :: rest' ->
                        e2.Sink.kind = Sink.End
                        && e2.Sink.cat = e.Sink.cat
                        && e2.Sink.name = e.Sink.name
                        && e2.Sink.ts >= e.Sink.ts
                        && ok rest'
                    | [] -> false)
                | Sink.End -> false
                | _ -> ok rest)
          in
          ok tevs)
        tracks)

(* --- Chrome export ------------------------------------------------ *)

let sample_events () =
  with_sink (fun () ->
      let t0 = Probe.span_start () in
      Probe.span_end ~cat:"box" ~name:"/L/box:computeOpts" t0;
      Probe.edge_send ~name:"/L" ~depth:1;
      Probe.edge_recv ~name:"/L" ~depth:0;
      Probe.edge_stall ~name:"/L";
      Probe.counter ~cat:"star" ~name:"star-depth" ~value:3;
      let t1 = Probe.span_start () in
      Probe.span_end ~cat:"filter" ~name:"/R/[f]" t1;
      Sink.events ())

let test_chrome_roundtrip () =
  let evs = sample_events () in
  let items = Export.of_events evs in
  let has p = List.exists p items in
  Alcotest.(check bool) "has a Complete span" true
    (has (function Export.Complete _ -> true | _ -> false));
  Alcotest.(check bool) "has a Counter" true
    (has (function Export.Counter _ -> true | _ -> false));
  Alcotest.(check bool) "has an Instant" true
    (has (function Export.Instant _ -> true | _ -> false));
  Alcotest.(check bool) "has track Meta" true
    (has (function Export.Meta _ -> true | _ -> false));
  let doc = Export.render items in
  (match Export.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validate rejected our own render: %s" e);
  match Export.read doc with
  | Ok items' ->
      Alcotest.(check int) "read returns every item" (List.length items)
        (List.length items')
  | Error e -> Alcotest.failf "read failed: %s" e

let test_chrome_file_roundtrip () =
  let evs = sample_events () in
  let path = Filename.temp_file "obsv" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Export.write_chrome ~path evs;
      let ic = open_in path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Export.validate s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "written file does not validate: %s" e)

let test_jsonl () =
  let evs = sample_events () in
  let path = Filename.temp_file "obsv" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Export.write_jsonl ~path evs;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      Alcotest.(check int) "one line per event" (List.length evs)
        (List.length !lines);
      List.iter
        (fun line ->
          match Obsv.Jsonx.parse line with
          | Ok (Obsv.Jsonx.Obj fields) ->
              Alcotest.(check bool) "line has seq/kind/name" true
                (List.mem_assoc "seq" fields
                && List.mem_assoc "kind" fields
                && List.mem_assoc "name" fields)
          | Ok _ -> Alcotest.fail "JSONL line is not an object"
          | Error e -> Alcotest.failf "JSONL line does not parse: %s" e)
        !lines)

(* --- virtual time: byte-stable export under detcheck -------------- *)

(* Under the virtual scheduler every timestamp comes from the virtual
   clock and every interleaving from the seeded strategy, so tracing
   the same seed twice must export byte-identical Chrome JSON. *)
let detcheck_spec =
  {
    Detcheck.Netgen.klass = Nondet;
    sync_prefix = false;
    body =
      Detcheck.Netgen.(Choice (Serial (Leaf Inc, Leaf Double), Leaf Dup));
    inputs = [ (1, 0); (2, 1); (3, 2); (4, 3); (5, 0); (6, 1) ];
  }

let traced_virtual_run seed =
  Sink.enable ();
  let res, _ =
    Detcheck.Oracle.run_once
      ~strategy:(Detcheck.Strategy.random ~seed)
      detcheck_spec
  in
  Sink.disable ();
  let evs = Sink.events () in
  Sink.clear ();
  (match res with Ok _ -> () | Error e -> raise e);
  (evs, Export.render (Export.of_events evs))

let test_virtual_time_byte_stable () =
  let evs1, doc1 = traced_virtual_run 11 in
  let _, doc2 = traced_virtual_run 11 in
  Alcotest.(check bool) "virtual run produced events" true (evs1 <> []);
  Alcotest.(check bool)
    "virtual timestamps recorded (rebased trace validates)" true
    (Export.validate doc1 = Ok ());
  Alcotest.(check string) "same seed, byte-identical export" doc1 doc2

(* --- metrics ------------------------------------------------------ *)

let test_metrics_histogram () =
  with_metrics (fun () ->
      for i = 1 to 100 do
        Metrics.record_span ~cat:"box" ~name:"b" ~dt:(float_of_int i *. 1e-5)
      done;
      let snap = Metrics.snapshot () in
      match snap.Metrics.spans with
      | [ ("box", "b", h) ] ->
          Alcotest.(check int) "count" 100 h.Metrics.count;
          Alcotest.(check bool) "total close to sum" true
            (Float.abs (h.Metrics.total -. 5050. *. 1e-5) < 1e-6);
          (* Log-linear buckets: percentiles are bucket upper bounds,
             within the documented 12.5% relative error. *)
          let close q v = Float.abs (q -. v) /. v < 0.15 in
          Alcotest.(check bool) "p50 near 50e-5" true (close h.Metrics.p50 50e-5);
          Alcotest.(check bool) "p95 near 95e-5" true (close h.Metrics.p95 95e-5);
          Alcotest.(check bool) "ordering" true
            (h.Metrics.p50 <= h.Metrics.p95
            && h.Metrics.p95 <= h.Metrics.p99
            && h.Metrics.p99 <= h.Metrics.max_s +. 1e-12);
          Alcotest.(check bool) "max exact" true
            (Float.abs (h.Metrics.max_s -. 100e-5) < 1e-9)
      | l -> Alcotest.failf "unexpected span list (%d entries)" (List.length l))

(* Percentiles and the exact quantile share one rank rule, so each
   histogram percentile is the upper bound of the bucket holding the
   exact sample at that rank: never below it, and at most one bucket
   width (1/8 of its octave) above. Samples are whole nanoseconds in
   the log-linear range (>= 64 ns); recording truncates to whole
   nanoseconds, which the 1 ns of slack covers. *)
let prop_percentile_vs_quantile =
  QCheck.Test.make
    ~name:"histogram percentile is within 12.5% above the exact quantile"
    ~count:100
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 300) (int_range 64 100_000_000)))
    (fun ns ->
      with_metrics (fun () ->
          List.iter
            (fun n ->
              Metrics.record_span ~cat:"q" ~name:"q"
                ~dt:(float_of_int n *. 1e-9))
            ns;
          let sorted =
            Array.of_list (List.map (fun n -> float_of_int n *. 1e-9) ns)
          in
          Array.sort Float.compare sorted;
          match (Metrics.snapshot ()).Metrics.spans with
          | [ (_, _, h) ] ->
              List.for_all
                (fun (q, p) ->
                  let x = Metrics.quantile q sorted in
                  p >= x -. 1e-9 && p <= (x *. 1.125) +. 1e-9)
                [ (0.50, h.Metrics.p50); (0.95, h.Metrics.p95);
                  (0.99, h.Metrics.p99) ]
          | _ -> false))

let test_metrics_edges_and_json () =
  with_metrics (fun () ->
      Metrics.record_edge_send ~name:"/e" ~depth:3;
      Metrics.record_edge_send ~name:"/e" ~depth:7;
      Metrics.record_edge_recv ~name:"/e" ~depth:6;
      Metrics.record_edge_stall ~name:"/e";
      Metrics.record_star_depth ~depth:4;
      Metrics.record_star_depth ~depth:2;
      Metrics.record_span ~cat:"box" ~name:"b" ~dt:1e-4;
      let snap = Metrics.snapshot () in
      (match snap.Metrics.edges with
      | [ ("/e", e) ] ->
          Alcotest.(check int) "sends" 2 e.Metrics.sends;
          Alcotest.(check int) "recvs" 1 e.Metrics.recvs;
          Alcotest.(check int) "stalls" 1 e.Metrics.stalls;
          Alcotest.(check int) "hwm" 7 e.Metrics.hwm
      | l -> Alcotest.failf "unexpected edge list (%d entries)" (List.length l));
      Alcotest.(check int) "star hwm" 4 snap.Metrics.star_depth_hwm;
      Alcotest.(check int) "star stages" 2 snap.Metrics.star_stages;
      (* JSON round-trip: second-generation serialisation is stable. *)
      let j = Metrics.to_json snap in
      match Metrics.of_json j with
      | Ok snap' -> Alcotest.(check string) "to_json . of_json stable" j
            (Metrics.to_json snap')
      | Error e -> Alcotest.failf "of_json failed: %s" e)

(* Probes feed metrics without the event sink: span_end must land in
   the histogram even when no events are being retained. *)
let test_metrics_without_sink () =
  with_metrics (fun () ->
      let t0 = Probe.span_start () in
      Probe.span_end ~cat:"box" ~name:"only-metrics" t0;
      Alcotest.(check int) "no events retained" 0
        (List.length (Sink.events ()));
      let snap = Metrics.snapshot () in
      Alcotest.(check bool) "histogram populated" true
        (List.exists
           (fun (_, n, h) -> n = "only-metrics" && h.Metrics.count = 1)
           snap.Metrics.spans))

(* --- Jsonx -------------------------------------------------------- *)

let test_jsonx () =
  (match Obsv.Jsonx.parse {|{"a":[1,2.5,"x\n"],"b":true,"c":null}|} with
  | Ok j ->
      Alcotest.(check int) "nested int" 1
        Obsv.Jsonx.(
          match member "a" j with
          | Some l -> (
              match to_list l with
              | Some (x :: _) -> Option.value ~default:(-1) (to_int x)
              | _ -> -1)
          | None -> -1)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Obsv.Jsonx.parse "{" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated object accepted");
  match Obsv.Jsonx.parse "1 trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted"

(* --- Stats: relaxed snapshot semantics (documented in stats.mli) --- *)

(* Concurrent increments from several domains while a reader snapshots:
   each field must be monotone across successive snapshots, and the
   post-quiescence snapshot must hold the exact totals — the two
   guarantees stats.mli commits to. *)
let prop_stats_relaxed =
  QCheck.Test.make
    ~name:"stats: monotone snapshots, exact totals after quiescence" ~count:5
    (QCheck.make QCheck.Gen.(pair (int_range 1 4) (int_range 100 500)))
    (fun (ndomains, per) ->
      let st = Snet.Stats.create () in
      let done_count = Atomic.make 0 in
      let workers =
        List.init ndomains (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to per do
                  Snet.Stats.record_emission st 1;
                  Snet.Stats.record_backpressure st 1
                done;
                Atomic.incr done_count))
      in
      let monotone = ref true in
      let prev = ref (Snet.Stats.snapshot st) in
      while Atomic.get done_count < ndomains do
        let s = Snet.Stats.snapshot st in
        if
          s.Snet.Stats.records_emitted < !prev.Snet.Stats.records_emitted
          || s.Snet.Stats.backpressure_stalls
             < !prev.Snet.Stats.backpressure_stalls
        then monotone := false;
        prev := s;
        Domain.cpu_relax ()
      done;
      List.iter Domain.join workers;
      let final = Snet.Stats.snapshot st in
      !monotone
      && final.Snet.Stats.records_emitted = ndomains * per
      && final.Snet.Stats.backpressure_stalls = ndomains * per)

(* --- cluster aggregation (Agg / Health / Prom) --------------------- *)

(* Two distinct raw snapshots built by really recording, then merged:
   counts vector-add, maxima take the max, and the identity holds. *)
let test_agg_merge_vector_add () =
  let raw_a =
    with_metrics (fun () ->
        Probe.span_end ~cat:"box" ~name:"m" (Sink.now () -. 1e-6);
        Probe.span_end ~cat:"box" ~name:"m" (Sink.now () -. 1e-6);
        Probe.edge_send ~name:"/e" ~depth:4;
        Metrics.raw_snapshot ())
  in
  let raw_b =
    with_metrics (fun () ->
        Probe.span_end ~cat:"box" ~name:"m" (Sink.now () -. 2e-3);
        Probe.edge_send ~name:"/e" ~depth:9;
        Probe.edge_stall ~name:"/e";
        Metrics.raw_snapshot ())
  in
  let merged = Metrics.merge_raw raw_a raw_b in
  let span key raw = List.assoc key raw.Metrics.raw_spans in
  let key = "box\000m" in
  let count r =
    Array.fold_left ( + ) 0 (span key r).Metrics.r_buckets
  in
  Alcotest.(check int) "span counts add" (count raw_a + count raw_b)
    (count merged);
  Alcotest.(check int) "total_ns adds"
    ((span key raw_a).Metrics.r_total_ns + (span key raw_b).Metrics.r_total_ns)
    (span key merged).Metrics.r_total_ns;
  Alcotest.(check int) "max_ns is max"
    (max (span key raw_a).Metrics.r_max_ns (span key raw_b).Metrics.r_max_ns)
    (span key merged).Metrics.r_max_ns;
  let edge r = List.assoc "/e" r.Metrics.raw_edges in
  Alcotest.(check int) "edge sends add" 2 (edge merged).Metrics.r_sends;
  Alcotest.(check int) "edge stalls add" 1 (edge merged).Metrics.r_stalls;
  Alcotest.(check int) "edge hwm is max" 9 (edge merged).Metrics.r_hwm;
  Alcotest.(check bool) "empty_raw is left identity" true
    (Metrics.merge_raw Metrics.empty_raw raw_a = raw_a);
  Alcotest.(check bool) "empty_raw is right identity" true
    (Metrics.merge_raw raw_a Metrics.empty_raw = raw_a);
  Alcotest.(check bool) "merge commutes" true
    (Metrics.merge_raw raw_a raw_b = Metrics.merge_raw raw_b raw_a)

(* Report and chunk codecs: byte round-trip of a populated report
   (exercising the sparse bucket-array encoding) and of a slim one. *)
let test_agg_report_codec () =
  let report =
    with_metrics (fun () ->
        for _ = 1 to 100 do
          Probe.span_end ~cat:"box" ~name:"rt" (Sink.now () -. 1e-5)
        done;
        Probe.edge_send ~name:"/cut" ~depth:7;
        Obsv.Agg.self_report ~part:3 ~hello_ts:123.456 ())
  in
  Alcotest.(check bool) "report carries metrics" true
    (report.Obsv.Agg.metrics.Metrics.raw_spans <> []);
  (match Obsv.Agg.decode_report (Obsv.Agg.encode_report report) with
  | Ok r -> Alcotest.(check bool) "report round-trips" true (r = report)
  | Error e -> Alcotest.failf "report decode failed: %s" e);
  let slim = Obsv.Agg.self_report ~slim:true ~part:1 ~hello_ts:1. () in
  Alcotest.(check bool) "slim report ships empty metrics" true
    (slim.Obsv.Agg.metrics = Metrics.empty_raw);
  (match Obsv.Agg.decode_report (Obsv.Agg.encode_report slim) with
  | Ok r -> Alcotest.(check bool) "slim round-trips" true (r = slim)
  | Error e -> Alcotest.failf "slim decode failed: %s" e);
  match Obsv.Agg.decode_report "garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage decoded as a report"

let test_agg_chunk_codec () =
  let chunk =
    with_sink (fun () ->
        let t0 = Probe.span_start () in
        Probe.span_end ~cat:"box" ~name:"c" t0;
        Probe.instant ~cat:"pool" ~name:"steal" ~value:2 ();
        Obsv.Agg.self_chunk ~part:2 ~hello_ts:9.75 ())
  in
  Alcotest.(check int) "chunk carries the events" 3
    (List.length chunk.Obsv.Agg.c_events);
  match Obsv.Agg.decode_chunk (Obsv.Agg.encode_chunk chunk) with
  | Ok c -> Alcotest.(check bool) "chunk round-trips" true (c = chunk)
  | Error e -> Alcotest.failf "chunk decode failed: %s" e

(* Health registry: derivation, upsert and JSON. *)
let test_health_registry () =
  Obsv.Health.clear ();
  let p0 =
    Obsv.Health.make ~queue_depth:5 ~window:32 ~credits_free:12 ~sends:200
      ~stalls:10 ~batch_p50:3 ~batch_p95:17 ~journal_lag:4 ~part:0 ()
  in
  Alcotest.(check bool) "stall rate derived" true
    (abs_float (p0.Obsv.Health.stall_rate -. 0.05) < 1e-9);
  let p1 =
    Obsv.Health.make ~alive:false ~reason:"connection lost" ~part:1 ()
  in
  Obsv.Health.set [ p1; p0 ];
  (match Obsv.Health.get () with
  | [ a; b ] ->
      Alcotest.(check int) "sorted by part" 0 a.Obsv.Health.part;
      Alcotest.(check bool) "dead row kept" false b.Obsv.Health.alive;
      Alcotest.(check string) "reason kept" "connection lost"
        b.Obsv.Health.reason
  | l -> Alcotest.failf "expected 2 rows, got %d" (List.length l));
  Obsv.Health.update { p0 with Obsv.Health.queue_depth = 9 };
  (match Obsv.Health.get () with
  | a :: _ -> Alcotest.(check int) "upsert replaces" 9 a.Obsv.Health.queue_depth
  | [] -> Alcotest.fail "registry emptied by upsert");
  List.iter
    (fun p ->
      match Obsv.Health.of_json (Obsv.Health.to_json p) with
      | Some p' -> Alcotest.(check bool) "health json round-trips" true (p' = p)
      | None -> Alcotest.fail "health row did not parse back")
    (Obsv.Health.get ());
  Obsv.Health.clear ();
  Alcotest.(check int) "clear empties" 0 (List.length (Obsv.Health.get ()))

(* Prometheus exposition: structurally valid lines, the partition
   series present, and label values escaped. *)
let test_prom_render () =
  let snap =
    with_metrics (fun () ->
        Probe.span_end ~cat:"box" ~name:{|odd"name\with|} (Sink.now () -. 1e-5);
        Probe.edge_send ~name:"/cut:0" ~depth:3;
        Metrics.snapshot ())
  in
  let parts =
    [
      Obsv.Health.make ~queue_depth:2 ~window:32 ~credits_free:30 ~sends:10
        ~journal_lag:1 ~part:0 ();
      Obsv.Health.make ~alive:false ~reason:"killed" ~part:1 ();
    ]
  in
  let text = Obsv.Prom.render ~parts snap in
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then begin
        (* name{labels} value  |  name value *)
        let sp =
          match String.rindex_opt line ' ' with
          | Some i -> i
          | None -> Alcotest.failf "no value separator: %s" line
        in
        let value = String.sub line (sp + 1) (String.length line - sp - 1) in
        if float_of_string_opt value = None then
          Alcotest.failf "unparseable value in: %s" line
      end)
    lines;
  let has needle =
    let nh = String.length text and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub text i nn = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "exposition has %s" needle) true
        (has needle))
    [
      "snet_span_latency_seconds";
      "snet_partition_queue_depth{part=\"0\"}";
      "snet_partition_up{part=\"1\"} 0";
      "snet_partition_journal_lag{part=\"0\"}";
      (* Escaped quote and backslash inside a label value. *)
      {|odd\"name\\with|};
    ]

(* Collector: hello/report/death bookkeeping feeding cluster and its
   JSON round-trip. Reports from this very process are same-pid and
   must be skipped during metric merging but count for liveness. *)
let test_agg_collector_cluster () =
  let col = Obsv.Agg.create () in
  Obsv.Agg.note_hello col ~part:0;
  Obsv.Agg.note_hello col ~part:1;
  let rep =
    with_metrics (fun () ->
        Probe.span_end ~cat:"box" ~name:"col" (Sink.now () -. 1e-5);
        Obsv.Agg.self_report ~part:0 ~hello_ts:(Sink.now ()) ())
  in
  Obsv.Agg.note_report col rep;
  (* A "remote" report: same bytes, different pid, fresh metrics. *)
  let remote = { rep with Obsv.Agg.part = 1; pid = rep.Obsv.Agg.pid + 1 } in
  Obsv.Agg.note_report col remote;
  Obsv.Agg.note_gauges col ~part:1 ~queue:5 ~credits:27 ~window:32;
  Obsv.Agg.note_death col ~part:1 ~reason:"test kill";
  let cl = Obsv.Agg.cluster col in
  Alcotest.(check int) "both workers seen" 2 cl.Obsv.Agg.workers_seen;
  (match
     List.find_opt (fun p -> p.Obsv.Health.part = 1) cl.Obsv.Agg.parts
   with
  | Some p ->
      Alcotest.(check bool) "dead part flagged" false p.Obsv.Health.alive;
      Alcotest.(check string) "death reason kept" "test kill"
        p.Obsv.Health.reason;
      Alcotest.(check int) "gauges folded in" 5 p.Obsv.Health.queue_depth
  | None -> Alcotest.fail "part 1 missing from cluster");
  let j = Obsv.Agg.cluster_to_json cl in
  Alcotest.(check bool) "sniffs as cluster json" true
    (Obsv.Agg.is_cluster_json j);
  Alcotest.(check bool) "plain text does not sniff" false
    (Obsv.Agg.is_cluster_json "{\"spans\":[]}");
  match Obsv.Agg.cluster_of_json j with
  | Ok cl' ->
      Alcotest.(check int) "json keeps workers_seen" cl.Obsv.Agg.workers_seen
        cl'.Obsv.Agg.workers_seen;
      Alcotest.(check int) "json keeps part rows"
        (List.length cl.Obsv.Agg.parts)
        (List.length cl'.Obsv.Agg.parts)
  | Error e -> Alcotest.failf "cluster json round-trip failed: %s" e

(* stall_rate must always be finite: the explicit override clamps
   non-finite values (a 0/0 interval delta), zero sends derive 0, and
   a collector fed two reports with identical edge totals (a
   zero-interval delta) still produces 0 — nan/inf must never reach
   the cluster JSON or the Prometheus text. *)
let test_stall_rate_always_finite () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  let rate p = p.Obsv.Health.stall_rate in
  Alcotest.(check (float 0.)) "nan override clamped" 0.
    (rate (Obsv.Health.make ~stall_rate:(0. /. 0.) ~part:0 ()));
  Alcotest.(check (float 0.)) "inf override clamped" 0.
    (rate (Obsv.Health.make ~stall_rate:infinity ~part:0 ()));
  Alcotest.(check (float 0.)) "no sends derives 0" 0.
    (rate (Obsv.Health.make ~sends:0 ~stalls:7 ~part:0 ()));
  Alcotest.(check (float 1e-9)) "finite override kept" 0.25
    (rate (Obsv.Health.make ~stall_rate:0.25 ~part:0 ()));
  let col = Obsv.Agg.create () in
  Obsv.Agg.note_hello col ~part:0;
  let rep =
    with_metrics (fun () ->
        Probe.edge_send ~name:"/cut:0" ~depth:2;
        Probe.edge_stall ~name:"/cut:0";
        Obsv.Agg.self_report ~part:0 ~hello_ts:(Sink.now ()) ())
  in
  Obsv.Agg.note_report col rep;
  (* Same totals again: the interval delta is 0 sends / 0 stalls. *)
  Obsv.Agg.note_report col rep;
  let cl = Obsv.Agg.cluster col in
  List.iter
    (fun p ->
      Alcotest.(check bool) "interval rate finite" true
        (Float.is_finite (rate p));
      Alcotest.(check (float 0.)) "zero-interval delta is 0" 0. (rate p))
    cl.Obsv.Agg.parts;
  let j = Obsv.Agg.cluster_to_json cl in
  Alcotest.(check bool) "no nan in cluster json" false
    (contains j "nan" || contains j "inf");
  let text = Obsv.Prom.render ~parts:cl.Obsv.Agg.parts cl.Obsv.Agg.merged in
  Alcotest.(check bool) "no nan in prometheus text" false
    (contains text "nan" || contains text "inf")

let suite =
  [
    Alcotest.test_case "sink records spans, instants, counters, edges" `Quick
      test_sink_basics;
    Alcotest.test_case "full ring drops oldest and counts drops" `Quick
      test_ring_drop_oldest;
    Alcotest.test_case "disabled probes are no-ops" `Quick test_disabled_probes;
    Alcotest.test_case "sink enabled mid-span records no dangling End" `Quick
      test_toggle_mid_span;
    Seeded.to_alcotest prop_span_pairing;
    Alcotest.test_case "chrome export round-trips through its own reader"
      `Quick test_chrome_roundtrip;
    Alcotest.test_case "write_chrome output validates" `Quick
      test_chrome_file_roundtrip;
    Alcotest.test_case "jsonl export: one parseable line per event" `Quick
      test_jsonl;
    Alcotest.test_case "virtual-time trace is byte-stable per seed" `Quick
      test_virtual_time_byte_stable;
    Alcotest.test_case "latency histogram percentiles" `Quick
      test_metrics_histogram;
    Seeded.to_alcotest prop_percentile_vs_quantile;
    Alcotest.test_case "edge counters, star depth, json round-trip" `Quick
      test_metrics_edges_and_json;
    Alcotest.test_case "metrics aggregate without the event sink" `Quick
      test_metrics_without_sink;
    Alcotest.test_case "jsonx parses and rejects malformed input" `Quick
      test_jsonx;
    Alcotest.test_case "agg: raw merge is vector addition" `Quick
      test_agg_merge_vector_add;
    Alcotest.test_case "agg: report codec round-trips (sparse buckets)" `Quick
      test_agg_report_codec;
    Alcotest.test_case "agg: trace chunk codec round-trips" `Quick
      test_agg_chunk_codec;
    Alcotest.test_case "health registry derives, upserts, round-trips" `Quick
      test_health_registry;
    Alcotest.test_case "prometheus exposition renders and escapes" `Quick
      test_prom_render;
    Alcotest.test_case "agg: collector cluster snapshot + json" `Quick
      test_agg_collector_cluster;
    Alcotest.test_case "stall rate is always finite" `Quick
      test_stall_rate_always_finite;
    Seeded.to_alcotest prop_stats_relaxed;
  ]
