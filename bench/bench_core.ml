(* The measurement core every bench/main.exe experiment is built on:
   the smoke flag, one monotonic clock, the Bechamel row collector,
   paired GC-settled rounds, bars, and one report path that takes a
   declared value to its printed line and to its place in
   BENCH_<name>.json. Also the fixtures several experiments share. *)

open Bechamel
open Toolkit
module J = Obsv.Jsonx

(* BENCH_SMOKE set: every experiment runs at CI size, and every
   Bechamel group gets a 0.05 s quota. *)
let smoke = Sys.getenv_opt "BENCH_SMOKE" <> None

(* Seconds on the monotonic clock Bechamel itself samples. *)
let now () = Monotonic_clock.get () *. 1e-9

let pretty_ns ns =
  if ns >= 1e9 then Printf.sprintf "%8.3f s " (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%8.3f us" (ns /. 1e3)
  else Printf.sprintf "%8.1f ns" ns

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)

(* What one BENCH_<bench>.json holds. A value is declared once, under a
   dotted key naming its place in the document ("wire_ns.encode"); the
   declaration prints its line and files the value. *)
type t = {
  bench : string;
  mutable entries : (string list * J.t) list;  (* newest first *)
  mutable bars : (string * J.t) list;  (* newest first *)
  mutable rows : (string * float) list;  (* Bechamel rows, in order *)
}

let reports = Hashtbl.create 8
let failures = ref []

(* One report per name per process: experiments sharing a file
   (baseline and dataparallel, BENCH_kernels.json) add to one. *)
let report bench =
  match Hashtbl.find_opt reports bench with
  | Some r -> r
  | None ->
      let r = { bench; entries = []; bars = []; rows = [] } in
      Hashtbl.add reports bench r;
      r

(* NaN, the "no measurement" of a missing row, is written as -1. *)
let jnum x = J.Num (if Float.is_nan x then -1.0 else x)

let put r key ~show v =
  Printf.printf "  %-44s %s\n%!" key show;
  r.entries <- (String.split_on_char '.' key, v) :: r.entries

let ns r key v = put r key ~show:(pretty_ns v) (jnum v)
let ratio r key v =
  put r key ~show:(Printf.sprintf "%+.2f%%" (100. *. v)) (jnum v)

let num r key v = put r key ~show:(Printf.sprintf "%.4g" v) (jnum v)
let int r key n = put r key ~show:(string_of_int n) (jnum (float_of_int n))
let flag r key b = put r key ~show:(string_of_bool b) (J.Bool b)
let text r key s = put r key ~show:s (J.Str s)

(* Latency histograms from Obsv.Metrics: one line per span, one list
   of {name, count, p50, p95, p99} (ns) in the JSON. *)
let spans r key hists =
  let qs (h : Obsv.Metrics.hist) =
    [ ("p50", h.p50 *. 1e9); ("p95", h.p95 *. 1e9); ("p99", h.p99 *. 1e9) ]
  in
  put r key
    ~show:
      (String.concat ""
         (List.map
            (fun (name, (h : Obsv.Metrics.hist)) ->
              Printf.sprintf "\n    %-28s n=%-5d %s" name h.count
                (String.concat " "
                   (List.map (fun (q, v) -> q ^ "=" ^ pretty_ns v) (qs h))))
            hists))
    (J.List
       (List.map
          (fun (name, (h : Obsv.Metrics.hist)) ->
            J.Obj
              (("name", J.Str name)
              :: ("count", jnum (float_of_int h.count))
              :: List.map (fun (q, v) -> (q, jnum v)) (qs h)))
          hists))

(* Run [f] with metrics on; return its result and the span histograms
   of category [cat] it recorded. *)
let spans_of ~cat f =
  Obsv.Metrics.enable ();
  let x = f () in
  let hists =
    List.filter_map
      (fun (c, name, h) -> if c = cat then Some (name, h) else None)
      (Obsv.Metrics.snapshot ()).Obsv.Metrics.spans
  in
  Obsv.Metrics.disable ();
  (x, hists)

(* ------------------------------------------------------------------ *)
(* Bars                                                                *)

let add_bar r name ~met ~show fields =
  Printf.printf "  bar %-40s %s %s\n%!" name show
    (if met then "met" else "MISSED");
  r.bars <- (name, J.Obj (fields @ [ ("met", J.Bool met) ])) :: r.bars;
  if not met then
    failures := Printf.sprintf "%s: %s %s missed" r.bench name show :: !failures

(* [value <= limit] ([value >= limit] with [~at_least]); a NaN value
   (nothing measured) counts as met. A missed bar fails the run once
   every requested experiment has written its file. *)
let bar ?(show = Printf.sprintf "%.4g") ?(at_least = false) r name ~value
    ~limit =
  let met = if at_least then not (value < limit) else not (value > limit) in
  add_bar r name ~met
    ~show:
      (Printf.sprintf "%s (limit %s %s)" (show value)
         (if at_least then ">=" else "<=")
         (show limit))
    [ ("value", jnum value); ("limit", jnum limit) ]

(* A pass/fail condition, recorded and enforced like a bar. *)
let check r name ok = add_bar r name ~met:ok ~show:"" []

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)

(* Dotted keys become nested objects, in first-declared order. *)
let rec nest = function
  | [] -> []
  | ([ k ], v) :: rest -> (k, v) :: nest rest
  | (k :: _, _) :: _ as l ->
      let mine, rest = List.partition (fun (p, _) -> List.hd p = k) l in
      (k, J.Obj (nest (List.map (fun (p, v) -> (List.tl p, v)) mine)))
      :: nest rest
  | ([], _) :: rest -> nest rest

(* Every BENCH_*.json goes through Obsv.Jsonx, which parses the file
   back before trusting it. *)
let finish r =
  let path = "BENCH_" ^ r.bench ^ ".json" in
  let doc =
    J.Obj
      ([
         ("bench", J.Str r.bench);
         ("smoke", J.Bool smoke);
         ( "host_recommended_domains",
           jnum (float_of_int (Domain.recommended_domain_count ())) );
         ("bars", J.Obj (List.rev r.bars));
       ]
      @ nest (List.rev r.entries)
      @ [
          ( "results",
            J.List
              (List.map
                 (fun (name, ns) ->
                   J.Obj [ ("name", J.Str name); ("ns_per_run", jnum ns) ])
                 r.rows) );
        ])
  in
  match J.write_file ~path doc with
  | Ok () ->
      Printf.printf "  wrote %s (%d results)\n%!" path (List.length r.rows)
  | Error e -> failures := (r.bench ^ ": " ^ e) :: !failures

(* Print every missed bar; true when there was one. *)
let failed () =
  List.iter (Printf.eprintf "bench: %s\n") (List.rev !failures);
  !failures <> []

(* ------------------------------------------------------------------ *)
(* Bechamel rows                                                       *)

let run_tests quota tests =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  Analyze.all ols Instance.monotonic_clock raw

(* Time [tests] (OLS estimate of ns per run) and print them under
   [title]; with [~into], keep the rows for that report's results. *)
let bench ?into ?(quota = 0.5) title tests =
  let quota = if smoke then 0.05 else quota in
  let results = run_tests quota (Test.make_grouped ~name:"" tests) in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
        in
        (name, est) :: acc)
      results []
    |> List.sort compare
  in
  Printf.printf "\n-- %s %s\n" title
    (String.make (max 1 (66 - String.length title)) '-');
  List.iter
    (fun (name, est) -> Printf.printf "  %-44s %s/run\n" name (pretty_ns est))
    rows;
  flush stdout;
  Option.iter (fun r -> r.rows <- r.rows @ rows) into

let row r name = Option.value ~default:nan (List.assoc_opt name r.rows)

(* ------------------------------------------------------------------ *)
(* Paired rounds                                                       *)

(* One paired A/B measurement. Each side is a prep that returns the
   thunk to time; every round preps, collects and times a block of
   [reps] runs of [a], then the same for [b] (order swapped on odd
   rounds). Alternating inside one loop puts slow drift (heap growth,
   thermal state, scheduler mood) on both sides of every round, so
   the per-round delta isolates the configuration cost; back-to-back
   blocks measured that drift as a ~28% "noise floor". The
   [Gc.full_major] between prep and clock matters: prep work (ring
   allocation, table clears) otherwise lands as major-GC debt inside
   the timed block, which alone can double a run. [~settle:false]
   skips it, so each run pays the collection debt the run before it
   left. Each side gets one unrecorded warm-up before the rounds.

   Declares, under [key]: each side's median and the per-round
   samples (ns), and the median per-round relative delta of [b] over
   [a], which is robust to the odd round a scheduler hiccup lands on,
   unlike a ratio of means. Returns the samples and that delta. *)
let paired r key ~rounds ?(reps = 1) ?(settle = true) (la, a) (lb, b) =
  let time side =
    let f = side () in
    if settle then Gc.full_major ();
    (* Best-of-[reps]: a GC slice or an unlucky scheduling decision
       only ever makes a rep slower. *)
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = now () in
      ignore (Sys.opaque_identity (f ()));
      best := Float.min !best (now () -. t0)
    done;
    !best *. 1e9
  in
  ignore (time a : float);
  ignore (time b : float);
  let xa = Array.make rounds 0. and xb = Array.make rounds 0. in
  for i = 0 to rounds - 1 do
    if i land 1 = 0 then begin
      xa.(i) <- time a;
      xb.(i) <- time b
    end
    else begin
      xb.(i) <- time b;
      xa.(i) <- time a
    end
  done;
  let delta =
    Obsv.Metrics.quantile 0.5
      (sorted (Array.init rounds (fun i -> (xb.(i) -. xa.(i)) /. xa.(i))))
  in
  let sides = [ (la, xa); (lb, xb) ] in
  List.iter
    (fun (l, x) ->
      ns r
        (Printf.sprintf "%s.%s_ns" key l)
        (Obsv.Metrics.quantile 0.5 (sorted x)))
    sides;
  List.iter
    (fun (l, x) ->
      put r
        (Printf.sprintf "%s.samples_ns.%s" key l)
        ~show:
          (String.concat " "
             (Array.to_list
                (Array.map (fun v -> Printf.sprintf "%.3f" (v /. 1e6)) x))
          ^ " ms")
        (J.List (Array.to_list (Array.map jnum x))))
    sides;
  ratio r (key ^ ".delta_ratio") delta;
  (xa, xb, delta)

(* ------------------------------------------------------------------ *)
(* Shared fixtures                                                     *)

let conc_pool = lazy (Scheduler.Pool.create ~num_domains:2 ())
let board_of name = (Sudoku.Puzzles.find name).Sudoku.Puzzles.board

let net_of = function
  | "fig1" -> Sudoku.Networks.fig1 ()
  | "fig2" -> Sudoku.Networks.fig2 ()
  | "fig3" -> Sudoku.Networks.fig3 ()
  | other -> invalid_arg other

let run_network_seq net board =
  Snet.Engine_seq.run net [ Sudoku.Boxes.inject_board board ]

let run_network_conc net board =
  Snet.Engine_conc.run ~pool:(Lazy.force conc_pool) net
    [ Sudoku.Boxes.inject_board board ]

(* One row of a topology table: solutions and the unfolding counters
   of a sequential run. *)
let topology_header first =
  Printf.printf "  %-22s %9s %8s %8s %9s %10s\n" first "solutions" "depth"
    "splits" "instances" "box-invocs"

let topology_row name net board =
  let stats = Snet.Stats.create () in
  let out =
    Snet.Engine_seq.run ~stats net [ Sudoku.Boxes.inject_board board ]
  in
  let solutions = List.length (Sudoku.Networks.solved_boards out) in
  let s = Snet.Stats.snapshot stats in
  Printf.printf "  %-22s %9d %8d %8d %9d %10d\n%!" name solutions
    s.Snet.Stats.max_star_depth s.Snet.Stats.split_replicas
    s.Snet.Stats.instances s.Snet.Stats.box_invocations
