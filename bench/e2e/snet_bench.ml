(* snet_bench: the repository's end-to-end benchmark.

   Runs each workload in a fresh child process under a watchdog,
   checks every output against an oracle, prints every metric by name
   with its unit, writes a results JSON, and ends standard output with
   one JSON line {correct, attempted, failed, metrics}. With --trace 1
   it is the shorter per-layer run instead. --compare A B checks two
   results files against the bounds in BENCHMARK.json. See README.md. *)

open Harness

let workloads =
  [
    ("fig2-solve", Wl_solve.run Wl_solve.fig2);
    ("fig3-solve16", Wl_solve.run Wl_solve.fig3);
    ("dist-stream", Wl_dist.run);
    ("serve-journaled", Wl_serve.run);
  ]

(* The metric sets BENCHMARK.json declares; a run that misses one is
   not correct. *)
let e2e_names =
  [
    "throughput_per_s"; "latency_p50_ms"; "latency_p90_ms"; "cpu_ms_per_input";
    "peak_rss_mb"; "setup_s";
  ]

let layer_names =
  [
    "box.calls_per_input"; "box.us_per_call_p50"; "box.share";
    "coord.us_per_input"; "coord.over_seq"; "core.hops_per_input";
    "core.instances_per_input"; "core.filter_calls_per_input";
    "scheduler.tasks_per_input"; "scheduler.parks_per_input";
    "scheduler.steals_per_input"; "flow.stalls_per_input"; "wire.encode_ns";
    "wire.decode_ns"; "wire.bytes_per_record"; "trace.overhead_ratio";
  ]

(* Measured seconds per workload when --seconds is not given. *)
let default_seconds ~smoke ~traced = if smoke then 1. else if traced then 5. else 30.

(* ------------------------------------------------------------------ *)
(* Results: one per workload, as the child writes it. *)

module J = Obsv.Jsonx

type result = {
  workload : string;
  ok : bool;  (** The child ran to completion and wrote its result. *)
  attempted : int;
  failed : int;
  errors : string list;
  e2e : metric list;
  layers : metric list;
  extras : metric list;
}

let metrics_json ms =
  J.Obj
    (List.map
       (fun m -> (m.name, J.Obj [ ("value", J.Num m.value); ("unit", J.Str m.unit) ]))
       ms)

let metrics_of_json j =
  match j with
  | Some (J.Obj kvs) ->
      List.filter_map
        (fun (name, v) ->
          match
            (Option.bind (J.member "value" v) J.to_float,
             Option.bind (J.member "unit" v) J.to_string)
          with
          | Some value, Some unit -> Some { name; unit; value }
          | _ -> None)
        kvs
  | _ -> []

let result_json r =
  J.Obj
    [
      ("workload", J.Str r.workload);
      ("ok", J.Bool r.ok);
      ("attempted", J.Num (float_of_int r.attempted));
      ("failed", J.Num (float_of_int r.failed));
      ("errors", J.List (List.map (fun e -> J.Str e) r.errors));
      ("e2e", metrics_json r.e2e);
      ("layers", metrics_json r.layers);
      ("extras", metrics_json r.extras);
    ]

let result_of_json j =
  let int k = Option.value ~default:0 (Option.bind (J.member k j) J.to_int) in
  {
    workload = Option.value ~default:"?" (Option.bind (J.member "workload" j) J.to_string);
    ok = J.member "ok" j = Some (J.Bool true);
    attempted = int "attempted";
    failed = int "failed";
    errors =
      Option.value ~default:[]
        (Option.map (List.filter_map J.to_string)
           (Option.bind (J.member "errors" j) J.to_list));
    e2e = metrics_of_json (J.member "e2e" j);
    layers = metrics_of_json (J.member "layers" j);
    extras = metrics_of_json (J.member "extras" j);
  }

let read_json path =
  match J.parse (read_file path) with
  | Ok j -> Ok j
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | exception Sys_error e -> Error e

let write_json path j =
  match J.write_file ~path j with
  | Ok () -> ()
  | Error e -> Printf.eprintf "snet_bench: %s\n%!" e

let error_rate r =
  if r.attempted = 0 then 1. else float_of_int r.failed /. float_of_int r.attempted

let missing ~traced r =
  let have = List.map (fun m -> m.name) (if traced then r.layers else r.e2e) in
  List.filter
    (fun n -> not (List.mem n have))
    (if traced then layer_names else e2e_names)

let correct ~traced r = r.ok && r.failed = 0 && r.attempted > 0 && missing ~traced r = []

(* ------------------------------------------------------------------ *)
(* Child: run one workload, write its result. *)

let child ctx name path =
  (* Own process group, so the watchdog can stop the workers and
     daemons this child spawns along with it. *)
  ignore (Unix.setsid ());
  let t = tally () in
  let run = List.assoc name workloads in
  let e2e, layers, extras =
    try run ctx t
    with e ->
      fail t "%s raised %s" name (Printexc.to_string e);
      ([], [], [])
  in
  write_json path
    (result_json
       {
         workload = name;
         ok = true;
         attempted = t.attempted;
         failed = t.failed;
         errors = List.rev t.errors;
         e2e;
         layers;
         extras;
       })

(* ------------------------------------------------------------------ *)
(* Parent: spawn, watch, collect. *)

(* A child that hung or died: its whole workload is one failed attempt. *)
let crashed name why =
  {
    workload = name;
    ok = false;
    attempted = 1;
    failed = 1;
    errors = [ why ];
    e2e = [];
    layers = [];
    extras = [];
  }

let group_alive pid =
  match Unix.kill (-pid) 0 with
  | () -> true
  | exception Unix.Unix_error _ -> false

let stop_group pid =
  (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
  let until = now () +. 5. in
  while group_alive pid && now () < until do
    Unix.sleepf 0.05
  done

let run_child ~self ~ctx ~deadline name =
  let path = Filename.concat ctx.out_dir (name ^ ".result.json") in
  (try Sys.remove path with Sys_error _ -> ());
  let args =
    [
      self; "--child"; name; "--result"; path; "--seed"; string_of_int ctx.seed;
      "--seconds"; Printf.sprintf "%g" ctx.seconds; "--trace";
      (if ctx.traced then "1" else "0"); "--out"; ctx.out_dir;
    ]
    @ if ctx.smoke then [ "--smoke" ] else []
  in
  (* The child's chatter goes to stderr: stdout belongs to the results. *)
  let pid =
    Unix.create_process self (Array.of_list args) Unix.stdin Unix.stderr
      Unix.stderr
  in
  let t0 = now () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if now () -. t0 > deadline then None
        else begin
          Unix.sleepf 0.05;
          wait ()
        end
    | _, status -> Some status
  in
  let status = wait () in
  if status = None then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)
  end;
  stop_group pid;
  match status with
  | None -> crashed name (Printf.sprintf "watchdog: no result after %.0f s" deadline)
  | Some (Unix.WEXITED 0) -> (
      match read_json path with
      | Ok j ->
          Sys.remove path;
          result_of_json j
      | Error e -> crashed name ("no result: " ^ e))
  | Some (Unix.WEXITED c) -> crashed name (Printf.sprintf "child exited with code %d" c)
  | Some (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
      crashed name (Printf.sprintf "child killed by signal %d" s)

let print_metric m =
  Printf.printf "  %-30s %14.6g %s%s\n" m.name m.value m.unit
    (* An open-loop generator that runs late under-reports latency. *)
    (if m.name = "loadgen.lag_ms_p99" && m.value > 1. then
       "  FLAGGED: generator late, latency suspect"
     else "")

let print_result ~traced r =
  Printf.printf "== %s ==\n" r.workload;
  List.iter print_metric (if traced then r.layers else r.e2e);
  List.iter print_metric r.extras;
  Printf.printf "  %-30s %14.6g failed/attempted (%d of %d)\n" "error_rate"
    (error_rate r) r.failed r.attempted;
  List.iter (Printf.printf "  failure: %s\n") r.errors;
  List.iter (Printf.printf "  missing metric: %s\n") (missing ~traced r)

let final_line ~traced results =
  let single = match results with [ _ ] -> true | _ -> false in
  let metrics =
    List.concat_map
      (fun r ->
        List.map
          (fun m -> if single then m else { m with name = r.workload ^ "/" ^ m.name })
          (if traced then r.layers else r.e2e))
      results
  in
  J.render
    (J.Obj
       [
         ("correct", J.Bool (List.for_all (correct ~traced) results));
         ("attempted", J.Num (float_of_int (List.fold_left (fun a r -> a + r.attempted) 0 results)));
         ("failed", J.Num (float_of_int (List.fold_left (fun a r -> a + r.failed) 0 results)));
         ("metrics", metrics_json metrics);
       ])

let run_all ~self ctx names =
  mkdir_p ctx.out_dir;
  let deadline = (3. *. ctx.seconds) +. 60. in
  let results =
    List.map
      (fun name ->
        Printf.eprintf "snet_bench: %s (seed %d, %g s%s)\n%!" name ctx.seed
          ctx.seconds
          (if ctx.traced then ", traced" else "");
        run_child ~self ~ctx ~deadline name)
      names
  in
  List.iter (print_result ~traced:ctx.traced) results;
  let path =
    Filename.concat ctx.out_dir
      (Printf.sprintf "results%s-seed%d-trace%d.json"
         (match names with [ n ] -> "-" ^ n | _ -> "")
         ctx.seed
         (if ctx.traced then 1 else 0))
  in
  write_json path
    (J.Obj
       [
         ("seed", J.Num (float_of_int ctx.seed));
         ("seconds", J.Num ctx.seconds);
         ("trace", J.Bool ctx.traced);
         ("workloads", J.List (List.map result_json results));
       ]);
  Printf.printf "results: %s\n" path;
  print_endline (final_line ~traced:ctx.traced results);
  List.for_all (correct ~traced:ctx.traced) results

(* ------------------------------------------------------------------ *)
(* --compare A B: every end-to-end metric of every workload of B that
   BENCHMARK.json lists, against A, within BENCHMARK.json's bounds;
   error_rate may not increase at all. *)

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "snet_bench: %s\n" msg;
      exit 2)
    fmt

(* The workloads BENCHMARK.json lists, and (name, lower is better,
   bound) of every end-to-end metric it declares. *)
let declared () =
  match read_json "BENCHMARK.json" with
  | Error e -> usage_error "%s" e
  | Ok j ->
      let list k = Option.value ~default:[] (Option.bind (J.member k j) J.to_list) in
      ( List.filter_map (fun w -> Option.bind (J.member "name" w) J.to_string) (list "workloads"),
        list "end_to_end"
        |> List.filter_map (fun m ->
               match
                 ( Option.bind (J.member "name" m) J.to_string,
                   Option.bind (J.member "better" m) J.to_string,
                   Option.bind (J.member "bound" m) J.to_float )
               with
               | Some n, Some better, Some bound -> Some (n, better = "lower", bound)
               | _ -> None) )

let load_results path =
  match read_json path with
  | Error e -> usage_error "%s" e
  | Ok j ->
      let num k = Option.bind (J.member k j) J.to_float in
      if J.member "trace" j <> Some (J.Bool false) then
        usage_error "%s is not an untraced run: it has no end-to-end metrics" path;
      ( (num "seed", num "seconds"),
        Option.value ~default:[] (Option.bind (J.member "workloads" j) J.to_list)
        |> List.map result_of_json )

let compare_files a b =
  let run_a, ra = load_results a and run_b, rb = load_results b in
  if run_a <> run_b then
    usage_error "%s and %s differ in seed or measured seconds" a b;
  let workloads, checks = declared () in
  let names rs = List.map (fun r -> r.workload) rs in
  List.iter
    (Printf.printf "%s: not in BENCHMARK.json, not compared\n")
    (List.sort_uniq compare
       (List.filter (fun w -> not (List.mem w workloads)) (names ra @ names rb)));
  let gated rs = List.filter (fun r -> List.mem r.workload workloads) rs in
  let ra = gated ra and rb = gated rb in
  let regressions = ref 0 in
  let row w n va vb worse bound verdict =
    Printf.printf "%-16s %-18s %14s %14s %9s %7s%s\n" w n va vb worse bound
      (if verdict = "" then "" else "  " ^ verdict)
  in
  let bad w n va vb verdict =
    incr regressions;
    row w n va vb "" "" verdict
  in
  let num = Printf.sprintf "%.6g" and pct x = Printf.sprintf "%.1f%%" (x *. 100.) in
  row "workload" "metric" "A" "B" "worse by" "bound" "";
  List.iter
    (fun w -> if not (List.mem w (names rb)) then bad w "" "" "" "WORKLOAD MISSING FROM B")
    (names ra);
  List.iter
    (fun w -> if not (List.mem w (names ra)) then bad w "" "" "" "WORKLOAD MISSING FROM A")
    (names rb);
  List.iter
    (fun wa ->
      match List.find_opt (fun r -> r.workload = wa.workload) rb with
      | None -> ()
      | Some wb ->
          let w = wa.workload in
          let value r n =
            List.find_opt (fun m -> m.name = n) r.e2e
            |> Option.map (fun m -> m.value)
          in
          List.iter
            (fun (n, lower, bound) ->
              match (value wa n, value wb n) with
              | None, _ -> bad w n "" "" "MISSING FROM A"
              | _, None -> bad w n "" "" "MISSING FROM B"
              | Some va, Some vb ->
                  let worse = if lower then (vb -. va) /. va else (va -. vb) /. va in
                  let regressed = not (worse <= bound) in
                  if regressed then incr regressions;
                  row w n (num va) (num vb) (pct worse) (pct bound)
                    (if regressed then "REGRESSION" else ""))
            checks;
          let ea = error_rate wa and eb = error_rate wb in
          if eb > ea then incr regressions;
          row w "error_rate" (num ea) (num eb) "" "any"
            (if eb > ea then "REGRESSION" else ""))
    ra;
  if !regressions > 0 then begin
    Printf.printf "%d regression(s)\n" !regressions;
    exit 1
  end
  else print_endline "no regression"

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref None in
  let trace = ref 0 and smoke = ref false and out = ref "bench/e2e/out" in
  let child_name = ref None and result = ref "" and cmp = ref [] in
  let specs =
    [
      ("--workload", Arg.String (fun s -> workload := Some s),
       "NAME  run one workload (default: all of them)");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      (* BENCHMARK.json's command is run with --seconds set to its
         run_seconds; a results file records the length it ran. *)
      ("--seconds", Arg.Float (fun s -> seconds := Some s),
       "S  measured seconds per workload (default 30, traced 5, smoke 1)");
      ("--trace", Arg.Symbol ([ "0"; "1" ], fun t -> trace := int_of_string t),
       "  1: the per-layer (traced) run");
      ("--smoke", Arg.Set smoke, " tiny inputs, oracles only");
      ("--out", Arg.Set_string out, "DIR  results, traces and scratch (default bench/e2e/out)");
      ("--compare", Arg.Tuple [ Arg.String (fun a -> cmp := [ a ]); Arg.String (fun b -> cmp := !cmp @ [ b ]) ],
       "A B  compare two results files against BENCHMARK.json's bounds");
      ("--child", Arg.String (fun s -> child_name := Some s), "NAME  (internal)");
      ("--result", Arg.Set_string result, "PATH  (internal)");
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "snet_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] | --compare A.json B.json";
  match !cmp with
  | [ a; b ] -> compare_files a b
  | _ ->
      let self =
        if Filename.is_relative Sys.executable_name then
          Filename.concat (Sys.getcwd ()) Sys.executable_name
        else Sys.executable_name
      in
      let traced = !trace = 1 in
      let ctx =
        {
          seed = !seed;
          seconds =
            Option.value !seconds ~default:(default_seconds ~smoke:!smoke ~traced);
          traced;
          smoke = !smoke;
          out_dir = !out;
          bin_dir = Filename.concat (Filename.dirname self) "../../bin";
        }
      in
      let names =
        match !workload with
        | None -> List.map fst workloads
        | Some w when List.mem_assoc w workloads -> [ w ]
        | Some w ->
            Printf.eprintf "snet_bench: unknown workload %s (known: %s)\n" w
              (String.concat ", " (List.map fst workloads));
            exit 2
      in
      match !child_name with
      | Some name -> child ctx name !result
      | None ->
          let ok =
            if !smoke then
              (* Smoke: the untraced and the traced run, every oracle on,
                 no timing claims. *)
              let untraced = run_all ~self { ctx with traced = false } names in
              run_all ~self { ctx with traced = true } names && untraced
            else run_all ~self ctx names
          in
          exit (if ok then 0 else 1)
