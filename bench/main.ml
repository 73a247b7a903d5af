(* Benchmark harness regenerating every figure and quantitative claim
   of the paper (see DESIGN.md's experiment index and EXPERIMENTS.md
   for recorded results). Each experiment is one module (exp_*.ml)
   built on the measurement core (bench_core.ml); this file is only
   the dispatch table.

   Run all:        dune exec bench/main.exe
   Run some:       dune exec bench/main.exe -- fig3-sweep dist
   CI size:        BENCH_SMOKE=1 (see bench/dune's aliases) *)

let experiments =
  [
    ("baseline", "pure-SaC sequential solver (Section 3)", Exp_baseline.run);
    ("fig1", "network of Section 5, Fig. 1", Exp_fig.run ~figure:"fig1");
    ("fig2", "network of Section 5, Fig. 2", Exp_fig.run ~figure:"fig2");
    ("fig3", "network of Section 5, Fig. 3", Exp_fig.run ~figure:"fig3");
    ( "fig3-sweep",
      "throttle width and star cutoff (Section 5)",
      Exp_fig3_sweep.run );
    ( "dataparallel",
      "with-loop kernels (Section 3's 'for free' claim)",
      Exp_dataparallel.run );
    ("scheduler", "work-stealing pool", Exp_scheduler.run);
    ( "scaling",
      "hybrid networks across domain counts (Section 5)",
      Exp_scaling.run );
    ("combinators", "per-record overhead (Section 4)", Exp_combinators.run);
    ( "interpreted",
      "mini-SaC boxes vs native OCaml boxes",
      Exp_interpreted.run );
    ("engines", "the same network on both engines", Exp_engines.run);
    ("ablation", "actor batch size and determinism overhead", Exp_ablation.run);
    ("propagation", "constraint deduction vs pure search", Exp_propagation.run);
    ("faults", "supervision overhead and error-record paths", Exp_faults.run);
    ("obsv", "tracing/metrics/shipping overhead", Exp_obsv.run);
    ("dist", "wire format and cut-edge transport overhead", Exp_dist.run);
    ("serve", "snet_serve daemon under concurrent sessions", Exp_serve.run);
    ("durable", "journal overhead and recovery replay", Exp_durable.run);
    ( "elastic",
      "health-driven rebalancing of a skewed shard net",
      Exp_elastic.run );
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map (fun (name, _, _) -> name) experiments
  in
  Printf.printf
    "S-Net/SaC benchmark harness (%d domain(s) recommended on this host)\n"
    (Domain.recommended_domain_count ());
  List.iter
    (fun name ->
      match List.find_opt (fun (n, _, _) -> n = name) experiments with
      | Some (_, title, run) ->
          Printf.printf "\n== %s: %s ==\n%!" name title;
          run ()
      | None ->
          Printf.eprintf "unknown experiment %s (known: %s)\n" name
            (String.concat ", " (List.map (fun (n, _, _) -> n) experiments));
          exit 1)
    requested;
  if Lazy.is_val Bench_core.conc_pool then
    Scheduler.Pool.shutdown (Lazy.force Bench_core.conc_pool);
  if Bench_core.failed () then exit 1
