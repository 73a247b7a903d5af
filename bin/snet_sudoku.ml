(* Command-line driver: solve sudoku puzzles with the pure sequential
   solver or any of the paper's three hybrid networks, on either
   engine. *)

open Cmdliner

type network_kind = Baseline | Fig1 | Fig2 | Fig3 | Shard
type engine_kind = Seq | Conc

let load_board puzzle file =
  match (puzzle, file) with
  | Some name, None -> (
      match List.find_opt (fun e -> e.Sudoku.Puzzles.name = name) Sudoku.Puzzles.all with
      | Some e -> e.Sudoku.Puzzles.board
      | None ->
          let known =
            String.concat ", "
              (List.map (fun e -> e.Sudoku.Puzzles.name) Sudoku.Puzzles.all)
          in
          failwith (Printf.sprintf "unknown puzzle %S (known: %s)" name known))
  | None, Some path ->
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Sudoku.Board.parse s
  | None, None -> Sudoku.Puzzles.easy
  | Some _, Some _ -> failwith "give either --puzzle or --file, not both"

let build_network kind pool det throttle cutoff side shards spin =
  match kind with
  | Baseline -> None
  | Fig1 -> Some (Sudoku.Networks.fig1 ~pool ~det ())
  | Fig2 -> Some (Sudoku.Networks.fig2 ~pool ~det ())
  | Fig3 -> Some (Sudoku.Networks.fig3 ~pool ~det ~throttle ~cutoff ~side ())
  | Shard -> Some (Sudoku.Networks.shard ?shards ~spin ())

(* The worker binary lives next to this one (dune puts both in bin/,
   opam install renames to snet-worker); SNET_WORKER_EXE overrides. *)
let find_worker_exe () =
  match Sys.getenv_opt "SNET_WORKER_EXE" with
  | Some p -> p
  | None -> (
      let dir = Filename.dirname Sys.executable_name in
      let candidates =
        List.map (Filename.concat dir)
          [ "snet_worker.exe"; "snet_worker"; "snet-worker" ]
      in
      match List.find_opt Sys.file_exists candidates with
      | Some p -> p
      | None ->
          failwith
            "cannot find the snet_worker executable next to snet_sudoku; \
             set SNET_WORKER_EXE")

let run_solver kind engine det throttle cutoff domains workers dist_batch
    kill_worker verbose stats_flag on_error box_timeout trace_out metrics_flag
    metrics_out metrics_every shards spin count rebalance puzzle file =
  let board = load_board puzzle file in
  let side = Sudoku.Board.side board in
  if rebalance && workers <= 0 then begin
    prerr_endline "snet-sudoku: --rebalance requires --workers";
    exit 2
  end;
  (* Observability: the event sink feeds --trace-out, the aggregated
     metrics feed --metrics / --metrics-out (which snet_top reads).
     With --workers a collector aggregates what the worker processes
     ship back: --metrics-out then carries a cluster snapshot
     (snet_top --cluster) and --trace-out the merged Chrome trace. *)
  if trace_out <> None then Obsv.Sink.enable ();
  if metrics_flag || metrics_out <> None then Obsv.Metrics.enable ();
  (* --rebalance implies a collector: the balancer feeds on the
     cluster health rows, and workers only ship reports when the
     coordinator's Hello asks for observability. *)
  if rebalance then Obsv.Metrics.enable ();
  let collector =
    if
      workers > 0
      && (rebalance || trace_out <> None || metrics_flag
        || metrics_out <> None)
    then Some (Obsv.Agg.create ())
    else None
  in
  let write_snapshot path =
    match collector with
    | Some col ->
        (* Atomic rename, like Export.write_metrics: a watching
           snet_top never reads a torn cluster file. *)
        let tmp = path ^ ".tmp" in
        let oc = open_out tmp in
        output_string oc (Obsv.Agg.cluster_to_json (Obsv.Agg.cluster col));
        close_out oc;
        Sys.rename tmp path
    | None -> Obsv.Export.write_metrics ~path (Obsv.Metrics.snapshot ())
  in
  let stop_metrics_writer =
    match metrics_out with
    | None -> None
    | Some path ->
        let stop = Atomic.make false in
        let period = Float.max 0.05 metrics_every in
        let t =
          Thread.create
            (fun () ->
              while not (Atomic.get stop) do
                write_snapshot path;
                Thread.delay period
              done;
              write_snapshot path)
            ()
        in
        Some (stop, t)
  in
  let pool = Scheduler.Pool.create ~num_domains:domains () in
  let t0 = Unix.gettimeofday () in
  let stats = Snet.Stats.create () in
  let observer =
    if verbose then
      Some (fun ~edge r ->
          Printf.eprintf "-- %s <= %s\n%!" edge (Snet.Record.to_string r))
    else None
  in
  let supervision =
    match (on_error, box_timeout) with
    | None, None -> None
    | policy, timeout -> Some (Snet.Supervise.make ?policy ?timeout ())
  in
  let solutions, errors, label =
    match build_network kind pool det throttle cutoff side shards spin with
    | None ->
        let outcome = Sudoku.Solver.solve ~pool board in
        let sols =
          if outcome.Sudoku.Solver.solved then [ outcome.Sudoku.Solver.board ]
          else []
        in
        (sols, [], "baseline solver")
    | Some net ->
        let inputs =
          match kind with
          | Shard ->
              List.init count (fun i ->
                  Snet.Record.of_list ~fields:[] ~tags:[ ("x", i) ])
          | _ -> [ Sudoku.Boxes.inject_board board ]
        in
        let outputs, label =
          if workers > 0 then begin
            Sudoku.Netspec.register_codecs ();
            let name =
              match kind with
              | Fig1 -> "fig1"
              | Fig2 -> "fig2"
              | Fig3 -> "fig3"
              | Shard -> "shard"
              | Baseline -> assert false
            in
            let spec =
              match kind with
              | Fig3 ->
                  Sudoku.Netspec.spec ~det ~throttle ~cutoff ~side name
              | Shard ->
                  Sudoku.Netspec.spec ?shards
                    ?spin:(if spin = 0 then None else Some spin)
                    name
              | _ -> Sudoku.Netspec.spec ~det name
            in
            (* The plan: hints (from @place/@shards/@weight, or
               --shards on the shard network) go through the elastic
               planner; a hint-free net keeps the legacy contiguous
               cut. Printed with --stats so placement is visible. *)
            let plan =
              if Elastic.Plan.has_hints net then
                match Elastic.Plan.of_net ~workers net with
                | Ok p -> Some p
                | Error e ->
                    prerr_endline ("snet-sudoku: placement: " ^ e);
                    exit 2
              else None
            in
            (match (plan, stats_flag) with
            | Some p, true ->
                print_string (Elastic.Plan.describe p net)
            | None, true ->
                let weights =
                  List.map
                    (fun s -> max 1 (Snet.Net.count_boxes s))
                    (Dist.Engine_dist.segments net)
                in
                print_string
                  (Elastic.Plan.describe
                     (Dist.Plan.contiguous ~parts:workers ~weights)
                     net)
            | _ -> ());
            (* An invalid cap (0, -3 in a wrapper script) fails
               loudly instead of silently running unbatched. *)
            let batch =
              match Dist.Engine_dist.validate_batch dist_batch with
              | Ok b -> b
              | Error e ->
                  prerr_endline ("snet-sudoku: --dist-batch: " ^ e);
                  exit 2
            in
            let balancer = ref None in
            let on_handle =
              if rebalance then
                Some
                  (fun h ->
                    let col = Option.get collector in
                    balancer :=
                      Some
                        (Elastic.Balancer.start ~collector:col ~handle:h
                           ~on_migrate:(fun ~part r ->
                             match r with
                             | Ok dt ->
                                 Printf.eprintf
                                   "rebalance: partition %d migrated in \
                                    %.3fs\n\
                                    %!"
                                   part dt
                             | Error e ->
                                 Printf.eprintf
                                   "rebalance: partition %d not moved: %s\n%!"
                                   part e)
                           ()))
              else None
            in
            let fault =
              Option.map
                (fun (part, k) ->
                  Dist.Fault.[ Crash { part; seam = Record; crossing = k + 1 } ])
                kill_worker
            in
            let outputs =
              try
                Fun.protect
                  ~finally:(fun () ->
                    match !balancer with
                    | Some b ->
                        Elastic.Balancer.stop b;
                        if Elastic.Balancer.migrations b > 0 then
                          Printf.printf "rebalance: %d migration(s)\n"
                            (Elastic.Balancer.migrations b)
                    | None -> ())
                  (fun () ->
                    Dist.Engine_dist.run_spawned
                      ~worker_exe:(find_worker_exe ()) ~spec ~workers ~stats
                      ?supervision ?fault ~batch ?collector
                      ?plan ?on_handle
                      ~worker_args:[ "--domains"; string_of_int domains ]
                      net inputs)
              with Invalid_argument e ->
                (* A fault or plan this run cannot honour, e.g. a
                   --kill-worker partition outside the plan. *)
                prerr_endline ("snet-sudoku: " ^ e);
                exit 2
            in
            (outputs, Printf.sprintf "distributed network (%d workers)" workers)
          end
          else
            let outputs =
              match engine with
              | Seq ->
                  Snet.Engine_seq.run ?observer ~stats ?supervision net inputs
              | Conc ->
                  Snet.Engine_conc.run ~pool ?observer ~stats ?supervision net
                    inputs
            in
            (outputs, "network")
        in
        let errors = List.filter Snet.Supervise.is_error outputs in
        if kind = Shard then begin
          Printf.printf "shard network: %d record(s) in, %d out\n"
            (List.length inputs)
            (List.length outputs - List.length errors);
          ([], errors, label)
        end
        else (Sudoku.Networks.solved_boards outputs, errors, label)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  if kind <> Shard then begin
    Printf.printf "puzzle (%d givens):\n%s\n" (Sudoku.Board.count_filled board)
      (Sudoku.Board.to_string board);
    match solutions with
    | [] -> print_endline "no solution found"
    | first :: rest ->
        Printf.printf "solution:\n%s\n" (Sudoku.Board.to_string first);
        if rest <> [] then
          Printf.printf "(%d further solutions found)\n" (List.length rest)
  end;
  List.iter
    (fun r ->
      Printf.printf "error record: box %s failed: %s\n"
        (Option.value ~default:"?" (Snet.Supervise.error_origin r))
        (Option.value ~default:"?" (Snet.Supervise.error_message r)))
    errors;
  Printf.printf "%s finished in %.4fs\n" label elapsed;
  if stats_flag then
    Format.printf "%a@." Snet.Stats.pp (Snet.Stats.snapshot stats);
  Scheduler.Pool.shutdown pool;
  (match stop_metrics_writer with
  | None -> ()
  | Some (stop, t) ->
      Atomic.set stop true;
      Thread.join t);
  match trace_out with
  | None -> ()
  | Some path -> (
      Obsv.Sink.disable ();
      let events = Obsv.Sink.events () in
      let jsonl =
        String.length path > 6
        && String.sub path (String.length path - 6) 6 = ".jsonl"
      in
      match collector with
      | Some col when not jsonl ->
          (* Merged cluster trace: coordinator events on pid 1, each
             worker's shipped chunk on its own process row, flow
             arrows crossing the cut edges. *)
          let items = Obsv.Agg.merged_trace col ~local_events:events in
          Obsv.Export.write_items ~path items;
          Printf.printf "trace: %d merged cluster items -> %s\n"
            (List.length items) path
      | Some _ | None ->
          if jsonl then Obsv.Export.write_jsonl ~path events
          else Obsv.Export.write_chrome ~path events;
          let d = Obsv.Sink.dropped () in
          Printf.printf "trace: %d events -> %s%s\n" (List.length events) path
            (if d > 0 then
               Printf.sprintf " (%d oldest dropped; raise ring capacity)" d
             else ""))

let network_conv =
  Arg.enum
    [
      ("baseline", Baseline);
      ("fig1", Fig1);
      ("fig2", Fig2);
      ("fig3", Fig3);
      ("shard", Shard);
    ]

let engine_conv = Arg.enum [ ("seq", Seq); ("conc", Conc) ]

let policy_conv =
  let parse s =
    match Snet.Supervise.policy_of_string s with
    | Ok p -> Ok p
    | Error e -> Error (`Msg e)
  in
  let print fmt p =
    Format.pp_print_string fmt (Snet.Supervise.policy_to_string p)
  in
  Arg.conv (parse, print)

let cmd =
  let network =
    Arg.(value & opt network_conv Fig2 & info [ "network"; "n" ] ~doc:"Solver: baseline, fig1, fig2 or fig3.")
  in
  let engine =
    Arg.(value & opt engine_conv Conc & info [ "engine"; "e" ] ~doc:"Engine: seq or conc.")
  in
  let det =
    Arg.(value & flag & info [ "det" ] ~doc:"Use deterministic combinator variants.")
  in
  let throttle =
    Arg.(value & opt int 4 & info [ "throttle" ] ~doc:"Fig. 3 split width.")
  in
  let cutoff =
    Arg.(value & opt int 40 & info [ "cutoff" ] ~doc:"Fig. 3 star exit level.")
  in
  let domains =
    Arg.(value & opt int 1 & info [ "domains"; "d" ] ~doc:"Worker domains.")
  in
  let workers =
    Arg.(
      value & opt int 0
      & info [ "workers"; "w" ]
          ~doc:
            "Distribute the network over $(docv) worker processes \
             (spawns snet_worker, bridges the cut edges over TCP). 0 \
             runs in-process on --engine." ~docv:"N")
  in
  let dist_batch =
    Arg.(
      value
      & opt int Dist.Engine_dist.default_batch
      & info [ "dist-batch" ]
          ~doc:
            "Cut-edge batching cap for --workers: up to $(docv) records \
             per envelope (1 disables batching; larger than 4096 is \
             clamped)." ~docv:"N")
  in
  let kill_worker =
    Arg.(
      value
      & opt (some (pair ~sep:':' int int)) None
      & info [ "kill-worker" ] ~docv:"I:K"
          ~doc:
            "Fault demo for --workers: worker $(i,I) dies abruptly \
             after processing $(i,K) records; combine with --on-error \
             error-record to watch stamped error records come out \
             instead of a hang.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Trace records on stderr.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print unfolding statistics.")
  in
  let on_error =
    Arg.(
      value
      & opt (some policy_conv) None
      & info [ "on-error" ]
          ~doc:
            "Box failure policy for every box: fail (default), \
             error-record, or retry:N.")
  in
  let box_timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "box-timeout" ]
          ~doc:"Per-box-invocation time budget in seconds (post-hoc).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ]
          ~doc:
            "Record timed runtime events and write them to $(docv) on \
             exit: Chrome trace_event JSON (open in Perfetto or \
             chrome://tracing), or raw JSONL when $(docv) ends in \
             .jsonl." ~docv:"FILE")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Aggregate per-box latency histograms and per-edge \
             queue/stall metrics; printed with --stats.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ]
          ~doc:
            "Periodically write a metrics snapshot (JSON) to $(docv) \
             while running; view live with snet_top --watch $(docv)."
          ~docv:"FILE")
  in
  let metrics_every =
    Arg.(
      value & opt float 0.5
      & info [ "metrics-every" ]
          ~doc:"Seconds between --metrics-out snapshots.")
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"K"
          ~doc:
            "For --network shard: attach an @shards placement hint so \
             the replication is sharded across $(docv) partitions in \
             distributed runs (tag-hash routing keeps equal tags on \
             the same replica).")
  in
  let spin =
    Arg.(
      value & opt int 0
      & info [ "spin" ] ~docv:"N"
          ~doc:
            "For --network shard: busy-loop $(docv) iterations per \
             record inside the replicated box.")
  in
  let count =
    Arg.(
      value & opt int 64
      & info [ "count" ] ~docv:"N"
          ~doc:"For --network shard: feed $(docv) input records.")
  in
  let rebalance =
    Arg.(
      value & flag
      & info [ "rebalance" ]
          ~doc:
            "With --workers: watch partition health and migrate \
             congested partitions onto fresh workers while the run is \
             in flight (drain-freeze-respawn; no record lost or \
             duplicated).")
  in
  let puzzle =
    Arg.(value & opt (some string) None & info [ "puzzle"; "p" ] ~doc:"Named corpus puzzle.")
  in
  let file =
    Arg.(value & opt (some string) None & info [ "file"; "f" ] ~doc:"Puzzle file.")
  in
  Cmd.v
    (Cmd.info "snet-sudoku" ~doc:"Hybrid SaC/S-Net sudoku solver")
    Term.(
      const run_solver $ network $ engine $ det $ throttle $ cutoff $ domains
      $ workers $ dist_batch $ kill_worker $ verbose $ stats $ on_error
      $ box_timeout $ trace_out $ metrics $ metrics_out $ metrics_every
      $ shards $ spin $ count $ rebalance $ puzzle $ file)

let () = exit (Cmd.eval cmd)
