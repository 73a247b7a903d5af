(* elastic: live repartitioning of a skewed sharded net. The shard net
   (route .. (work !! <t>) @shards 2 .. merge) planned by Elastic.Plan,
   with partition 0 — the route segment every record crosses —
   throttled to simulate a hot worker. Run once with nobody watching
   (the skewed baseline) and once with the health-driven balancer
   attached, which must notice the congested partition and migrate it
   onto a fresh, unthrottled worker. Both runs must stay
   multiset-identical to the sequential engine. Bars: at least one
   migration, and per-migration downtime <= 2s (catching freeze/restore
   stalls, not scheduling jitter). Writes BENCH_elastic.json. *)

open Bench_core

let run () =
  let r = report "elastic" in
  let n = if smoke then 400 else 1200 in
  let throttle_us = 4000 in
  let shards = 2 in
  let net () = Sudoku.Networks.shard ~shards () in
  let plan =
    match Elastic.Plan.of_net ~workers:4 (net ()) with
    | Ok p -> p
    | Error e -> failwith ("elastic: planning the shard net failed: " ^ e)
  in
  int r "records" n;
  int r "shards" shards;
  int r "parts" (Dist.Plan.parts plan);
  text r "plan" (Dist.Plan.encode plan);
  int r "throttle_us" throttle_us;
  let inputs =
    List.init n (fun i -> Snet.Record.with_tag "x" i Snet.Record.empty)
  in
  let canonical outs = List.sort compare (List.map Dist.Wire.render outs) in
  let expect = canonical (Snet.Engine_seq.run (net ()) inputs) in
  (* One run of the throttled plan, timed and checked against the
     sequential engine. *)
  let timed label ?collector ?on_handle () =
    let t0 = now () in
    let outs =
      Dist.Engine_dist.run ~workers:(Dist.Plan.parts plan) ~plan
        ~fault:Dist.Fault.[ Stall { part = 0; us = throttle_us } ]
        ?collector ?on_handle (net ()) inputs
    in
    let s = now () -. t0 in
    check r (label ^ "_matches_seq") (canonical outs = expect);
    num r (label ^ "_s") s;
    num r ("records_per_s." ^ label) (float_of_int n /. s);
    s
  in
  (* (a) Skewed baseline: the hot partition stays where it is. *)
  let skewed_s = timed "skewed" () in
  (* (b) Same skew with the balancer watching the health rows. The
     respawned worker is a fresh spawn, so the throttle (first-spawn
     only) does not follow the partition to its new home. *)
  let moves = ref [] in
  let moves_mu = Mutex.create () in
  let collector = Obsv.Agg.create () in
  let policy =
    {
      Elastic.Balancer.default_policy with
      tick = 0.05;
      queue_hi = 4;
      sustain = 2;
      cooldown = 0.5;
      max_migrations = 2;
    }
  in
  let balancer = ref None in
  let rebalanced_s =
    timed "rebalanced" ~collector
      ~on_handle:(fun h ->
        balancer :=
          Some
            (Elastic.Balancer.start ~policy
               ~on_migrate:(fun ~part r ->
                 Mutex.protect moves_mu (fun () ->
                     moves := (part, r) :: !moves))
               ~collector ~handle:h ()))
      ()
  in
  Option.iter Elastic.Balancer.stop !balancer;
  num r "speedup" (skewed_s /. rebalanced_s);
  let moves = List.rev !moves in
  let downtimes =
    List.filter_map (function _, Ok d -> Some d | _ -> None) moves
  in
  put r "migration_attempts"
    ~show:
      (String.concat "; "
         (List.map
            (function
              | part, Ok d ->
                  Printf.sprintf "partition %d moved in %.3fs" part d
              | part, Error e ->
                  Printf.sprintf "partition %d refused: %s" part e)
            moves))
    (Obsv.Jsonx.Num (float_of_int (List.length moves)));
  put r "migration_downtimes_s"
    ~show:(String.concat " " (List.map (Printf.sprintf "%.4g") downtimes))
    (Obsv.Jsonx.List (List.map jnum downtimes));
  bar r "migrations" ~at_least:true
    ~value:(float_of_int (List.length downtimes))
    ~limit:1.;
  bar r "max_downtime_s"
    ~value:(List.fold_left Float.max 0. downtimes)
    ~limit:2.0;
  finish r
