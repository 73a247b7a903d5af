(* scheduler: the data-parallel substrate itself — the work-stealing
   pool's range operations across domain counts, with-loop unit-step
   vs strided generators, task round-trips, the pool's counters and
   its task latency. Writes BENCH_scheduler.json. *)

open Bechamel
open Bench_core

(* Per-index bodies on the range API, with the element loop the
   removed per-index wrappers ran, so the pfor/reduce rows stay
   comparable with their earlier measurements. *)
let each_index body ~lo ~hi =
  for i = lo to hi - 1 do
    body i
  done

let fold_indices ~combine ~init body ~lo ~hi =
  let acc = ref init in
  for i = lo to hi - 1 do
    acc := combine !acc (body i)
  done;
  !acc

let run () =
  let r = report "scheduler" in
  (* The tentpole kernel: a 10^6-element with-loop-shaped range loop. *)
  let n = if smoke then 100_000 else 1_000_000 in
  let side = if smoke then 320 else 1000 in
  let domain_counts = if smoke then [ 0; 2 ] else [ 0; 1; 2; 4 ] in
  let pools =
    List.map (fun d -> (d, Scheduler.Pool.create ~num_domains:d ()))
      domain_counts
  in
  let per_pool title tests =
    bench ~into:r title ~quota:1.0 (List.concat_map tests pools)
  in
  let out = Array.make n 0 in
  let body i = out.(i) <- (i * 31) land 1023 in
  per_pool
    (Printf.sprintf "parallel_for_range over %d indices (with-loop body)" n)
    (fun (d, wp) ->
      [
        Test.make ~name:(Printf.sprintf "pfor/%de/steal/domains=%d" n d)
          (Staged.stage (fun () ->
               Scheduler.Pool.parallel_for_range wp ~lo:0 ~hi:n
                 (each_index body)));
      ]);
  per_pool
    (Printf.sprintf "parallel_for_reduce_range over %d indices" n)
    (fun (d, wp) ->
      [
        Test.make ~name:(Printf.sprintf "reduce/%de/steal/domains=%d" n d)
          (Staged.stage (fun () ->
               Scheduler.Pool.parallel_for_reduce_range wp ~lo:0 ~hi:n
                 ~combine:( + ) ~init:0
                 (fold_indices ~combine:( + ) ~init:0 (fun i -> i land 7))));
      ]);
  (* With-loop unit-step vs step-2 generator over the same number of
     points; both run on the one stride odometer. *)
  let wl_body iv = (iv.(0) * 31) + iv.(1) land 1023 in
  per_pool
    (Printf.sprintf "with-loop genarray %dx%d: unit-step vs strided" side side)
    (fun (d, wp) ->
      [
        Test.make ~name:(Printf.sprintf "wl/dense/domains=%d" d)
          (Staged.stage (fun () ->
               Sacarray.With_loop.genarray_init ~pool:wp ~shape:[| side; side |]
                 wl_body));
        Test.make ~name:(Printf.sprintf "wl/strided/domains=%d" d)
          (Staged.stage (fun () ->
               Sacarray.With_loop.genarray ~pool:wp ~shape:[| side; 2 * side |]
                 ~default:0
                 [
                   ( Sacarray.With_loop.range ~step:[| 1; 2 |] [| 0; 0 |]
                       [| side; 2 * side |],
                     wl_body );
                 ]));
      ]);
  (* Task submission/latency: one run() round trip. *)
  per_pool "task round-trip (run of a trivial thunk)" (fun (d, wp) ->
      [
        Test.make ~name:(Printf.sprintf "run/steal/domains=%d" d)
          (Staged.stage (fun () -> Scheduler.Pool.run wp (fun () -> 0)));
      ]);
  (* The counters the max-domain pool gathered over the runs above,
     then its task latency over one metrics-instrumented range loop. *)
  let obs_pool = List.assoc (List.fold_left max 0 domain_counts) pools in
  let s = Scheduler.Pool.stats obs_pool in
  int r "pool_counters.tasks" s.Scheduler.Pool.tasks;
  int r "pool_counters.steals" s.Scheduler.Pool.steals;
  int r "pool_counters.parks" s.Scheduler.Pool.parks;
  int r "pool_counters.splits" s.Scheduler.Pool.splits;
  let (), lat =
    spans_of ~cat:"pool" (fun () ->
        Scheduler.Pool.parallel_for_range obs_pool ~lo:0 ~hi:n
          (each_index body))
  in
  spans r "task_latency_ns" lat;
  List.iter (fun (_, p) -> Scheduler.Pool.shutdown p) pools;
  finish r
