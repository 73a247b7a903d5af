(* Domain pool, futures, work-stealing deque. *)

module Pool = Scheduler.Pool
module Future = Scheduler.Future
module CL = Scheduler.Chase_lev

let with_pool n f =
  let pool = Pool.create ~num_domains:n () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* Per-index bodies lifted onto the range API: [each f] runs [f i] for
   every index of a subrange, [fold f] sums [f i] over it. *)
let each f ~lo ~hi =
  for i = lo to hi - 1 do
    f i
  done

let fold f ~lo ~hi =
  let acc = ref 0 in
  for i = lo to hi - 1 do
    acc := !acc + f i
  done;
  !acc

let test_future_fill () =
  let fut = Future.create () in
  Alcotest.(check bool) "unresolved" false (Future.is_resolved fut);
  Future.fill fut 42;
  Alcotest.(check int) "await" 42 (Future.await fut);
  Alcotest.(check bool) "resolved" true (Future.is_resolved fut);
  Alcotest.(check bool) "double fill rejected" true
    (try Future.fill fut 1; false with Invalid_argument _ -> true)

exception Boom

let test_future_error () =
  let fut = Future.create () in
  Future.run fut (fun () -> raise Boom);
  Alcotest.(check bool) "await re-raises" true
    (try ignore (Future.await fut); false with Boom -> true);
  match Future.peek fut with
  | Some (Error Boom) -> ()
  | _ -> Alcotest.fail "peek should expose the error"

let test_pool_run () =
  with_pool 2 (fun pool ->
      Alcotest.(check int) "run" 7 (Pool.run pool (fun () -> 3 + 4));
      Alcotest.(check int) "workers" 2 (Pool.num_workers pool);
      Alcotest.(check int) "parallelism" 3 (Pool.parallelism pool);
      let fut = Pool.async pool (fun () -> String.length "hello") in
      Alcotest.(check int) "async" 5 (Future.await fut))

let test_pool_zero_workers () =
  with_pool 0 (fun pool ->
      Alcotest.(check int) "run sequentially" 10
        (Pool.run pool (fun () -> 10));
      let total = ref 0 in
      Pool.parallel_for_range pool ~lo:0 ~hi:100
        (each (fun i -> total := !total + i));
      Alcotest.(check int) "parallel_for_range" 4950 !total)

let test_parallel_for () =
  with_pool 3 (fun pool ->
      let hits = Array.make 1000 0 in
      Pool.parallel_for_range pool ~lo:0 ~hi:1000
        (each (fun i -> hits.(i) <- hits.(i) + 1));
      Alcotest.(check bool) "each index exactly once" true
        (Array.for_all (fun h -> h = 1) hits);
      (* Empty and single-element ranges. *)
      Pool.parallel_for_range pool ~lo:5 ~hi:5 (fun ~lo:_ ~hi:_ ->
          Alcotest.fail "no indices");
      let one = ref 0 in
      Pool.parallel_for_range pool ~lo:7 ~hi:8 (each (fun i -> one := i));
      Alcotest.(check int) "singleton" 7 !one)

let test_parallel_for_reduce () =
  with_pool 3 (fun pool ->
      let sum =
        Pool.parallel_for_reduce_range pool ~lo:1 ~hi:1001 ~combine:( + )
          ~init:0 (fold Fun.id)
      in
      Alcotest.(check int) "sum 1..1000" 500500 sum;
      let s2 =
        Pool.parallel_for_reduce_range pool ~grain:7 ~lo:0 ~hi:100
          ~combine:( + ) ~init:0
          (fold (fun i -> i * i))
      in
      Alcotest.(check int) "chunked" 328350 s2)

let test_parallel_for_exception () =
  with_pool 2 (fun pool ->
      Alcotest.(check bool) "body exception propagates" true
        (try
           Pool.parallel_for_range pool ~lo:0 ~hi:100
             (each (fun i -> if i = 50 then raise Boom));
           false
         with Boom -> true))

let test_nested_run () =
  with_pool 2 (fun pool ->
      (* A task that itself submits work must not deadlock the pool. *)
      let v =
        Pool.run pool (fun () ->
            let inner = Pool.run pool (fun () -> 21) in
            2 * inner)
      in
      Alcotest.(check int) "nested" 42 v)

let test_shutdown () =
  let pool = Pool.create ~num_domains:1 () in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.(check bool) "submit after shutdown" true
    (try ignore (Pool.async pool (fun () -> ())); false
     with Invalid_argument _ -> true)

let test_chase_lev_lifo_fifo () =
  let q = CL.create () in
  CL.push q 1;
  CL.push q 2;
  CL.push q 3;
  Alcotest.(check int) "size" 3 (CL.size q);
  Alcotest.(check (option int)) "owner pops LIFO" (Some 3) (CL.pop q);
  Alcotest.(check (option int)) "thief steals FIFO" (Some 1) (CL.steal q);
  Alcotest.(check (option int)) "pop" (Some 2) (CL.pop q);
  Alcotest.(check (option int)) "empty pop" None (CL.pop q);
  Alcotest.(check (option int)) "empty steal" None (CL.steal q);
  Alcotest.(check bool) "is_empty" true (CL.is_empty q)

let test_chase_lev_growth () =
  let q = CL.create ~capacity:2 () in
  for i = 0 to 199 do
    CL.push q i
  done;
  Alcotest.(check int) "grew" 200 (CL.size q);
  let seen = ref [] in
  let rec drain () =
    match CL.pop q with
    | Some v ->
        seen := v :: !seen;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "drained in order" (List.init 200 Fun.id) !seen

let test_chase_lev_concurrent () =
  let q = CL.create () in
  let n = 10_000 in
  let stolen = Atomic.make 0 and stop = Atomic.make false in
  let thief =
    Domain.spawn (fun () ->
        let rec go () =
          match CL.steal q with
          | Some _ ->
              Atomic.incr stolen;
              go ()
          | None ->
              if not (Atomic.get stop) then begin
                Domain.cpu_relax ();
                go ()
              end
        in
        go ())
  in
  let popped = ref 0 in
  for i = 0 to n - 1 do
    CL.push q i;
    if i mod 3 = 0 then (match CL.pop q with Some _ -> incr popped | None -> ())
  done;
  let rec drain () =
    match CL.pop q with
    | Some _ ->
        incr popped;
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  Domain.join thief;
  Alcotest.(check int) "no element lost or duplicated" n
    (!popped + Atomic.get stolen)

let test_chase_lev_capacity () =
  (* Tiny initial capacities are honoured (rounded up to a power of
     two) and grow transparently. *)
  List.iter
    (fun cap ->
      let q = CL.create ~capacity:cap () in
      for i = 0 to 99 do
        CL.push q i
      done;
      let rec drain acc =
        match CL.pop q with Some v -> drain (v :: acc) | None -> acc
      in
      Alcotest.(check (list int))
        (Printf.sprintf "capacity %d grows and keeps order" cap)
        (List.init 100 Fun.id) (drain []))
    [ 1; 2; 3; 5; 64 ];
  Alcotest.(check bool) "capacity 0 rejected" true
    (try ignore (CL.create ~capacity:0 ()); false
     with Invalid_argument _ -> true)

(* Concurrent stealers against an owner interleaving push/pop: every
   element ends up with exactly one party. *)
let prop_chase_lev_partition =
  QCheck.Test.make ~name:"chase-lev: push/pop/steal partition elements"
    ~count:10
    (QCheck.make QCheck.Gen.(pair (int_range 50 1500) (int_range 1 3)))
    (fun (n, thieves) ->
      let q = CL.create ~capacity:2 () in
      let stop = Atomic.make false in
      let stolen = Array.make thieves [] in
      let doms =
        List.init thieves (fun ti ->
            Domain.spawn (fun () ->
                let acc = ref [] in
                let rec go () =
                  match CL.steal q with
                  | Some v ->
                      acc := v :: !acc;
                      go ()
                  | None ->
                      if not (Atomic.get stop) then begin
                        Domain.cpu_relax ();
                        go ()
                      end
                in
                go ();
                stolen.(ti) <- !acc))
      in
      let popped = ref [] in
      for i = 0 to n - 1 do
        CL.push q i;
        if i land 3 = 0 then
          match CL.pop q with
          | Some v -> popped := v :: !popped
          | None -> ()
      done;
      let rec drain () =
        match CL.pop q with
        | Some v ->
            popped := v :: !popped;
            drain ()
        | None -> ()
      in
      drain ();
      Atomic.set stop true;
      List.iter Domain.join doms;
      let all = List.concat (!popped :: Array.to_list stolen) in
      List.sort compare all = List.init n Fun.id)

let test_nested_parallel_for () =
  (* parallel_for_range from inside pool tasks: no deadlock, no lost or
     duplicated indices, even with single-index chunks forcing maximal
     task counts. *)
  with_pool 3 (fun pool ->
      let total = Atomic.make 0 in
      Pool.parallel_for_range pool ~grain:1 ~lo:0 ~hi:16
        (each (fun _ ->
             Pool.parallel_for_range pool ~grain:8 ~lo:0 ~hi:500
               (each (fun _ -> Atomic.incr total))));
      Alcotest.(check int) "nested indices all covered" 8000
        (Atomic.get total);
      let v =
        Pool.run pool (fun () ->
            let acc = Atomic.make 0 in
            Pool.parallel_for_range pool ~grain:1 ~lo:0 ~hi:8
              (each (fun i ->
                   ignore
                     (Atomic.fetch_and_add acc (Pool.run pool (fun () -> i)))));
            Atomic.get acc)
      in
      Alcotest.(check int) "run inside parallel_for_range inside run" 28 v)

let test_parallel_for_range () =
  with_pool 2 (fun pool ->
      let hits = Array.make 10_000 0 in
      Pool.parallel_for_range pool ~grain:64 ~lo:0 ~hi:10_000
        (fun ~lo ~hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Alcotest.(check bool) "ranges partition the interval" true
        (Array.for_all (fun h -> h = 1) hits);
      let sum =
        Pool.parallel_for_reduce_range pool ~grain:128 ~lo:0 ~hi:1_000
          ~combine:( + ) ~init:0
          (fun ~lo ~hi ->
            let acc = ref 0 in
            for i = lo to hi - 1 do
              acc := !acc + i
            done;
            !acc)
      in
      Alcotest.(check int) "range reduce" 499500 sum);
  (* With nobody to share with, [grain] does not cap the one call. *)
  with_pool 0 (fun pool ->
      let calls = ref 0 in
      Pool.parallel_for_range pool ~grain:64 ~lo:0 ~hi:10_000
        (fun ~lo ~hi ->
          incr calls;
          Alcotest.(check (pair int int)) "whole range" (0, 10_000) (lo, hi));
      Alcotest.(check int) "one call on a caller-only pool" 1 !calls;
      Alcotest.(check bool) "grain 0 rejected" true
        (try
           Pool.parallel_for_range pool ~grain:0 ~lo:0 ~hi:10
             (fun ~lo:_ ~hi:_ -> ());
           false
         with Invalid_argument _ -> true))

let test_pool_counters () =
  with_pool 2 (fun pool ->
      let s0 = Pool.stats pool in
      Alcotest.(check int) "run" 1 (Pool.run pool (fun () -> 1));
      Pool.parallel_for_range pool ~grain:16 ~lo:0 ~hi:100_000 (each ignore);
      let s1 = Pool.stats pool in
      Alcotest.(check bool) "tasks counted" true (s1.Pool.tasks > s0.Pool.tasks);
      Alcotest.(check bool) "counters monotonic" true
        (s1.Pool.steals >= s0.Pool.steals
        && s1.Pool.parks >= s0.Pool.parks
        && s1.Pool.splits >= s0.Pool.splits))

let prop_parallel_sum_matches =
  QCheck.Test.make ~name:"parallel_for_reduce = List fold" ~count:20
    (QCheck.make QCheck.Gen.(int_range 0 2000))
    (fun n ->
      let pool = Pool.create ~num_domains:2 () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          let expect = n * (n - 1) / 2 in
          Pool.parallel_for_reduce_range pool ~lo:0 ~hi:n ~combine:( + )
            ~init:0 (fold Fun.id)
          = expect))

let suite =
  [
    Alcotest.test_case "future fill/await" `Quick test_future_fill;
    Alcotest.test_case "future error" `Quick test_future_error;
    Alcotest.test_case "pool run/async" `Quick test_pool_run;
    Alcotest.test_case "pool with zero workers" `Quick test_pool_zero_workers;
    Alcotest.test_case "parallel_for covers range once" `Quick test_parallel_for;
    Alcotest.test_case "parallel_for_reduce" `Quick test_parallel_for_reduce;
    Alcotest.test_case "parallel_for exception" `Quick test_parallel_for_exception;
    Alcotest.test_case "nested run" `Quick test_nested_run;
    Alcotest.test_case "shutdown" `Quick test_shutdown;
    Alcotest.test_case "chase-lev LIFO/FIFO" `Quick test_chase_lev_lifo_fifo;
    Alcotest.test_case "chase-lev growth" `Quick test_chase_lev_growth;
    Alcotest.test_case "chase-lev concurrent steals" `Quick test_chase_lev_concurrent;
    Alcotest.test_case "chase-lev capacity rounding" `Quick test_chase_lev_capacity;
    Alcotest.test_case "nested parallel_for" `Quick test_nested_parallel_for;
    Alcotest.test_case "parallel_for_range" `Quick test_parallel_for_range;
    Alcotest.test_case "pool counters" `Quick test_pool_counters;
    Seeded.to_alcotest prop_chase_lev_partition;
    Seeded.to_alcotest prop_parallel_sum_matches;
  ]
