(* With-loops: every worked example from Section 2 of the paper, plus
   parallel/sequential agreement. *)

module Nd = Sacarray.Nd
module WL = Sacarray.With_loop

let int_nd = Alcotest.testable (Nd.pp Format.pp_print_int) (Nd.equal Int.equal)
let check_nd = Alcotest.check int_nd

(* with { ([0,0] <= iv < [3,5]) : 42 } : genarray([3,5], 0) *)
let test_paper_constant_matrix () =
  let a =
    WL.genarray ~shape:[| 3; 5 |] ~default:0
      [ (WL.range [| 0; 0 |] [| 3; 5 |], fun _ -> 42) ]
  in
  check_nd "3x5 of 42" (Nd.create [| 3; 5 |] 42) a

(* with { ([0] <= iv < [5]) : iv[0] } : genarray([5], 0) *)
let test_paper_iota () =
  let a =
    WL.genarray ~shape:[| 5 |] ~default:0
      [ (WL.range [| 0 |] [| 5 |], fun iv -> iv.(0)) ]
  in
  check_nd "iota" (Nd.vector [ 0; 1; 2; 3; 4 ]) a

(* with { ([1] <= iv < [4]) : 42 } : genarray([5], 0) = [0,42,42,42,0] *)
let test_paper_partial () =
  let a =
    WL.genarray ~shape:[| 5 |] ~default:0
      [ (WL.range [| 1 |] [| 4 |], fun _ -> 42) ]
  in
  check_nd "partial" (Nd.vector [ 0; 42; 42; 42; 0 ]) a

(* with { ([1] <= iv < [4]) : 1; ([3] <= iv < [5]) : 2 }
   : genarray([6], 0) = [0,1,1,2,2,0] — later generators win. *)
let test_paper_overlap () =
  let a =
    WL.genarray ~shape:[| 6 |] ~default:0
      [
        (WL.range [| 1 |] [| 4 |], fun _ -> 1);
        (WL.range [| 3 |] [| 5 |], fun _ -> 2);
      ]
  in
  check_nd "overlap" (Nd.vector [ 0; 1; 1; 2; 2; 0 ]) a

(* with { ([0] <= iv < [3]) : 3 } : modarray(A) on A = [0,1,1,2,2,0]
   = [3,3,3,2,2,0]. *)
let test_paper_modarray () =
  let a = Nd.vector [ 0; 1; 1; 2; 2; 0 ] in
  let b = WL.modarray a [ (WL.range [| 0 |] [| 3 |], fun _ -> 3) ] in
  check_nd "modarray" (Nd.vector [ 3; 3; 3; 2; 2; 0 ]) b;
  check_nd "source untouched" (Nd.vector [ 0; 1; 1; 2; 2; 0 ]) a

let test_range_incl () =
  (* The paper's addNumber uses <= on both bounds. *)
  let a =
    WL.genarray ~shape:[| 5 |] ~default:0
      [ (WL.range_incl [| 1 |] [| 3 |], fun _ -> 9) ]
  in
  check_nd "inclusive" (Nd.vector [ 0; 9; 9; 9; 0 ]) a

let test_strided () =
  let g = WL.range ~step:[| 2 |] [| 0 |] [| 7 |] in
  Alcotest.(check int) "size" 4 (WL.generator_size g);
  Alcotest.(check bool) "mem 4" true (WL.generator_mem g [| 4 |]);
  Alcotest.(check bool) "not mem 3" false (WL.generator_mem g [| 3 |]);
  let a = WL.genarray ~shape:[| 7 |] ~default:0 [ (g, fun _ -> 1) ] in
  check_nd "strided" (Nd.vector [ 1; 0; 1; 0; 1; 0; 1 ]) a

let test_generator_iter () =
  let pts = ref [] in
  WL.generator_iter (WL.range [| 1; 1 |] [| 3; 3 |]) (fun iv ->
      pts := Array.to_list iv :: !pts);
  Alcotest.(check (list (list int)))
    "row major points"
    [ [ 1; 1 ]; [ 1; 2 ]; [ 2; 1 ]; [ 2; 2 ] ]
    (List.rev !pts)

let test_empty_generator () =
  let a =
    WL.genarray ~shape:[| 3 |] ~default:5
      [ (WL.range [| 2 |] [| 2 |], fun _ -> 9) ]
  in
  check_nd "no points" (Nd.vector [ 5; 5; 5 ]) a

let test_bounds_check () =
  Alcotest.(check bool) "escaping generator rejected" true
    (try
       ignore
         (WL.genarray ~shape:[| 3 |] ~default:0
            [ (WL.range [| 0 |] [| 4 |], fun _ -> 1) ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "rank mismatch rejected" true
    (try
       ignore
         (WL.genarray ~shape:[| 3; 3 |] ~default:0
            [ (WL.range [| 0 |] [| 2 |], fun _ -> 1) ]);
       false
     with Invalid_argument _ -> true)

let test_fold () =
  let total =
    WL.fold ~neutral:0 ~combine:( + )
      [ (WL.range [| 0 |] [| 101 |], fun iv -> iv.(0)) ]
  in
  Alcotest.(check int) "gauss" 5050 total;
  let n =
    WL.fold ~neutral:0 ~combine:( + )
      [
        (WL.range [| 0 |] [| 5 |], fun _ -> 1);
        (WL.range [| 2 |] [| 5 |], fun _ -> 1);
      ]
  in
  Alcotest.(check int) "multi-part fold sums all parts" 8 n

let test_genarray_init_single_eval () =
  let calls = ref 0 in
  let a =
    WL.genarray_init ~shape:[| 4; 4 |] (fun iv ->
        incr calls;
        iv.(0) + iv.(1))
  in
  Alcotest.(check int) "one call per element" 16 !calls;
  Alcotest.(check int) "value" 6 (Nd.get a [| 3; 3 |])

(* Parallel execution must agree with sequential execution. The range
   is pushed above the engine's parallel cutoff. *)
let test_parallel_agreement () =
  let pool = Scheduler.Pool.create ~num_domains:2 () in
  Fun.protect
    ~finally:(fun () -> Scheduler.Pool.shutdown pool)
    (fun () ->
      let mk ?pool () =
        WL.genarray ?pool ~shape:[| 40; 40 |] ~default:0
          [
            (WL.range [| 0; 0 |] [| 40; 40 |], fun iv -> (iv.(0) * 41) + iv.(1));
            (WL.range [| 5; 5 |] [| 20; 20 |], fun iv -> iv.(0) - iv.(1));
          ]
      in
      check_nd "genarray" (mk ()) (mk ~pool ());
      (* A strided part forces the general (non-dense) executor. *)
      let mk_strided ?pool () =
        WL.genarray ?pool ~shape:[| 40; 40 |] ~default:(-1)
          [
            (WL.range [| 0; 0 |] [| 40; 40 |], fun iv -> iv.(0) + iv.(1));
            (WL.range ~step:[| 3; 2 |] [| 1; 0 |] [| 40; 40 |], fun iv ->
              (iv.(0) * 100) + iv.(1));
          ]
      in
      check_nd "strided genarray" (mk_strided ()) (mk_strided ~pool ());
      let init ?pool () =
        WL.genarray_init ?pool ~shape:[| 30; 30 |] (fun iv ->
            (iv.(0) * 7) - iv.(1))
      in
      check_nd "genarray_init" (init ()) (init ~pool ());
      let fold ?pool () =
        WL.fold ?pool ~neutral:0 ~combine:( + )
          [ (WL.range [| 0 |] [| 5000 |], fun iv -> iv.(0) mod 7) ]
      in
      Alcotest.(check int) "fold" (fold ()) (fold ~pool ()))

let test_rank0 () =
  let a =
    WL.genarray ~shape:[||] ~default:1 [ (WL.range [||] [||], fun _ -> 7) ]
  in
  Alcotest.(check int) "scalar genarray" 7 (Nd.get a [||]);
  let b = WL.genarray_init ~shape:[||] (fun _ -> 9) in
  Alcotest.(check int) "scalar genarray_init" 9 (Nd.get b [||])

let test_genarray_init_large () =
  (* Above the parallel cutoff: the odometer fast path and Nd.init must
     agree element for element, with and without a pool. *)
  let f iv = (iv.(0) * 1009) + (iv.(1) * 31) + iv.(2) in
  let shape = [| 17; 13; 11 |] in
  check_nd "seq" (Nd.init shape f) (WL.genarray_init ~shape f);
  let pool = Scheduler.Pool.create ~num_domains:2 () in
  Fun.protect
    ~finally:(fun () -> Scheduler.Pool.shutdown pool)
    (fun () -> check_nd "par" (Nd.init shape f) (WL.genarray_init ~pool ~shape f))

(* Reference semantics, independent of the executors: visit every
   index of the shape in row-major order and let each generator that
   contains it (generator_mem) overwrite it, later generators winning.
   Fold's reference sums each part's member values the same way. *)
let reference_paint init parts =
  let shape = Nd.shape init in
  let data = Nd.to_flat_array init in
  List.iter
    (fun (g, body) ->
      Sacarray.Shape.iter shape (fun iv ->
          if WL.generator_mem g iv then
            data.(Sacarray.Shape.ravel shape iv) <- body iv))
    parts;
  Nd.of_array shape data

let reference_fold shape parts =
  List.fold_left
    (fun acc (g, body) ->
      let acc = ref acc in
      Sacarray.Shape.iter shape (fun iv ->
          if WL.generator_mem g iv then acc := !acc + body iv);
      !acc)
    0 parts

(* A body whose value depends on the salt and every coordinate. *)
let salted salt iv = Array.fold_left (fun acc i -> (acc * 13) + i) salt iv

(* A random shape from [gen_shape] with 1..3 random sub-box parts, each
   with random (possibly unit) steps; [bounds s] draws a part's
   [lo, hi) along an axis of extent [s]. A third of the parts have a
   last-axis extent of 1, the shape of addNumber's row and column
   generators; some parts are empty. *)
let gen_parts gen_shape bounds =
  QCheck.Gen.(
    gen_shape >>= fun shape ->
    let rank = Array.length shape in
    let gen_part =
      let dim ~flat i =
        bounds shape.(i) >>= fun (lo, hi) ->
        int_range 1 3 >|= fun st -> (lo, (if flat then lo + 1 else hi), st)
      in
      int_range 0 2 >>= fun flat ->
      flatten_l
        (List.init rank (fun i -> dim ~flat:(flat = 0 && i = rank - 1) i))
      >>= fun dims ->
      int_range 0 999 >|= fun salt ->
      let lower = Array.of_list (List.map (fun (l, _, _) -> l) dims) in
      let upper = Array.of_list (List.map (fun (_, h, _) -> h) dims) in
      let step = Array.of_list (List.map (fun (_, _, s) -> s) dims) in
      (WL.range ~step lower upper, salted salt)
    in
    int_range 1 3 >>= fun nparts ->
    list_repeat nparts gen_part >|= fun parts -> (shape, parts))

(* Rank-0..4 shapes of extent 1..6; parts anywhere inside. *)
let gen_shape_parts =
  QCheck.Gen.(
    gen_parts
      (int_range 0 4 >>= fun rank -> array_repeat rank (int_range 1 6))
      (fun s -> int_range 0 (s - 1) >>= fun lo -> int_range lo s >|= fun hi -> (lo, hi)))

(* Rank-2..4 shapes of 512 to 6561 points; parts start within two of
   the low edge and end within two of the high edge, so with steps of
   1..3 their sizes straddle the 512-point parallel cutoff. *)
let gen_shape_parts_large =
  QCheck.Gen.(
    gen_parts
      (int_range 2 4 >>= fun rank ->
       let lo, hi = match rank with 2 -> (24, 64) | 3 -> (8, 16) | _ -> (5, 9) in
       array_repeat rank (int_range lo hi))
      (fun s -> pair (int_range 0 2) (int_range (s - 2) s)))

let forms_agree ?pool (shape, parts) =
  let src = Nd.init shape (fun iv -> Array.fold_left ( - ) 7 iv) in
  Nd.equal Int.equal
    (WL.genarray ?pool ~shape ~default:(-1) parts)
    (reference_paint (Nd.create shape (-1)) parts)
  && Nd.equal Int.equal (WL.modarray ?pool src parts) (reference_paint src parts)
  && WL.fold ?pool ~neutral:0 ~combine:( + ) parts = reference_fold shape parts

let prop_forms_agree =
  QCheck.Test.make ~name:"forms match a per-index reference" ~count:100
    (QCheck.make gen_shape_parts) (fun case -> forms_agree case)

(* The same property on a 2-domain pool, with parts on both sides of
   the parallel cutoff: the pool chunks the larger ones, so chunks
   start mid-run on random strided generators. *)
let prop_forms_agree_pool =
  QCheck.Test.make ~name:"forms match a per-index reference on a pool"
    ~count:40
    (QCheck.make gen_shape_parts_large)
    (fun case ->
      let pool = Scheduler.Pool.create ~num_domains:2 () in
      Fun.protect
        ~finally:(fun () -> Scheduler.Pool.shutdown pool)
        (fun () -> forms_agree ~pool case))

(* Above the 512-point parallel cutoff on a 2-domain pool (the dense
   and strided parts have 1680 and 840 points): the odometer starts
   each chunk mid-grid, with carries into every axis. *)
let test_forms_agree_parallel () =
  let pool = Scheduler.Pool.create ~num_domains:2 () in
  Fun.protect
    ~finally:(fun () -> Scheduler.Pool.shutdown pool)
    (fun () ->
      let shape = [| 5; 6; 7; 8 |] in
      let parts =
        [
          (WL.range [| 0; 0; 0; 0 |] shape, salted 1);
          (WL.range_incl [| 1; 0; 2; 3 |] [| 4; 5; 2; 3 |], salted 2);
          (WL.range ~step:[| 1; 1; 1; 2 |] [| 0; 0; 0; 1 |] shape, salted 3);
        ]
      in
      Alcotest.(check bool) "pool agrees with the reference" true
        (forms_agree ~pool (shape, parts)))

let prop_genarray_matches_init =
  QCheck.Test.make ~name:"genarray with full generator = Nd.init" ~count:50
    (QCheck.make QCheck.Gen.(pair (int_range 1 6) (int_range 1 6)))
    (fun (r, c) ->
      let f iv = (iv.(0) * 31) + iv.(1) in
      let a =
        WL.genarray ~shape:[| r; c |] ~default:(-1)
          [ (WL.range [| 0; 0 |] [| r; c |], f) ]
      in
      Nd.equal Int.equal a (Nd.init [| r; c |] f))

let prop_later_generator_wins =
  QCheck.Test.make ~name:"later generators win on overlap" ~count:100
    (QCheck.make
       QCheck.Gen.(
         int_range 1 10 >>= fun n ->
         int_range 0 (n - 1) >>= fun lo ->
         int_range (lo + 1) n >|= fun hi -> (n, lo, hi)))
    (fun (n, lo, hi) ->
      let a =
        WL.genarray ~shape:[| n |] ~default:0
          [
            (WL.range [| 0 |] [| n |], fun _ -> 1);
            (WL.range [| lo |] [| hi |], fun _ -> 2);
          ]
      in
      let ok = ref true in
      for i = 0 to n - 1 do
        let expect = if i >= lo && i < hi then 2 else 1 in
        if Nd.get a [| i |] <> expect then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "paper: constant matrix" `Quick test_paper_constant_matrix;
    Alcotest.test_case "paper: iota" `Quick test_paper_iota;
    Alcotest.test_case "paper: partial coverage" `Quick test_paper_partial;
    Alcotest.test_case "paper: generator overlap" `Quick test_paper_overlap;
    Alcotest.test_case "paper: modarray" `Quick test_paper_modarray;
    Alcotest.test_case "inclusive ranges" `Quick test_range_incl;
    Alcotest.test_case "strided generators" `Quick test_strided;
    Alcotest.test_case "generator iteration" `Quick test_generator_iter;
    Alcotest.test_case "empty generator" `Quick test_empty_generator;
    Alcotest.test_case "bounds checking" `Quick test_bounds_check;
    Alcotest.test_case "fold" `Quick test_fold;
    Alcotest.test_case "genarray_init evaluates once" `Quick test_genarray_init_single_eval;
    Alcotest.test_case "parallel agreement" `Quick test_parallel_agreement;
    Alcotest.test_case "rank-0 arrays" `Quick test_rank0;
    Alcotest.test_case "genarray_init above cutoff" `Quick test_genarray_init_large;
    Alcotest.test_case "every form above cutoff on a pool" `Quick
      test_forms_agree_parallel;
    Seeded.to_alcotest prop_genarray_matches_init;
    Seeded.to_alcotest prop_later_generator_wins;
    Seeded.to_alcotest prop_forms_agree;
    Seeded.to_alcotest prop_forms_agree_pool;
  ]
