(* dataparallel: Section 3's claim that addNumber/findMinTrues
   parallelise for free — with-loop kernels across board sizes and
   domain counts. Its rows go into BENCH_kernels.json beside
   baseline's. *)

open Bechamel
open Bench_core

let run () =
  let r = report "kernels" in
  let pools =
    ("seq", None)
    :: List.map
         (fun d ->
           ( Printf.sprintf "%dd" d,
             Some (Scheduler.Pool.create ~num_domains:d ()) ))
         (if smoke then [ 2 ] else [ 1; 2; 4 ])
  in
  let per_pool title ?quota name f =
    bench ~into:r title ?quota
      (List.map
         (fun (pname, pool) ->
           Test.make ~name:(name ^ "/" ^ pname)
             (Staged.stage (fun () -> f pool)))
         pools)
  in
  List.iter
    (fun n ->
      let board = Sudoku.Generate.puzzle ~seed:11 ~n ~holes:(8 * n * n) () in
      per_pool
        (Printf.sprintf "computeOpts (init_options), n=%d" n)
        ~quota:1.0
        (Printf.sprintf "initOptions/n=%d" n)
        (fun pool -> Sudoku.Rules.init_options ?pool board))
    (if smoke then [ 3 ] else [ 3; 4; 5 ]);
  let board = Sudoku.Board.empty 5 and opts = Sudoku.Rules.all_options 25 in
  per_pool "single addNumber on a 25x25 board" "addNumber/n=5" (fun pool ->
      Sudoku.Rules.add_number ?pool ~i:12 ~j:12 ~k:7 board opts);
  let side = if smoke then 64 else 512 in
  per_pool
    (Printf.sprintf "raw with-loop genarray %dx%d" side side)
    ~quota:1.0
    (Printf.sprintf "genarray/%dx%d" side side)
    (fun pool ->
      Sacarray.With_loop.genarray_init ?pool ~shape:[| side; side |] (fun iv ->
          iv.(0) * iv.(1) land 1023));
  let n, label = if smoke then (10_000, "10k") else (1_000_000, "1M") in
  per_pool
    ("raw fold with-loop over " ^ label ^ " elements")
    ~quota:1.0 ("fold/" ^ label)
    (fun pool ->
      Sacarray.With_loop.fold ?pool ~neutral:0 ~combine:( + )
        [
          (Sacarray.With_loop.range [| 0 |] [| n |], fun iv -> iv.(0) land 7);
        ]);
  List.iter (fun (_, p) -> Option.iter Scheduler.Pool.shutdown p) pools;
  finish r
