(* Shapes and index vectors. *)

module Shape = Sacarray.Shape

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_rank_size () =
  check_int "rank scalar" 0 (Shape.rank Shape.scalar);
  check_int "size scalar" 1 (Shape.size Shape.scalar);
  check_int "rank [3,5]" 2 (Shape.rank [| 3; 5 |]);
  check_int "size [3,5]" 15 (Shape.size [| 3; 5 |]);
  check_int "size [3,0,5]" 0 (Shape.size [| 3; 0; 5 |])

let test_validate () =
  Shape.validate [| 3; 5 |];
  Shape.validate [||];
  Alcotest.check_raises "negative extent"
    (Invalid_argument "Shape: negative extent") (fun () ->
      Shape.validate [| 3; -1 |])

let test_ravel_examples () =
  check_int "ravel [0,0]" 0 (Shape.ravel [| 3; 5 |] [| 0; 0 |]);
  check_int "ravel [0,4]" 4 (Shape.ravel [| 3; 5 |] [| 0; 4 |]);
  check_int "ravel [1,0]" 5 (Shape.ravel [| 3; 5 |] [| 1; 0 |]);
  check_int "ravel [2,4]" 14 (Shape.ravel [| 3; 5 |] [| 2; 4 |]);
  check_int "ravel scalar" 0 (Shape.ravel [||] [||])

let test_ravel_bounds () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "rank mismatch" true (bad (fun () -> Shape.ravel [| 3 |] [| 1; 2 |]));
  check_bool "negative index" true (bad (fun () -> Shape.ravel [| 3 |] [| -1 |]));
  check_bool "too large" true (bad (fun () -> Shape.ravel [| 3 |] [| 3 |]))

let test_unravel_roundtrip () =
  let shp = [| 2; 3; 4 |] in
  for off = 0 to Shape.size shp - 1 do
    check_int "roundtrip" off (Shape.ravel shp (Shape.unravel shp off))
  done;
  Alcotest.(check (array int)) "last offset" [| 1; 2; 3 |] (Shape.unravel shp 23)

let test_unravel_into () =
  let buf = Array.make 3 0 in
  Shape.unravel_into [| 2; 3; 4 |] 23 buf;
  Alcotest.(check (array int)) "unravel_into" [| 1; 2; 3 |] buf

let test_iter_order () =
  let seen = ref [] in
  Shape.iter [| 2; 2 |] (fun iv -> seen := Array.to_list iv :: !seen);
  Alcotest.(check (list (list int)))
    "row-major"
    [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ]
    (List.rev !seen)

let test_mem () =
  check_bool "inside" true (Shape.mem [| 3; 5 |] [| 2; 4 |]);
  check_bool "outside" false (Shape.mem [| 3; 5 |] [| 3; 0 |]);
  check_bool "wrong rank" false (Shape.mem [| 3; 5 |] [| 1 |]);
  check_bool "scalar" true (Shape.mem [||] [||])

let test_concat_take_drop () =
  Alcotest.(check (array int)) "concat" [| 3; 4; 5 |] (Shape.concat [| 3 |] [| 4; 5 |]);
  Alcotest.(check (array int)) "take" [| 3 |] (Shape.take 1 [| 3; 4; 5 |]);
  Alcotest.(check (array int)) "drop" [| 4; 5 |] (Shape.drop 1 [| 3; 4; 5 |])

let test_vector_ops () =
  Alcotest.(check (array int)) "add" [| 4; 6 |] (Shape.add [| 1; 2 |] [| 3; 4 |]);
  Alcotest.(check (array int)) "sub" [| 2; 2 |] (Shape.sub [| 3; 4 |] [| 1; 2 |]);
  check_bool "le true" true (Shape.le [| 1; 2 |] [| 1; 3 |]);
  check_bool "le false" false (Shape.le [| 2; 2 |] [| 1; 3 |]);
  check_bool "lt" true (Shape.lt [| 0; 0 |] [| 1; 1 |]);
  check_bool "lt eq" false (Shape.lt [| 1; 0 |] [| 1; 1 |])

let test_to_string () =
  Alcotest.(check string) "matrix" "[3,5]" (Shape.to_string [| 3; 5 |]);
  Alcotest.(check string) "scalar" "[]" (Shape.to_string [||])

(* qcheck: ravel/unravel are inverse bijections over random shapes. *)
let shape_gen =
  QCheck.Gen.(
    list_size (int_range 0 4) (int_range 1 5) >|= Array.of_list)

let prop_ravel_unravel =
  QCheck.Test.make ~name:"ravel . unravel = id" ~count:200
    (QCheck.make
       QCheck.Gen.(
         shape_gen >>= fun shp ->
         let n = Sacarray.Shape.size shp in
         int_range 0 (max 0 (n - 1)) >|= fun off -> (shp, off)))
    (fun (shp, off) ->
      Shape.size shp = 0 || Shape.ravel shp (Shape.unravel shp off) = off)

let prop_unravel_mem =
  QCheck.Test.make ~name:"unravel lands inside the shape" ~count:200
    (QCheck.make
       QCheck.Gen.(
         shape_gen >>= fun shp ->
         let n = Sacarray.Shape.size shp in
         int_range 0 (max 0 (n - 1)) >|= fun off -> (shp, off)))
    (fun (shp, off) -> Shape.size shp = 0 || Shape.mem shp (Shape.unravel shp off))

let suite =
  [
    Alcotest.test_case "rank and size" `Quick test_rank_size;
    Alcotest.test_case "validate" `Quick test_validate;
    Alcotest.test_case "ravel examples" `Quick test_ravel_examples;
    Alcotest.test_case "ravel bounds" `Quick test_ravel_bounds;
    Alcotest.test_case "unravel roundtrip" `Quick test_unravel_roundtrip;
    Alcotest.test_case "unravel_into" `Quick test_unravel_into;
    Alcotest.test_case "iter order" `Quick test_iter_order;
    Alcotest.test_case "mem" `Quick test_mem;
    Alcotest.test_case "concat/take/drop" `Quick test_concat_take_drop;
    Alcotest.test_case "vector ops" `Quick test_vector_ops;
    Alcotest.test_case "to_string" `Quick test_to_string;
    Seeded.to_alcotest prop_ravel_unravel;
    Seeded.to_alcotest prop_unravel_mem;
  ]
