(* The mini-SaC front end: values, parsing, interpretation, and the
   paper's own listings executed from source text. *)

module V = Saclang.Svalue
module P = Saclang.Sac_parser
module I = Saclang.Sac_interp
module Nd = Sacarray.Nd

let eval_str src =
  I.eval_expr (I.of_program [ ]) (P.parse_expr_string src)

let check_int_value msg expected v =
  Alcotest.(check int) msg expected (V.to_int v)

let check_value msg expected v =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s = %s" msg (V.to_string expected) (V.to_string v))
    true (V.equal expected v)

(* ---------- values ---------- *)

let test_value_basics () =
  check_int_value "scalar" 42 (V.int 42);
  Alcotest.(check bool) "bool" true (V.to_bool (V.bool true));
  check_value "vector" (V.vector [ 1; 2; 3 ]) (V.vector [ 1; 2; 3 ]);
  Alcotest.(check int) "dim of vector" 1 (V.to_int (V.dim (V.vector [ 1; 2 ])));
  check_value "shape of vector" (V.vector [ 2 ]) (V.shape (V.vector [ 1; 2 ]));
  Alcotest.(check int) "dim of scalar" 0 (V.to_int (V.dim (V.int 5)));
  Alcotest.(check bool) "kind error" true
    (try ignore (V.to_int (V.bool true)); false with V.Sac_error _ -> true)

let test_value_broadcast () =
  check_value "array + scalar" (V.vector [ 11; 12 ])
    (V.apply_binop V.Add (V.vector [ 1; 2 ]) (V.int 10));
  check_value "scalar + array" (V.vector [ 11; 12 ])
    (V.apply_binop V.Add (V.int 10) (V.vector [ 1; 2 ]));
  check_value "elementwise" (V.vector [ 4; 6 ])
    (V.apply_binop V.Add (V.vector [ 1; 2 ]) (V.vector [ 3; 4 ]));
  Alcotest.(check bool) "shape mismatch" true
    (try ignore (V.apply_binop V.Add (V.vector [ 1 ]) (V.vector [ 1; 2 ])); false
     with V.Sac_error _ -> true);
  Alcotest.(check bool) "division by zero" true
    (try ignore (V.apply_binop V.Div (V.int 1) (V.int 0)); false
     with V.Sac_error _ -> true)

let test_value_select_update () =
  let m = V.of_int_nd (Nd.matrix [ [ 1; 2 ]; [ 3; 4 ] ]) in
  check_int_value "full-rank select" 4 (V.select m [| 1; 1 |]);
  check_value "prefix select" (V.vector [ 3; 4 ]) (V.select m [| 1 |]);
  let m' = V.update m [| 0; 1 |] (V.int 9) in
  check_int_value "updated" 9 (V.select m' [| 0; 1 |]);
  check_int_value "original intact" 2 (V.select m [| 0; 1 |])

(* ---------- expressions ---------- *)

let test_expr_arithmetic () =
  check_int_value "precedence" 7 (eval_str "1 + 2 * 3");
  check_int_value "parens" 9 (eval_str "(1 + 2) * 3");
  check_int_value "mod" 3 (eval_str "7 % 4");
  check_int_value "unary minus" (-5) (eval_str "-5");
  Alcotest.(check bool) "comparison chain" true (V.to_bool (eval_str "1 < 2 == true"));
  Alcotest.(check bool) "logic" true (V.to_bool (eval_str "true && !false || false"))

let test_expr_vectors () =
  check_value "literal" (V.vector [ 1; 2; 3 ]) (eval_str "[1, 2, 3]");
  check_value "computed elements" (V.vector [ 3; 4 ]) (eval_str "[1+2, 2*2]");
  check_int_value "selection" 2 (eval_str "[5, 2, 8][1]");
  check_value "element-wise sum" (V.vector [ 4; 6 ]) (eval_str "[1,2] + [3,4]");
  check_value "builtin shape" (V.vector [ 3 ]) (eval_str "shape([7,8,9])");
  check_int_value "builtin min" 2 (eval_str "min(5, 2)");
  check_int_value "builtin sum" 6 (eval_str "sum([1,2,3])")

(* The paper's Section 2 with-loop examples, written as mini-SaC
   source. *)
let test_paper_with_loops () =
  check_value "3x5 of 42"
    (V.of_int_nd (Nd.create [| 3; 5 |] 42))
    (eval_str "with { ([0,0] <= iv < [3,5]) : 42; } : genarray([3,5], 0)");
  check_value "iota"
    (V.vector [ 0; 1; 2; 3; 4 ])
    (eval_str "with { ([0] <= iv < [5]) : iv[0]; } : genarray([5], 0)");
  check_value "partial"
    (V.vector [ 0; 42; 42; 42; 0 ])
    (eval_str "with { ([1] <= iv < [4]) : 42; } : genarray([5], 0)");
  check_value "overlap, later wins"
    (V.vector [ 0; 1; 1; 2; 2; 0 ])
    (eval_str
       "with { ([1] <= iv < [4]) : 1; ([3] <= iv < [5]) : 2; } : genarray([6], 0)");
  check_value "modarray"
    (V.vector [ 3; 3; 3; 2; 2; 0 ])
    (eval_str
       "with { ([0] <= iv < [3]) : 3; } : modarray([0, 1, 1, 2, 2, 0])");
  check_int_value "fold" 10
    (eval_str "with { ([0] <= iv < [5]) : iv[0]; } : fold(+, 0)")

(* The paper's ++ (vector concatenation), Section 2 verbatim modulo
   concrete syntax. *)
let concat_program =
  {|
  int[*] concat(int[*] a, int[*] b)
  {
    rshp = shape(a) + shape(b);
    res = with { ([0] <= iv < shape(a)) : a[iv];
                 (shape(a) <= iv < rshp) : b[iv - shape(a)];
               } : genarray(rshp, 0);
    return (res);
  }
  |}

let test_paper_concat () =
  let prog = I.load concat_program in
  match I.call prog "concat" [ V.vector [ 1; 2 ]; V.vector [ 3; 4; 5 ] ] with
  | [ v ] -> check_value "1,2 ++ 3,4,5" (V.vector [ 1; 2; 3; 4; 5 ]) v
  | _ -> Alcotest.fail "one result expected"

(* ---------- statements, functions, recursion ---------- *)

let test_functions_and_control () =
  let prog =
    I.load
      {|
      int fib(int n)
      {
        if (n <= 1) { return (n); }
        return (fib(n - 1) + fib(n - 2));
      }

      int sum_to(int n)
      {
        total = 0;
        for (i = 1; i <= n; i++) { total = total + i; }
        return (total);
      }

      int collatz_steps(int n)
      {
        steps = 0;
        while (n != 1) {
          if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
          steps = steps + 1;
        }
        return (steps);
      }

      int, int both(int x) { return (x + 1, x * 2); }

      int use_both(int x)
      {
        a, b = both(x);
        return (a + b);
      }
      |}
  in
  let call1 f args =
    match I.call prog f args with
    | [ v ] -> v
    | _ -> Alcotest.fail "one result expected"
  in
  check_int_value "fib 10" 55 (call1 "fib" [ V.int 10 ]);
  check_int_value "for loop" 5050 (call1 "sum_to" [ V.int 100 ]);
  check_int_value "while loop" 111 (call1 "collatz_steps" [ V.int 27 ]);
  check_int_value "multi-result call" 25 (call1 "use_both" [ V.int 8 ])

let test_else_if_chain () =
  let prog =
    I.load
      {|
      int sign(int x)
      {
        r = 0;
        if (x > 0) { r = 1; }
        else if (x < 0) { r = -1; }
        else { r = 0; }
        return (r);
      }
      |}
  in
  let sign x =
    match I.call prog "sign" [ V.int x ] with
    | [ v ] -> V.to_int v
    | _ -> Alcotest.fail "one result"
  in
  Alcotest.(check int) "positive" 1 (sign 7);
  Alcotest.(check int) "negative" (-1) (sign (-7));
  Alcotest.(check int) "zero" 0 (sign 0)

let test_indexed_assignment () =
  let prog =
    I.load
      {|
      int[*] poke(int[*] a, int i, int v)
      {
        a[i] = v;
        return (a);
      }
      |}
  in
  match I.call prog "poke" [ V.vector [ 1; 2; 3 ]; V.int 1; V.int 9 ] with
  | [ v ] -> check_value "functional update" (V.vector [ 1; 9; 3 ]) v
  | _ -> Alcotest.fail "one result expected"

(* The paper's addNumber (Section 3), source-verbatim up to concrete
   syntax, executed on a 9x9 board. *)
let add_number_program =
  {|
  int[*], bool[*] addNumber(int i, int j, int k,
                            int[*] board, bool[*] opts)
  {
    board[i, j] = k;
    k = k - 1;
    is = (i / 3) * 3;
    js = (j / 3) * 3;
    opts = with {
      ([i, j, 0]   <= iv <= [i, j, 8])            : false;
      ([i, 0, k]   <= iv <= [i, 8, k])            : false;
      ([0, j, k]   <= iv <= [8, j, k])            : false;
      ([is, js, k] <= iv <= [is + 2, js + 2, k])  : false;
    } : modarray(opts);
    return (board, opts);
  }
  |}

let test_paper_add_number () =
  let prog = I.load add_number_program in
  let board = V.of_int_nd (Nd.create [| 9; 9 |] 0) in
  let opts = V.of_bool_nd (Nd.create [| 9; 9; 9 |] true) in
  match I.call prog "addNumber" [ V.int 4; V.int 5; V.int 7; board; opts ] with
  | [ board'; opts' ] ->
      check_int_value "placed" 7 (V.select board' [| 4; 5 |]);
      (* Compare against the OCaml-level Rules.add_number. *)
      let ref_board, ref_opts =
        Sudoku.Rules.add_number ~i:4 ~j:5 ~k:7
          (Sudoku.Board.empty 3) (Sudoku.Rules.all_options 9)
      in
      Alcotest.(check bool) "board equals Rules.add_number" true
        (Nd.equal Int.equal (V.to_int_nd board') ref_board);
      Alcotest.(check bool) "opts equals Rules.add_number" true
        (Nd.equal Bool.equal (V.to_bool_nd opts')
           (Sudoku.Board.options_nd ref_opts))
  | _ -> Alcotest.fail "two results expected"

let test_runtime_errors () =
  let prog = I.load "int id(int x) { return (x); }" in
  Alcotest.(check bool) "unknown function" true
    (try ignore (I.call prog "nope" []); false with I.Runtime_error _ -> true);
  Alcotest.(check bool) "arity" true
    (try ignore (I.call prog "id" []); false with I.Runtime_error _ -> true);
  Alcotest.(check bool) "unbound variable" true
    (try ignore (eval_str "x + 1"); false with I.Runtime_error _ -> true);
  Alcotest.(check bool) "snet_out outside a box" true
    (try
       ignore (I.call (I.load "void f() { snet_out(1); }") "f" []);
       false
     with I.Runtime_error _ -> true);
  Alcotest.(check bool) "duplicate function names" true
    (try ignore (I.load "int f() { return (1); } int f() { return (2); }"); false
     with I.Runtime_error _ | Saclang.Sac_check.Type_error _ -> true)

let test_parse_errors () =
  let bad src =
    try ignore (P.parse_program src); false
    with P.Parse_error _ | Saclang.Sac_lexer.Lex_error _ -> true
  in
  Alcotest.(check bool) "missing semicolon" true
    (bad "int f() { x = 1 return (x); }");
  Alcotest.(check bool) "bad generator" true
    (bad "int f() { a = with { (0 = iv < [3]) : 1; } : genarray([3], 0); return (a); }");
  Alcotest.(check bool) "stray character" true (bad "int f() { x = #; }")

(* ---------- pretty-printing roundtrips ---------- *)

let test_pretty_print_roundtrip () =
  let roundtrips src =
    let once = P.parse_program src in
    let again = P.parse_program (Saclang.Sac_pp.print_program once) in
    once = again
  in
  Alcotest.(check bool) "paper sudoku kernel" true
    (roundtrips Saclang.Sac_sudoku.source);
  Alcotest.(check bool) "concat" true (roundtrips concat_program);
  Alcotest.(check bool) "addNumber" true (roundtrips add_number_program);
  Alcotest.(check bool) "control flow" true
    (roundtrips
       {|
       int f(int n)
       {
         t = 0;
         for (i = 0; i < n; i++) {
           if (i % 2 == 0) { t = t + i; }
           else if (i % 3 == 0) { t = t - i; }
           else { t = t * 2; }
         }
         while (t > 100) { t = t / 2; }
         return (t);
       }
       void g(int[*] a) { snet_out(1, a, sum(a)); }
       |})

(* ---------- parallel with-loops inside SaC code ---------- *)

let test_parallel_interpretation () =
  let pool = Scheduler.Pool.create ~num_domains:2 () in
  Fun.protect
    ~finally:(fun () -> Scheduler.Pool.shutdown pool)
    (fun () ->
      let src =
        "int[*] big() { return (with { ([0,0] <= iv < [64,64]) : iv[0] * 64 + iv[1]; } : genarray([64,64], 0)); }"
      in
      let seq = I.call (I.load src) "big" [] in
      let par = I.call (I.load ~pool src) "big" [] in
      match (seq, par) with
      | [ a ], [ b ] -> Alcotest.(check bool) "parallel agrees" true (V.equal a b)
      | _ -> Alcotest.fail "one result each")

(* ---------- the box bridge ---------- *)

let test_sac_box () =
  let prog =
    I.load
      {|
      void splitter(int[*] xs, int threshold)
      {
        small = with { ([0] <= iv < shape(xs)) : min(xs[iv], threshold); }
                : genarray(shape(xs), 0);
        snet_out(1, small, sum(small));
        if (sum(xs) > threshold * 10) { snet_out(2, xs); }
      }
      |}
  in
  let box =
    Saclang.Sac_box.box_of_function prog ~fname:"splitter"
      ~input:[ F "xs"; T "threshold" ]
      ~outputs:[ [ F "small"; T "total" ]; [ F "xs" ] ]
  in
  let record =
    Snet.Record.of_list
      ~fields:[ ("xs", Saclang.Sac_box.field_of_value (V.vector [ 5; 50; 500 ])) ]
      ~tags:[ ("threshold", 10) ]
  in
  (match Snet.Box.execute box record with
  | [ r1; r2 ] ->
      Alcotest.(check (option int)) "sum tag" (Some 25) (Snet.Record.tag "total" r1);
      let small =
        Saclang.Sac_box.value_of_field (Snet.Record.field_exn "small" r1)
      in
      Alcotest.(check bool) "clamped" true (V.equal (V.vector [ 5; 10; 10 ]) small);
      Alcotest.(check bool) "variant 2 passes xs" true (Snet.Record.has_field "xs" r2)
  | _ -> Alcotest.fail "two emissions expected");
  Alcotest.(check bool) "arity mismatch rejected" true
    (try
       ignore
         (Saclang.Sac_box.box_of_function prog ~fname:"splitter" ~input:[ F "xs" ]
            ~outputs:[ [ F "small" ] ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown function rejected" true
    (try
       ignore
         (Saclang.Sac_box.box_of_function prog ~fname:"nope" ~input:[]
            ~outputs:[ [] ]);
       false
     with Invalid_argument _ -> true)

(* End to end: a SaC box running inside an S-Net network, all layers
   from source text. *)
let test_sac_box_in_network () =
  let prog =
    I.load
      {|
      void step(int[*] xs)
      {
        doubled = xs * 2;
        if (sum(doubled) > 100) { snet_out(2, doubled, 1); }
        else { snet_out(1, doubled); }
      }
      |}
  in
  let box =
    Saclang.Sac_box.box_of_function prog ~fname:"step" ~input:[ F "xs" ]
      ~outputs:[ [ F "xs" ]; [ F "xs"; T "done" ] ]
  in
  let net =
    Snet.Net.star (Snet.Net.box box)
      (Snet.Pattern.make ~fields:[] ~tags:[ "done" ] ())
  in
  let out =
    Snet.Engine_seq.run net
      [
        Snet.Record.of_list
          ~fields:[ ("xs", Saclang.Sac_box.field_of_value (V.vector [ 1; 2; 3 ])) ]
          ~tags:[];
      ]
  in
  match out with
  | [ r ] ->
      let xs = Saclang.Sac_box.value_of_field (Snet.Record.field_exn "xs" r) in
      (* 6 -> 12 -> 24 -> 48 -> 96 -> 192: five doublings. *)
      Alcotest.(check bool) "doubled until the guard" true
        (V.equal (V.vector [ 32; 64; 96 ]) xs)
  | _ -> Alcotest.fail "one record expected"

let suite =
  [
    Alcotest.test_case "value basics" `Quick test_value_basics;
    Alcotest.test_case "broadcasting" `Quick test_value_broadcast;
    Alcotest.test_case "select/update" `Quick test_value_select_update;
    Alcotest.test_case "arithmetic" `Quick test_expr_arithmetic;
    Alcotest.test_case "vectors and builtins" `Quick test_expr_vectors;
    Alcotest.test_case "paper's with-loop examples" `Quick test_paper_with_loops;
    Alcotest.test_case "paper's ++ from source" `Quick test_paper_concat;
    Alcotest.test_case "functions, loops, recursion" `Quick test_functions_and_control;
    Alcotest.test_case "else-if chains" `Quick test_else_if_chain;
    Alcotest.test_case "indexed assignment" `Quick test_indexed_assignment;
    Alcotest.test_case "paper's addNumber from source" `Quick test_paper_add_number;
    Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "pretty-print roundtrip" `Quick test_pretty_print_roundtrip;
    Alcotest.test_case "parallel with-loops" `Quick test_parallel_interpretation;
    Alcotest.test_case "SaC function as a box" `Quick test_sac_box;
    Alcotest.test_case "SaC box inside a network" `Quick test_sac_box_in_network;
  ]
