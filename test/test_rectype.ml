(* Record types and structural subtyping (Section 4). *)

module Rectype = Snet.Rectype
module Variant = Snet.Rectype.Variant
module Record = Snet.Record
module Value = Snet.Value

let v ~f ~t = Variant.make ~fields:f ~tags:t

let test_variant_basics () =
  let x = v ~f:[ "a"; "b" ] ~t:[ "k" ] in
  Alcotest.(check (list string)) "fields sorted" [ "a"; "b" ] (Variant.fields x);
  Alcotest.(check (list string)) "tags" [ "k" ] (Variant.tags x);
  Alcotest.(check int) "arity" 3 (Variant.arity x);
  Alcotest.(check string) "to_string" "{a,b,<k>}" (Variant.to_string x);
  Alcotest.(check bool) "equal" true (Variant.equal x (v ~f:[ "b"; "a" ] ~t:[ "k" ]))

(* t1 <= t2 iff t2 ⊆ t1: more labels is more specific. *)
let test_subtyping () =
  let wide = v ~f:[ "a"; "b" ] ~t:[ "k" ] in
  let narrow = v ~f:[ "a" ] ~t:[] in
  Alcotest.(check bool) "wide <= narrow" true (Variant.subtype wide narrow);
  Alcotest.(check bool) "narrow </= wide" false (Variant.subtype narrow wide);
  Alcotest.(check bool) "reflexive" true (Variant.subtype wide wide);
  (* Field and tag namespaces are distinct. *)
  let tag_a = v ~f:[] ~t:[ "a" ] in
  let field_a = v ~f:[ "a" ] ~t:[] in
  Alcotest.(check bool) "tag a is not field a" false (Variant.subtype tag_a field_a)

let test_union_diff () =
  let a = v ~f:[ "a" ] ~t:[ "k" ] and b = v ~f:[ "b" ] ~t:[ "k" ] in
  Alcotest.(check bool) "union" true
    (Variant.equal (Variant.union a b) (v ~f:[ "a"; "b" ] ~t:[ "k" ]));
  Alcotest.(check bool) "diff" true
    (Variant.equal (Variant.diff (Variant.union a b) b) (v ~f:[ "a" ] ~t:[]))

let record ~f ~t =
  Record.of_list ~fields:(List.map (fun n -> (n, Value.of_int 0)) f)
    ~tags:(List.map (fun n -> (n, 0)) t)

let test_accepts () =
  let input = v ~f:[ "a" ] ~t:[ "b" ] in
  Alcotest.(check bool) "exact" true (Variant.accepts input (record ~f:[ "a" ] ~t:[ "b" ]));
  Alcotest.(check bool) "extra labels ok (subtyping)" true
    (Variant.accepts input (record ~f:[ "a"; "d" ] ~t:[ "b" ]));
  Alcotest.(check bool) "missing tag" false
    (Variant.accepts input (record ~f:[ "a" ] ~t:[]))

let test_match_score () =
  let r = record ~f:[ "a"; "b" ] ~t:[ "k" ] in
  Alcotest.(check (option int)) "more demanding = higher score" (Some 3)
    (Variant.match_score (v ~f:[ "a"; "b" ] ~t:[ "k" ]) r);
  Alcotest.(check (option int)) "less demanding" (Some 1)
    (Variant.match_score (v ~f:[ "a" ] ~t:[]) r);
  Alcotest.(check (option int)) "no match" None
    (Variant.match_score (v ~f:[ "z" ] ~t:[]) r)

let test_multivariant () =
  let x = [ v ~f:[ "a"; "b" ] ~t:[]; v ~f:[ "a" ] ~t:[ "k" ] ] in
  let y = [ v ~f:[ "a" ] ~t:[] ] in
  Alcotest.(check bool) "every variant has a supertype" true (Rectype.subtype x y);
  Alcotest.(check bool) "converse fails" false (Rectype.subtype y x);
  let r = record ~f:[ "a" ] ~t:[ "k" ] in
  Alcotest.(check bool) "accepts via second variant" true (Rectype.accepts x r);
  Alcotest.(check (option int)) "best score" (Some 2) (Rectype.match_score x r)

let test_normalise_union () =
  let dup = [ v ~f:[ "a" ] ~t:[]; v ~f:[ "a" ] ~t:[] ] in
  Alcotest.(check int) "dedup" 1 (List.length (Rectype.normalise dup));
  let u = Rectype.union [ v ~f:[ "a" ] ~t:[] ] [ v ~f:[ "b" ] ~t:[] ] in
  Alcotest.(check int) "union size" 2 (List.length u);
  Alcotest.(check string) "to_string" "{a} | {b}" (Rectype.to_string u)

let test_signature_string () =
  let sg =
    {
      Rectype.input = [ v ~f:[ "a" ] ~t:[ "b" ] ];
      output = [ v ~f:[ "c" ] ~t:[]; v ~f:[ "c"; "d" ] ~t:[ "e" ] ];
    }
  in
  Alcotest.(check string) "paper's box foo signature"
    "{a,<b>} -> {c} | {c,d,<e>}"
    (Rectype.signature_to_string sg)

(* qcheck: subtyping is a preorder. Drawing from the generator's own
   state (not the global [Random]) keeps the property reproducible
   from the printed seed. *)
let variant_gen st =
  let subset = List.filter (fun _ -> Random.State.bool st) in
  v ~f:(subset [ "a"; "b"; "c"; "d" ]) ~t:(subset [ "k"; "l" ])

let prop_subtype_reflexive =
  QCheck.Test.make ~name:"subtype is reflexive" ~count:100
    (QCheck.make variant_gen)
    (fun x -> Variant.subtype x x)

let prop_subtype_transitive =
  QCheck.Test.make ~name:"subtype is transitive" ~count:300
    (QCheck.make QCheck.Gen.(triple variant_gen variant_gen variant_gen))
    (fun (x, y, z) ->
      (not (Variant.subtype x y && Variant.subtype y z)) || Variant.subtype x z)

let prop_union_upper_bound =
  QCheck.Test.make ~name:"x union y is a subtype of both" ~count:100
    (QCheck.make QCheck.Gen.(pair variant_gen variant_gen))
    (fun (x, y) ->
      let u = Variant.union x y in
      Variant.subtype u x && Variant.subtype u y)

(* [accepts] probes the record label by label instead of building its
   variant; it must agree with the definition it replaces. *)
let prop_accepts_is_subtype =
  QCheck.Test.make ~name:"accepts v r = subtype (of_record r) v" ~count:300
    (QCheck.make QCheck.Gen.(pair variant_gen variant_gen))
    (fun (x, y) ->
      let r = record ~f:(Variant.fields y) ~t:(Variant.tags y) in
      Variant.accepts x r = Variant.subtype (Variant.of_record r) x)

let suite =
  [
    Alcotest.test_case "variant basics" `Quick test_variant_basics;
    Alcotest.test_case "subtyping" `Quick test_subtyping;
    Alcotest.test_case "union/diff" `Quick test_union_diff;
    Alcotest.test_case "accepts" `Quick test_accepts;
    Alcotest.test_case "match score" `Quick test_match_score;
    Alcotest.test_case "multivariant subtyping" `Quick test_multivariant;
    Alcotest.test_case "normalise/union" `Quick test_normalise_union;
    Alcotest.test_case "signature rendering" `Quick test_signature_string;
    Seeded.to_alcotest prop_subtype_reflexive;
    Seeded.to_alcotest prop_subtype_transitive;
    Seeded.to_alcotest prop_union_upper_bound;
    Seeded.to_alcotest prop_accepts_is_subtype;
  ]
