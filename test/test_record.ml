(* Records, values and flow inheritance. *)

module Value = Snet.Value
module Record = Snet.Record

let ikey = Value.Key.create ~to_string:string_of_int "i"
let skey = Value.Key.create ~to_string:Fun.id "s"

let test_value_keys () =
  let v = Value.inject ikey 42 in
  Alcotest.(check (option int)) "project" (Some 42) (Value.project ikey v);
  Alcotest.(check int) "project_exn" 42 (Value.project_exn ikey v);
  Alcotest.(check (option string)) "wrong key" None (Value.project skey v);
  Alcotest.(check bool) "project_exn wrong key" true
    (try ignore (Value.project_exn skey v); false
     with Invalid_argument _ -> true);
  Alcotest.(check string) "key name" "i" (Value.key_name v);
  Alcotest.(check string) "to_string" "42" (Value.to_string v);
  (* Distinct keys with the same name stay distinct. *)
  let ikey2 = Value.Key.create ~to_string:string_of_int "i" in
  Alcotest.(check (option int)) "same-name key" None (Value.project ikey2 v)

let test_value_int () =
  Alcotest.(check (option int)) "of_int/to_int" (Some 5) (Value.to_int (Value.of_int 5))

let test_build_access () =
  let r =
    Record.empty
    |> Record.with_field "a" (Value.of_int 1)
    |> Record.with_tag "k" 3
  in
  Alcotest.(check bool) "has field" true (Record.has_field "a" r);
  Alcotest.(check bool) "has tag" true (Record.has_tag "k" r);
  Alcotest.(check (option int)) "tag" (Some 3) (Record.tag "k" r);
  Alcotest.(check int) "tag_exn" 3 (Record.tag_exn "k" r);
  Alcotest.(check int) "arity" 2 (Record.arity r);
  Alcotest.(check bool) "missing field raises" true
    (try ignore (Record.field_exn "z" r); false
     with Record.Not_found_label _ -> true);
  Alcotest.(check (list string)) "field labels" [ "a" ] (Record.field_labels r);
  Alcotest.(check (list string)) "tag labels" [ "k" ] (Record.tag_labels r)

let test_replace_remove () =
  let r = Record.of_list ~fields:[] ~tags:[ ("k", 1) ] in
  let r2 = Record.with_tag "k" 9 r in
  Alcotest.(check (option int)) "replaced" (Some 9) (Record.tag "k" r2);
  Alcotest.(check (option int)) "original intact" (Some 1) (Record.tag "k" r);
  let r3 = Record.without_tag "k" r2 in
  Alcotest.(check (option int)) "removed" None (Record.tag "k" r3);
  let r4 =
    Record.without_field "a"
      (Record.of_list ~fields:[ ("a", Value.of_int 1) ] ~tags:[])
  in
  Alcotest.(check bool) "field removed" false (Record.has_field "a" r4)

let test_excess () =
  let r =
    Record.of_list
      ~fields:[ ("a", Value.of_int 1); ("d", Value.of_int 4) ]
      ~tags:[ ("b", 2); ("x", 7) ]
  in
  let ex = Record.excess ~consumed_fields:[ "a" ] ~consumed_tags:[ "b" ] r in
  Alcotest.(check (list string)) "excess fields" [ "d" ] (Record.field_labels ex);
  Alcotest.(check (list string)) "excess tags" [ "x" ] (Record.tag_labels ex)

(* The paper's example: box foo consumes {a,<b>}; an incoming {a,<b>,d}
   leaves d to be attached to outputs lacking d and dropped on outputs
   that already have one. *)
let test_flow_inheritance () =
  let d0 = Value.of_int 0 and d9 = Value.of_int 9 in
  let input =
    Record.of_list ~fields:[ ("a", Value.of_int 1); ("d", d0) ] ~tags:[ ("b", 2) ]
  in
  let excess = Record.excess ~consumed_fields:[ "a" ] ~consumed_tags:[ "b" ] input in
  let out1 = Record.of_list ~fields:[ ("c", Value.of_int 3) ] ~tags:[] in
  let inherited = Record.inherit_from ~excess out1 in
  Alcotest.(check bool) "d attached" true (Record.has_field "d" inherited);
  let out2 =
    Record.of_list ~fields:[ ("c", Value.of_int 3); ("d", d9) ] ~tags:[ ("e", 42) ]
  in
  let kept = Record.inherit_from ~excess out2 in
  (* The output's own d wins over the inherited one. *)
  Alcotest.(check (option int)) "own d kept" (Some 9)
    (Option.bind (Record.field "d" kept) Value.to_int)

let test_equal_compare () =
  let v = Value.of_int 1 in
  let a = Record.of_list ~fields:[ ("f", v) ] ~tags:[ ("t", 1) ] in
  let b = Record.of_list ~fields:[ ("f", v) ] ~tags:[ ("t", 1) ] in
  Alcotest.(check bool) "equal" true (Record.equal a b);
  let c = Record.with_tag "t" 2 a in
  Alcotest.(check bool) "tag differs" false (Record.equal a c);
  Alcotest.(check bool) "structure order" true (Record.compare_structure a c < 0)

let test_to_string () =
  let r = Record.of_list ~fields:[ ("a", Value.of_int 7) ] ~tags:[ ("k", 3) ] in
  Alcotest.(check string) "rendering" "{a=7, <k>=3}" (Record.to_string r)

(* ------------------------------------------------------------------ *)
(* Differential: records against a sorted association-list model       *)

(* A record as the model sees it: fields and tags sorted by label. *)
type model = { mf : (string * Value.t) list; mt : (string * int) list }

let labels = [| "a"; "b"; "bid"; "x" |]
let values = Array.init 10 Value.of_int

(* One value per label, so a mapped field keeps its identity and the
   model can compare fields physically, as [Record.equal] does. *)
let mapped_values = Array.map (fun l -> Value.of_int (String.length l * 100)) labels
let mapped_field l _ = mapped_values.(Option.get (Array.find_index (String.equal l) labels))
let mapped_tag l v = v + String.length l

let m_set l v assoc = List.sort (fun (a, _) (b, _) -> String.compare a b) ((l, v) :: List.remove_assoc l assoc)
let m_of_list ~fields ~tags =
  {
    mf = List.fold_left (fun m (l, v) -> m_set l v m) [] fields;
    mt = List.fold_left (fun m (l, v) -> m_set l v m) [] tags;
  }

let m_record m = Record.of_list ~fields:m.mf ~tags:m.mt

type op =
  | Of_list of (string * Value.t) list * (string * int) list
  | With_field of string * Value.t
  | With_tag of string * int
  | Without_field of string
  | Without_tag of string
  | Excess of string list * string list
  | Inherit_from of (string * Value.t) list * (string * int) list
  | Map_values
  | Repeat_label

let op_to_string = function
  | Of_list (f, t) ->
      Printf.sprintf "of_list %s %s"
        (String.concat "," (List.map fst f))
        (String.concat "," (List.map (fun (l, v) -> Printf.sprintf "%s=%d" l v) t))
  | With_field (l, _) -> "with_field " ^ l
  | With_tag (l, v) -> Printf.sprintf "with_tag %s %d" l v
  | Without_field l -> "without_field " ^ l
  | Without_tag l -> "without_tag " ^ l
  | Excess (f, t) -> Printf.sprintf "excess %s / %s" (String.concat "," f) (String.concat "," t)
  | Inherit_from (f, t) ->
      Printf.sprintf "inherit_from %s / %s"
        (String.concat "," (List.map fst f))
        (String.concat "," (List.map fst t))
  | Map_values -> "map_values"
  | Repeat_label -> "repeat_label"

let gen_ops =
  let open QCheck.Gen in
  let label = map (Array.get labels) (int_bound (Array.length labels - 1)) in
  let value = map (Array.get values) (int_bound (Array.length values - 1)) in
  let fields = list_size (int_bound 5) (pair label value) in
  let tags = list_size (int_bound 5) (pair label (int_range (-5) 5)) in
  let op =
    frequency
      [
        (2, map2 (fun f t -> Of_list (f, t)) fields tags);
        (3, map2 (fun l v -> With_field (l, v)) label value);
        (3, map2 (fun l v -> With_tag (l, v)) label (int_range (-5) 5));
        (2, map (fun l -> Without_field l) label);
        (2, map (fun l -> Without_tag l) label);
        (2, map2 (fun f t -> Excess (f, t)) (list_size (int_bound 3) label) (list_size (int_bound 3) label));
        (2, map2 (fun f t -> Inherit_from (f, t)) fields tags);
        (1, return Map_values);
        (1, return Repeat_label);
      ]
  in
  pair (pair fields tags) (list_size (int_range 1 12) op)

(* The last label of a list replaced by its first: as many labels as
   the record has, one of them twice. *)
let repeat_first = function
  | ((l, _) :: _ :: _) as ps ->
      let n = List.length ps in
      List.mapi (fun i (l', v) -> if i = n - 1 then (l, v) else (l', v)) ps
  | ps -> ps

let step (r, m) = function
  | Of_list (fields, tags) -> (Record.of_list ~fields ~tags, m_of_list ~fields ~tags)
  | With_field (l, v) -> (Record.with_field l v r, { m with mf = m_set l v m.mf })
  | With_tag (l, v) -> (Record.with_tag l v r, { m with mt = m_set l v m.mt })
  | Without_field l -> (Record.without_field l r, { m with mf = List.remove_assoc l m.mf })
  | Without_tag l -> (Record.without_tag l r, { m with mt = List.remove_assoc l m.mt })
  | Excess (cf, ct) ->
      ( Record.excess ~consumed_fields:cf ~consumed_tags:ct r,
        {
          mf = List.filter (fun (l, _) -> not (List.mem l cf)) m.mf;
          mt = List.filter (fun (l, _) -> not (List.mem l ct)) m.mt;
        } )
  | Inherit_from (fields, tags) ->
      let em = m_of_list ~fields ~tags in
      let inherit_model own ex =
        List.fold_left
          (fun acc (l, v) -> if List.mem_assoc l acc then acc else m_set l v acc)
          own ex
      in
      ( Record.inherit_from ~excess:(Record.of_list ~fields ~tags) r,
        { mf = inherit_model m.mf em.mf; mt = inherit_model m.mt em.mt } )
  | Repeat_label ->
      let fields = Record.fields r and tags = Record.tags r in
      (* First the record's own labels, so that their shape is
         interned: a repeat must not pass for the missing label. *)
      ignore (Record.of_list ~fields ~tags);
      let fields = repeat_first fields and tags = repeat_first tags in
      (Record.of_list ~fields ~tags, m_of_list ~fields ~tags)
  | Map_values ->
      ( Record.map_values ~tag:mapped_tag ~field:mapped_field r,
        {
          mf = List.map (fun (l, v) -> (l, mapped_field l v)) m.mf;
          mt = List.map (fun (l, v) -> (l, mapped_tag l v)) m.mt;
        } )

let m_to_string m =
  "{"
  ^ String.concat ", "
      (List.map (fun (l, v) -> Printf.sprintf "%s=%s" l (Value.to_string v)) m.mf
      @ List.map (fun (l, v) -> Printf.sprintf "<%s>=%d" l v) m.mt)
  ^ "}"

let m_compare a b = compare (List.map fst a.mf, a.mt) (List.map fst b.mf, b.mt)
let sign c = compare c 0

(* Every observation the model can make of [r]. *)
let agrees r m =
  let fields_ok =
    let fs = Record.fields r in
    List.length fs = List.length m.mf
    && List.for_all2 (fun (l, v) (l', v') -> String.equal l l' && v == v') fs m.mf
  in
  fields_ok
  && Record.tags r = m.mt
  && Record.field_labels r = List.map fst m.mf
  && Record.tag_labels r = List.map fst m.mt
  && Record.arity r = List.length m.mf + List.length m.mt
  && List.for_all
       (fun (l, v) ->
         Record.field_exn l r == v
         && match Record.field l r with Some v' -> v' == v | None -> false)
       m.mf
  && List.for_all (fun (l, v) -> Record.tag l r = Some v) m.mt
  && Array.for_all
       (fun l ->
         Record.has_field l r = List.mem_assoc l m.mf
         && Record.has_tag l r = List.mem_assoc l m.mt)
       labels
  && Record.equal r (m_record m)
  && Record.Shape.equal (Record.shape r) (Record.shape (m_record m))
  && Record.compare_structure r (m_record m) = 0
  && Record.to_string r = m_to_string m

let prop_differential =
  QCheck.Test.make ~name:"record ops agree with a sorted assoc-list model"
    ~count:300
    (QCheck.make
       ~print:(fun (_, ops) -> String.concat "; " (List.map op_to_string ops))
       gen_ops)
    (fun ((fields, tags), ops) ->
      let start = (Record.of_list ~fields ~tags, m_of_list ~fields ~tags) in
      let _, states =
        List.fold_left
          (fun (st, acc) op ->
            let st' = step st op in
            (st', st' :: acc))
          (start, [ start ]) ops
      in
      List.for_all (fun (r, m) -> agrees r m) states
      (* The structural order agrees pairwise too. *)
      && List.for_all
           (fun (r1, m1) ->
             List.for_all
               (fun (r2, m2) ->
                 sign (Record.compare_structure r1 r2) = sign (m_compare m1 m2)
                 && Record.equal r1 r2 = (m_compare m1 m2 = 0 && List.for_all2 (fun (_, a) (_, b) -> a == b) m1.mf m2.mf))
               states)
           states)

(* ------------------------------------------------------------------ *)
(* Box plans against the unplanned path                                *)

module Box = Snet.Box

type emission = int * Box.arg list

(* A random box: an input tuple, one to three output variants, and a
   script of emissions, some of them wrong on purpose (an unknown
   variant, a missing or extra value, a value of the wrong kind). *)
let gen_box_case =
  let open QCheck.Gen in
  let label = map (Array.get labels) (int_bound (Array.length labels - 1)) in
  let blabel = map2 (fun is_field l -> if is_field then Box.F l else Box.T l) bool label in
  let distinct ls =
    List.sort_uniq compare ls
  in
  let tuple = map distinct (list_size (int_bound 3) blabel) in
  tuple >>= fun input ->
  list_size (int_range 1 3) tuple >>= fun outputs ->
  let nvar = List.length outputs in
  let arg_for = function
    | Box.F _ -> map (fun i -> Box.Field values.(i)) (int_bound 9)
    | Box.T _ -> map (fun v -> Box.Tag v) (int_range (-9) 9)
  in
  let emission =
    int_range 1 nvar >>= fun v ->
    let ls = List.nth outputs (v - 1) in
    flatten_l (List.map arg_for ls) >>= fun args ->
    frequency
      [
        (8, return (v, args));
        (1, return ((if v land 1 = 0 then 0 else nvar + 1), args));
        (1, return (v, Box.Tag 0 :: args));
        (1, return (v, match args with [] -> [ Box.Tag 1 ] | _ :: rest -> rest));
        ( 1,
          return
            ( v,
              List.map (function Box.Tag _ -> Box.Field values.(0) | Box.Field _ -> Box.Tag 0) args ) );
      ]
  in
  list_size (int_bound 3) emission >>= fun script ->
  list_size (int_bound 4) (pair label (map (Array.get values) (int_bound 9))) >>= fun extra_f ->
  list_size (int_bound 4) (pair label (int_range (-9) 9)) >>= fun extra_t ->
  bool >>= fun complete ->
  return (input, outputs, (script : emission list), extra_f, extra_t, complete)

let box_of (input, outputs, script, _, _, _) =
  Box.make ~name:"qc" ~input ~outputs (fun ~emit _ ->
      List.iter (fun (v, args) -> emit v args) script)

(* The input: random extra labels, plus (when [complete]) every label
   the box consumes. *)
let input_of (input, _, _, extra_f, extra_t, complete) =
  let own =
    if complete then
      List.map (function Box.F l -> `F (l, values.(7)) | Box.T l -> `T (l, 7)) input
    else []
  in
  Record.of_list
    ~fields:(extra_f @ List.filter_map (function `F p -> Some p | `T _ -> None) own)
    ~tags:(extra_t @ List.filter_map (function `T p -> Some p | `F _ -> None) own)

let outcome b r =
  match Box.execute b r with
  | outs -> Ok outs
  | exception Invalid_argument m -> Error m

let same_outcome a b =
  match (a, b) with
  | Ok xs, Ok ys -> List.length xs = List.length ys && List.for_all2 Record.equal xs ys
  | Error m, Error m' -> String.equal m m'
  | _ -> false

(* A record of every test label, as a field and as a tag, plus the
   tag [pad<i>]: it matches any box input and any filter pattern, so
   [max_plans] of them fill a plan cache with the same few shapes
   whatever the case. *)
let pad i =
  Record.of_list
    ~fields:(Array.to_list (Array.map (fun l -> (l, values.(1))) labels))
    ~tags:(("pad" ^ string_of_int i, i) :: Array.to_list (Array.map (fun l -> (l, 1)) labels))

(* A box whose plan cache is full of other shapes runs every further
   shape on the unplanned path. *)
let unplanned_box case =
  let b = box_of case in
  for i = 1 to Box.max_plans do
    ignore (outcome b (pad i))
  done;
  b

let prop_box_plans =
  QCheck.Test.make ~name:"Box.execute: planned = unplanned, errors included"
    ~count:200
    (QCheck.make
       ~print:(fun ((_, _, _, _, _, _) as c) ->
         Box.to_string (box_of c) ^ " on " ^ Record.to_string (input_of c))
       gen_box_case)
    (fun case ->
      let r = input_of case in
      let planned = box_of case in
      (* The first call makes the plan, the second uses it. *)
      let first = outcome planned r in
      let second = outcome planned r in
      let reference = outcome (unplanned_box case) r in
      same_outcome first reference && same_outcome second reference)

(* Filters likewise: a random pattern and specifiers (copies, renames,
   tag expressions that may divide by zero), planned against a filter
   whose plan cache is full. *)
module Filter = Snet.Filter
module P = Snet.Pattern

let gen_filter_case =
  let open QCheck.Gen in
  let label = map (Array.get labels) (int_bound (Array.length labels - 1)) in
  let subset = map (List.sort_uniq compare) (list_size (int_bound 2) label) in
  subset >>= fun pf ->
  subset >>= fun pt ->
  let expr =
    let leaf =
      match pt with
      | [] -> map (fun c -> P.Const c) (int_range (-3) 3)
      | _ ->
          oneof
            [ map (fun c -> P.Const c) (int_range (-3) 3); map (fun t -> P.Tag t) (oneofl pt) ]
    in
    oneof
      [
        leaf;
        map2 (fun a b -> P.Add (a, b)) leaf leaf;
        map2 (fun a b -> P.Div (a, b)) leaf leaf;
      ]
  in
  let item =
    let copies =
      match pf with
      | [] -> []
      | _ ->
          [
            map (fun f -> Filter.Copy_field f) (oneofl pf);
            map2 (fun target source -> Filter.Rename_field { target; source }) label (oneofl pf);
          ]
    in
    oneof (map2 (fun t e -> Filter.Set_tag (t, e)) label expr :: copies)
  in
  list_size (int_bound 3) (list_size (int_bound 4) item) >>= fun specs ->
  list_size (int_bound 4) (pair label (map (Array.get values) (int_bound 9))) >>= fun extra_f ->
  list_size (int_bound 4) (pair label (int_range (-9) 9)) >>= fun extra_t ->
  bool >>= fun complete ->
  return (pf, pt, specs, extra_f, extra_t, complete)

let filter_of (pf, pt, specs, _, _, _) =
  Filter.make (P.make ~fields:pf ~tags:pt ()) specs

let filter_input (pf, pt, _, extra_f, extra_t, complete) =
  if complete then
    Record.of_list
      ~fields:(extra_f @ List.map (fun f -> (f, values.(3))) pf)
      ~tags:(extra_t @ List.map (fun t -> (t, 3)) pt)
  else Record.of_list ~fields:extra_f ~tags:extra_t

let filter_outcome f r =
  match Filter.apply f r with
  | outs -> Ok outs
  | exception e -> Error (Printexc.to_string e)

let unplanned_filter case =
  let f = filter_of case in
  for i = 1 to Filter.max_plans do
    ignore (filter_outcome f (pad i))
  done;
  f

let prop_filter_plans =
  QCheck.Test.make ~name:"Filter.apply: planned = unplanned, errors included"
    ~count:200
    (QCheck.make
       ~print:(fun c -> Filter.to_string (filter_of c) ^ " on " ^ Record.to_string (filter_input c))
       gen_filter_case)
    (fun case ->
      let r = filter_input case in
      let planned = filter_of case in
      let first = filter_outcome planned r in
      let second = filter_outcome planned r in
      let reference = filter_outcome (unplanned_filter case) r in
      same_outcome first reference && same_outcome second reference)

(* ------------------------------------------------------------------ *)
(* Allocation guards (minor words, deterministic; not timings)         *)

let words_per n f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let test_alloc_decode () =
  let rs =
    List.init 32 (fun i ->
        Record.of_list ~fields:[] ~tags:[ ("bid", i); ("dist_seq", i); ("x", i * 7919) ])
  in
  let ctx = Dist.Wire.ctx () in
  let s = Dist.Proto.encode ~ctx (Dist.Proto.Data_batch rs) in
  let decode () =
    match Dist.Proto.decode ~ctx s with
    | Ok (Dist.Proto.Data_batch rs') -> rs'
    | _ -> Alcotest.fail "Data_batch did not decode"
  in
  Alcotest.(check bool) "decoded = sent" true (List.for_all2 Record.equal rs (decode ()));
  let per_record = words_per 50 decode /. 32. in
  if per_record > 20. then
    Alcotest.failf "decode: %.1f minor words per record (bar: <= 20)" per_record

let test_alloc_box () =
  (* Networks.shard's route box, on a dist-stream record. *)
  let route =
    Box.make ~name:"route" ~input:[ Box.T "x" ]
      ~outputs:[ [ Box.T "x"; Box.T "t" ] ] (fun ~emit -> function
      | [ Box.Tag x ] -> emit 1 [ Box.Tag x; Box.Tag (((x mod 8) + 8) mod 8) ]
      | _ -> assert false)
  in
  let r = Record.of_list ~fields:[] ~tags:[ ("bid", 3); ("dist_seq", 3); ("x", 11) ] in
  let expect = Record.of_list ~fields:[] ~tags:[ ("bid", 3); ("dist_seq", 3); ("t", 3); ("x", 11) ] in
  Alcotest.(check bool) "route output" true
    (match Box.execute route r with [ o ] -> Record.equal o expect | _ -> false);
  let words = words_per 100 (fun () -> Box.execute route r) in
  if words > 72. then
    Alcotest.failf "planned Box.execute: %.1f minor words per call (bar: <= 72)" words

(* The intern table is process-wide and never shrinks: every suite
   after this one must still see fresh label sets interned, so that
   boxes, filters, admission and envelopes take their per-shape paths. *)
let test_intern_headroom () =
  let n = Record.Shape.count () in
  if n >= Record.Shape.cap / 2 then
    Alcotest.failf "%d shapes interned after the record suite (bar: < %d)" n
      (Record.Shape.cap / 2)

let suite =
  [
    Alcotest.test_case "value keys" `Quick test_value_keys;
    Alcotest.test_case "value int convenience" `Quick test_value_int;
    Alcotest.test_case "build and access" `Quick test_build_access;
    Alcotest.test_case "replace and remove" `Quick test_replace_remove;
    Alcotest.test_case "excess" `Quick test_excess;
    Alcotest.test_case "flow inheritance (paper example)" `Quick test_flow_inheritance;
    Alcotest.test_case "equality and ordering" `Quick test_equal_compare;
    Alcotest.test_case "to_string" `Quick test_to_string;
    Alcotest.test_case "allocation: envelope decode" `Quick test_alloc_decode;
    Alcotest.test_case "allocation: planned box call" `Quick test_alloc_box;
    Seeded.to_alcotest prop_differential;
    Seeded.to_alcotest prop_box_plans;
    Seeded.to_alcotest prop_filter_plans;
    Alcotest.test_case "intern table stays far below its cap" `Quick test_intern_headroom;
  ]

(* ------------------------------------------------------------------ *)
(* The intern table's cap                                              *)

(* Fills the process-wide intern table to its cap, so it runs last
   (main.ml registers it after every other suite): later shapes would
   all be private. *)
let test_intern_cap () =
  let module S = Record.Shape in
  (* Fresh label sets such as a gateway client or a forged envelope
     could send, past the cap. *)
  let fresh i = Record.of_list ~fields:[] ~tags:[ (Printf.sprintf "cap%d" i, i); ("y", i) ] in
  let n = S.cap - S.count () + 16 in
  let made = List.init n fresh in
  Alcotest.(check int) "table stops at its cap" S.cap (S.count ());
  let past = List.filteri (fun i _ -> i >= n - 16) made in
  List.iter
    (fun r -> Alcotest.(check int) "private shape" (-1) (S.id (Record.shape r)))
    past;
  let r = List.hd past in
  let r' = fresh (n - 16) in
  Alcotest.(check bool) "same labels, distinct private shapes, equal" true
    (Record.equal r r' && S.equal (Record.shape r) (Record.shape r'));
  Alcotest.(check bool) "differs from a shape with other labels" false
    (S.equal (Record.shape r) (Record.shape (List.nth past 1)));
  (* Wire: a frame and a Data_batch mixing private and interned shapes. *)
  (match Dist.Wire.read (Dist.Wire.render r) with
  | Ok back -> Alcotest.(check bool) "frame round-trip" true (Record.equal r back)
  | Error e -> Alcotest.fail e);
  let with_field =
    Record.with_field "s" (Value.inject Dist.Wire.string_key "v") (List.nth past 2)
  in
  let batch = past @ [ Record.of_list ~fields:[] ~tags:[ ("x", 1) ]; with_field ] in
  (match Dist.Proto.decode (Dist.Proto.encode (Dist.Proto.Data_batch batch)) with
  | Ok (Dist.Proto.Data_batch back) ->
      Alcotest.(check (list string)) "batch round-trip"
        (List.map Record.to_string batch) (List.map Record.to_string back);
      List.iter2
        (fun a b ->
          if Record.Shape.nfields (Record.shape a) = 0 then
            Alcotest.(check bool) "batch record equal" true (Record.equal a b))
        batch back
  | _ -> Alcotest.fail "Data_batch did not decode");
  (* A box and a filter on the unplanned path, and engine admission
     for a shape without an id. *)
  let b =
    Box.make ~name:"inc" ~input:[ Box.T "y" ] ~outputs:[ [ Box.T "z" ] ]
      (fun ~emit -> function
        | [ Box.Tag y ] -> emit 1 [ Box.Tag (y + 1) ]
        | _ -> assert false)
  in
  let expect y i =
    Record.of_list ~fields:[] ~tags:[ (Printf.sprintf "cap%d" i, i); ("z", y + 1) ]
  in
  let i = n - 16 in
  (match Box.execute b r with
  | [ o ] -> Alcotest.(check string) "box output" (Record.to_string (expect i i)) (Record.to_string o)
  | _ -> Alcotest.fail "box emitted other than one record");
  let f =
    Snet.Filter.make
      (Snet.Pattern.make ~fields:[] ~tags:[ "y" ] ())
      [ [ Snet.Filter.Set_tag ("w", Snet.Pattern.Tag "y") ] ]
  in
  (match Snet.Filter.apply f r with
  | [ o ] -> Alcotest.(check (option int)) "filter output" (Some i) (Record.tag "w" o)
  | _ -> Alcotest.fail "filter emitted other than one record");
  let outs = Snet.Engine_conc.run (Snet.Net.box b) [ r; r' ] in
  Alcotest.(check int) "engine outputs" 2 (List.length outs);
  Alcotest.(check int) "still at its cap" S.cap (S.count ())

(* Past the cap, fresh label sets get private shapes without the
   intern lock; two domains building, extending and shrinking them at
   once must each see exactly their own labels and values. *)
let test_private_two_domains () =
  let module S = Record.Shape in
  (* Full already after [test_intern_cap]; filled here when run alone. *)
  for i = 1 to S.cap - S.count () do
    ignore (Record.of_list ~fields:[] ~tags:[ (Printf.sprintf "fill%d" i, i) ])
  done;
  let work d () =
    let ok = ref true in
    for i = 1 to 2000 do
      let own = Printf.sprintf "d%d_%d" d i in
      let r = Record.of_list ~fields:[ ("f", Value.of_int i) ] ~tags:[ (own, i); ("y", d) ] in
      let r' = Record.with_tag "w" (i + d) r in
      let r'' = Record.without_tag own r' in
      ok :=
        !ok
        && S.id (Record.shape r) = -1
        && S.id (Record.shape r') = -1
        && Record.tags r' = List.sort compare [ (own, i); ("w", i + d); ("y", d) ]
        && Record.tags r'' = [ ("w", i + d); ("y", d) ]
        && Record.field_labels r'' = [ "f" ]
        && Record.equal r'
             (Record.of_list ~fields:(Record.fields r)
                ~tags:[ ("y", d); ("w", i + d); (own, i) ])
    done;
    !ok
  in
  let d1 = Domain.spawn (work 1) and d2 = Domain.spawn (work 2) in
  let ok1 = Domain.join d1 and ok2 = Domain.join d2 in
  Alcotest.(check (pair bool bool)) "both domains" (true, true) (ok1, ok2);
  Alcotest.(check int) "still at its cap" S.cap (S.count ())

let cap_suite =
  [
    Alcotest.test_case "intern cap" `Quick test_intern_cap;
    Alcotest.test_case "private shapes from two domains" `Quick test_private_two_domains;
  ]
