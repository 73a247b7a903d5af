type label =
  | F of string
  | T of string

type arg =
  | Field of Value.t
  | Tag of int

type emitter = int -> arg list -> unit
type impl = emit:emitter -> arg list -> unit

(* What executing the box on one input shape needs: the slot of each
   input label, and per output variant the flow-inheritance plan and
   the slot each emitted value lands in. *)
type out_plan = { labels : label list; flow : Inherit.t; dst : int array }

type plan = {
  pshape : Record.Shape.t;
  args : label array;
  arg_slots : int array;
  outs : out_plan array;
}

type t = {
  bname : string;
  input : label list;
  outputs : label list list;
  impl : impl;
  supervision : Supervise.config;
  (* At most [max_plans] plans, newest first; an immutable list
     replaced whole, so domains running the box concurrently never see
     a torn one. *)
  mutable plans : plan list;
}

let max_plans = 8

let label_name = function F f -> f | T t -> t
let label_to_string = function F f -> f | T t -> "<" ^ t ^ ">"

let tuple_to_string labels =
  "(" ^ String.concat "," (List.map label_to_string labels) ^ ")"

let check_distinct what labels =
  let rec go seen = function
    | [] -> ()
    | l :: rest ->
        let key = (match l with F _ -> "f:" | T _ -> "t:") ^ label_name l in
        if List.mem key seen then
          invalid_arg
            (Printf.sprintf "Box: duplicate label %s in %s"
               (label_to_string l) what)
        else go (key :: seen) rest
  in
  go [] labels

let make ~name ?policy ?timeout ~input ~outputs impl =
  check_distinct "input tuple" input;
  if outputs = [] then invalid_arg "Box: empty output disjunction";
  List.iteri
    (fun i v -> check_distinct (Printf.sprintf "output variant %d" (i + 1)) v)
    outputs;
  let supervision =
    match (policy, timeout) with
    | None, None -> Supervise.default
    | _ -> Supervise.make ?policy ?timeout ()
  in
  { bname = name; input; outputs; impl; supervision; plans = [] }

let name t = t.bname
let supervision t = t.supervision
let with_supervision supervision t = { t with supervision }
let input_labels t = t.input
let output_variants t = t.outputs

let variant_of_labels labels =
  let fields = List.filter_map (function F f -> Some f | T _ -> None) labels in
  let tags = List.filter_map (function T t -> Some t | F _ -> None) labels in
  Rectype.Variant.make ~fields ~tags

let signature t =
  {
    Rectype.input = [ variant_of_labels t.input ];
    output = Rectype.normalise (List.map variant_of_labels t.outputs);
  }

let to_string t =
  Printf.sprintf "box %s (%s -> %s)" t.bname (tuple_to_string t.input)
    (String.concat " | " (List.map tuple_to_string t.outputs))

let project t r =
  List.map
    (fun l ->
      match l with
      | F f -> (
          match Record.field f r with
          | Some v -> Field v
          | None ->
              invalid_arg
                (Printf.sprintf "Box %s: record %s lacks field %s" t.bname
                   (Record.to_string r) f))
      | T tag -> (
          match Record.tag tag r with
          | Some v -> Tag v
          | None ->
              invalid_arg
                (Printf.sprintf "Box %s: record %s lacks tag <%s>" t.bname
                   (Record.to_string r) tag)))
    t.input

(* Emission errors, in the order both paths check them. *)
let check_variant t variant n =
  if variant < 1 || variant > n then
    invalid_arg
      (Printf.sprintf "Box %s: snet_out variant %d of %d" t.bname variant n)

let check_count t variant expected args =
  if expected <> List.length args then
    invalid_arg
      (Printf.sprintf "Box %s: snet_out variant %d expects %d values, got %d"
         t.bname variant expected (List.length args))

let kind_error t = function
  | F f ->
      invalid_arg (Printf.sprintf "Box %s: field %s given a tag value" t.bname f)
  | T tag ->
      invalid_arg
        (Printf.sprintf "Box %s: tag <%s> given a field value" t.bname tag)

let build_output t variant args =
  check_variant t variant (List.length t.outputs);
  let labels = List.nth t.outputs (variant - 1) in
  check_count t variant (List.length labels) args;
  let fields, tags =
    List.fold_left2
      (fun (fields, tags) l a ->
        match (l, a) with
        | F f, Field v -> ((f, v) :: fields, tags)
        | T tag, Tag v -> (fields, (tag, v) :: tags)
        | l, _ -> kind_error t l)
      ([], []) labels args
  in
  (* The labels of a variant are distinct. Built at once, the record
     interns one shape, not one per label added. *)
  Record.of_list ~fields ~tags

let fields_of labels = List.filter_map (function F f -> Some f | T _ -> None) labels
let tags_of labels = List.filter_map (function T tag -> Some tag | F _ -> None) labels

(* The unplanned path, for shapes without a plan: project through the
   record's labels, build each emission from its label/value pairs,
   inherit the excess. *)
let execute_unplanned t r =
  let args = project t r in
  let emitted = ref [] in
  let emit variant out_args =
    emitted := build_output t variant out_args :: !emitted
  in
  t.impl ~emit args;
  let excess =
    Record.excess ~consumed_fields:(fields_of t.input)
      ~consumed_tags:(tags_of t.input) r
  in
  (* [emitted] is in reverse emission order; rev_map restores it. *)
  List.rev_map (fun out -> Record.inherit_from ~excess out) !emitted

(* [None] when the shape lacks an input label: the unplanned path then
   raises the error. *)
let make_plan t shape =
  let slot = function
    | F f -> Record.Shape.field_index f shape
    | T tag -> Record.Shape.tag_index tag shape
  in
  let args = Array.of_list t.input in
  let arg_slots = Array.map slot args in
  if Array.exists (fun i -> i < 0) arg_slots then None
  else
    let out labels =
      let ip =
        Inherit.plan ~input:shape ~consumed_fields:(fields_of t.input)
          ~consumed_tags:(tags_of t.input) ~fields:(fields_of labels)
          ~tags:(tags_of labels)
      in
      (* Own fields and tags are numbered apart, in declaration order. *)
      let nf = ref 0 and nt = ref 0 in
      let dst =
        List.map
          (function
            | F _ ->
                incr nf;
                Inherit.field_slot ip (!nf - 1)
            | T _ ->
                incr nt;
                Inherit.tag_slot ip (!nt - 1))
          labels
      in
      { labels; flow = ip; dst = Array.of_list dst }
    in
    Some
      { pshape = shape; args; arg_slots; outs = Array.of_list (List.map out t.outputs) }

let rec find_plan shape = function
  | [] -> None
  | p :: rest -> if p.pshape == shape then Some p else find_plan shape rest

let plan_for t shape =
  let plans = t.plans in
  match find_plan shape plans with
  | Some _ as p -> p
  | None ->
      if Record.Shape.id shape < 0 || List.compare_length_with plans max_plans >= 0
      then None
      else begin
        let p = make_plan t shape in
        Option.iter (fun p -> t.plans <- p :: plans) p;
        p
      end

let rec planned_args plan r p acc =
  if p < 0 then acc
  else
    let i = plan.arg_slots.(p) in
    let a =
      match plan.args.(p) with
      | F _ -> Field (Record.field_at r i)
      | T _ -> Tag (Record.tag_at r i)
    in
    planned_args plan r (p - 1) (a :: acc)

(* Emitted values straight into their slots. *)
let rec fill t dst fv tv p labels args =
  match (labels, args) with
  | [], _ | _, [] -> ()
  | l :: labels, a :: args ->
      (match (l, a) with
      | F _, Field v -> fv.(dst.(p)) <- v
      | T _, Tag v -> tv.(dst.(p)) <- v
      | l, _ -> kind_error t l);
      fill t dst fv tv (p + 1) labels args

let execute_planned t plan r =
  let args = planned_args plan r (Array.length plan.arg_slots - 1) [] in
  let emitted = ref [] in
  let nvariants = Array.length plan.outs in
  let emit variant out_args =
    check_variant t variant nvariants;
    let o = plan.outs.(variant - 1) in
    check_count t variant (Array.length o.dst) out_args;
    let fv = Inherit.fields o.flow and tv = Inherit.tags o.flow in
    fill t o.dst fv tv 0 o.labels out_args;
    emitted := Inherit.finish o.flow ~input:r fv tv :: !emitted
  in
  t.impl ~emit args;
  List.rev !emitted

let execute t r =
  match plan_for t (Record.shape r) with
  | Some plan -> execute_planned t plan r
  | None -> execute_unplanned t r
