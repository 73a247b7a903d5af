type item =
  | Copy_field of string
  | Rename_field of { target : string; source : string }
  | Set_tag of string * Pattern.expr

type spec = item list

(* One specifier planned for one input shape: the slot in the input
   of each own field's source, the tag expressions, and the
   flow-inheritance plan that places them. *)
type spec_plan = {
  flow : Inherit.t;
  fsrc : int array;
  exprs : Pattern.expr array;
}

type plan = { pshape : Record.Shape.t; spec_plans : spec_plan list }

type t = {
  fname : string;
  pattern : Pattern.t;
  specs : spec list;
  consumed_fields : string list;
  consumed_tags : string list;
  (* As in {!Box}: at most [max_plans], replaced whole. *)
  mutable plans : plan list;
}

let max_plans = 8

let item_to_string = function
  | Copy_field f -> f
  | Rename_field { target; source } -> target ^ "=" ^ source
  | Set_tag (t, e) -> "<" ^ t ^ ">=" ^ Pattern.expr_to_string e

let spec_to_string spec =
  "{" ^ String.concat ", " (List.map item_to_string spec) ^ "}"

let to_string t =
  "["
  ^ Pattern.to_string t.pattern
  ^ " -> "
  ^ String.concat "; " (List.map spec_to_string t.specs)
  ^ "]"

let make ?name pattern specs =
  Pattern.validate pattern;
  let pat_fields = Rectype.Variant.fields pattern.Pattern.variant in
  let pat_tags = Rectype.Variant.tags pattern.Pattern.variant in
  let check_field f =
    if not (List.mem f pat_fields) then
      invalid_arg
        (Printf.sprintf "Filter: field %S not in pattern %s" f
           (Pattern.to_string pattern))
  in
  let check_tag tag =
    if not (List.mem tag pat_tags) then
      invalid_arg
        (Printf.sprintf "Filter: tag <%s> not in pattern %s" tag
           (Pattern.to_string pattern))
  in
  List.iter
    (List.iter (function
      | Copy_field f -> check_field f
      | Rename_field { source; _ } -> check_field source
      | Set_tag (_, e) -> List.iter check_tag (Pattern.expr_tags e)))
    specs;
  let t =
    {
      fname = "";
      pattern;
      specs;
      consumed_fields = pat_fields;
      consumed_tags = pat_tags;
      plans = [];
    }
  in
  let fname = match name with Some n -> n | None -> to_string t in
  { t with fname }

let name t = t.fname
let pattern t = t.pattern
let specs t = t.specs

let apply_unplanned t r =
  let lookup tag = Record.tag_exn tag r in
  (* Built at once, so one shape is interned, not one per item; a
     label set twice keeps its last value. *)
  let build spec =
    let fields, tags =
      List.fold_left
        (fun (fields, tags) item ->
          match item with
          | Copy_field f -> ((f, Record.field_exn f r) :: fields, tags)
          | Rename_field { target; source } ->
              ((target, Record.field_exn source r) :: fields, tags)
          | Set_tag (tag, e) ->
              (fields, (tag, Pattern.eval_expr lookup e) :: tags))
        ([], []) spec
    in
    Record.of_list ~fields:(List.rev fields) ~tags:(List.rev tags)
  in
  let excess =
    Record.excess ~consumed_fields:t.consumed_fields
      ~consumed_tags:t.consumed_tags r
  in
  List.map (fun spec -> Record.inherit_from ~excess (build spec)) t.specs

let plan_spec t shape spec =
  let fields, sources =
    List.split
      (List.filter_map
         (function
           | Copy_field f -> Some (f, f)
           | Rename_field { target; source } -> Some (target, source)
           | Set_tag _ -> None)
         spec)
  and tags, exprs =
    List.split
      (List.filter_map
         (function Set_tag (tag, e) -> Some (tag, e) | _ -> None)
         spec)
  in
  {
    flow =
      Inherit.plan ~input:shape ~consumed_fields:t.consumed_fields
        ~consumed_tags:t.consumed_tags ~fields ~tags;
    fsrc =
      Array.of_list
        (List.map (fun f -> Record.Shape.field_index f shape) sources);
    exprs = Array.of_list exprs;
  }

let rec find_plan shape = function
  | [] -> None
  | p :: rest -> if p.pshape == shape then Some p else find_plan shape rest

(* A matching record carries every pattern label, so every source slot
   exists. *)
let plan_for t shape =
  let plans = t.plans in
  match find_plan shape plans with
  | Some _ as p -> p
  | None ->
      if Record.Shape.id shape < 0 || List.compare_length_with plans max_plans >= 0
      then None
      else begin
        let p =
          { pshape = shape; spec_plans = List.map (plan_spec t shape) t.specs }
        in
        t.plans <- p :: plans;
        Some p
      end

(* Own values go in item order, so a label set twice keeps its last
   value, as [Record.with_field] would. *)
let build_planned r sp =
  let fv = Inherit.fields sp.flow and tv = Inherit.tags sp.flow in
  Array.iteri
    (fun j src -> fv.(Inherit.field_slot sp.flow j) <- Record.field_at r src)
    sp.fsrc;
  let lookup tag = Record.tag_exn tag r in
  Array.iteri
    (fun j e -> tv.(Inherit.tag_slot sp.flow j) <- Pattern.eval_expr lookup e)
    sp.exprs;
  Inherit.finish sp.flow ~input:r fv tv

let apply t r =
  if not (Pattern.matches t.pattern r) then
    invalid_arg
      (Printf.sprintf "Filter %s applied to non-matching record %s" t.fname
         (Record.to_string r));
  match plan_for t (Record.shape r) with
  | Some p -> List.map (build_planned r) p.spec_plans
  | None -> apply_unplanned t r

let signature t =
  let out_variant spec =
    let fields =
      List.filter_map
        (function
          | Copy_field f -> Some f
          | Rename_field { target; _ } -> Some target
          | Set_tag _ -> None)
        spec
    in
    let tags =
      List.filter_map
        (function Set_tag (tag, _) -> Some tag | _ -> None)
        spec
    in
    Rectype.Variant.make ~fields ~tags
  in
  {
    Rectype.input = [ t.pattern.Pattern.variant ];
    output = Rectype.normalise (List.map out_variant t.specs);
  }
