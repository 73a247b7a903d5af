(* Flow inheritance (Section 4) planned once per input shape: the
   output shape of a component's own labels plus the input's excess,
   and the slots each value lands in. *)

type t = {
  shape : Record.Shape.t;
  fslot : int array;
  tslot : int array;
  fsrc : int array;
  fdst : int array;
  tsrc : int array;
  tdst : int array;
}

let dummy = Value.of_int 0

(* The labels of [count]/[label] that [keep] accepts. *)
let labels_where keep count label =
  List.filter keep (List.init count label)

let plan ~input ~consumed_fields ~consumed_tags ~fields ~tags =
  let module S = Record.Shape in
  let kept consumed own l = not (List.mem l consumed || List.mem l own) in
  let ex_f =
    labels_where (kept consumed_fields fields) (S.nfields input)
      (S.field_label input)
  and ex_t =
    labels_where (kept consumed_tags tags) (S.ntags input) (S.tag_label input)
  in
  let shape = S.make ~fields:(fields @ ex_f) ~tags:(tags @ ex_t) in
  let slots index ls = Array.of_list (List.map (fun l -> index l shape) ls) in
  let from index ls = Array.of_list (List.map (fun l -> index l input) ls) in
  {
    shape;
    fslot = slots S.field_index fields;
    tslot = slots S.tag_index tags;
    fsrc = from S.field_index ex_f;
    fdst = slots S.field_index ex_f;
    tsrc = from S.tag_index ex_t;
    tdst = slots S.tag_index ex_t;
  }

let shape p = p.shape
let field_slot p j = p.fslot.(j)
let tag_slot p j = p.tslot.(j)

let fields p =
  match Record.Shape.nfields p.shape with
  | 0 -> [||]
  | n -> Array.make n dummy

let tags p = Array.make (Record.Shape.ntags p.shape) 0

let finish p ~input fvals tvals =
  for k = 0 to Array.length p.fsrc - 1 do
    fvals.(p.fdst.(k)) <- Record.field_at input p.fsrc.(k)
  done;
  for k = 0 to Array.length p.tsrc - 1 do
    tvals.(p.tdst.(k)) <- Record.tag_at input p.tsrc.(k)
  done;
  Record.of_shape p.shape ~fields:fvals ~tags:tvals
