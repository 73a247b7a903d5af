module SSet = Set.Make (String)

module Variant = struct
  type t = {
    vfields : SSet.t;
    vtags : SSet.t;
  }

  let make ~fields ~tags =
    { vfields = SSet.of_list fields; vtags = SSet.of_list tags }

  let fields v = SSet.elements v.vfields
  let tags v = SSet.elements v.vtags
  let empty = { vfields = SSet.empty; vtags = SSet.empty }
  let arity v = SSet.cardinal v.vfields + SSet.cardinal v.vtags

  let equal a b = SSet.equal a.vfields b.vfields && SSet.equal a.vtags b.vtags

  let union a b =
    { vfields = SSet.union a.vfields b.vfields;
      vtags = SSet.union a.vtags b.vtags }

  let diff a b =
    { vfields = SSet.diff a.vfields b.vfields;
      vtags = SSet.diff a.vtags b.vtags }

  let subtype v w =
    SSet.subset w.vfields v.vfields && SSet.subset w.vtags v.vtags

  let of_record r =
    {
      vfields = SSet.of_list (Record.field_labels r);
      vtags = SSet.of_list (Record.tag_labels r);
    }

  let has_tag tag v = SSet.mem tag v.vtags
  (* Probes the record's maps label by label: no variant is built. *)
  let accepts v r =
    SSet.for_all (fun l -> Record.has_field l r) v.vfields
    && SSet.for_all (fun l -> Record.has_tag l r) v.vtags

  let match_score v r = if accepts v r then Some (arity v) else None

  let to_string v =
    let items =
      SSet.elements v.vfields
      @ List.map (fun t -> "<" ^ t ^ ">") (SSet.elements v.vtags)
    in
    "{" ^ String.concat "," items ^ "}"
end

type t = Variant.t list

let subtype x y =
  List.for_all (fun v -> List.exists (fun w -> Variant.subtype v w) y) x

let accepts t r = List.exists (fun v -> Variant.accepts v r) t

let match_score t r =
  List.fold_left
    (fun best v ->
      match (Variant.match_score v r, best) with
      | None, best -> best
      | Some s, None -> Some s
      | Some s, Some b -> Some (max s b))
    None t

let normalise t =
  let sorted =
    List.sort_uniq
      (fun a b ->
        compare
          (Variant.fields a, Variant.tags a)
          (Variant.fields b, Variant.tags b))
      t
  in
  sorted

let union a b = normalise (a @ b)

let to_string t = String.concat " | " (List.map Variant.to_string t)

type signature = {
  input : t;
  output : t;
}

let signature_to_string s =
  Printf.sprintf "%s -> %s" (to_string s.input) (to_string s.output)
