module SMap = Map.Make (String)

type t = {
  fmap : Value.t SMap.t;
  tmap : int SMap.t;
}

exception Not_found_label of string

let empty = { fmap = SMap.empty; tmap = SMap.empty }

let with_field l v t = { t with fmap = SMap.add l v t.fmap }
let with_tag l v t = { t with tmap = SMap.add l v t.tmap }

let of_list ~fields ~tags =
  let t = List.fold_left (fun t (l, v) -> with_field l v t) empty fields in
  List.fold_left (fun t (l, v) -> with_tag l v t) t tags

let without_field l t = { t with fmap = SMap.remove l t.fmap }
let without_tag l t = { t with tmap = SMap.remove l t.tmap }

let field l t = SMap.find_opt l t.fmap
let tag l t = SMap.find_opt l t.tmap

let field_exn l t =
  match field l t with
  | Some v -> v
  | None -> raise (Not_found_label (Printf.sprintf "field %S" l))

let tag_exn l t =
  match tag l t with
  | Some v -> v
  | None -> raise (Not_found_label (Printf.sprintf "tag <%s>" l))

let has_field l t = SMap.mem l t.fmap
let has_tag l t = SMap.mem l t.tmap

let fields t = SMap.bindings t.fmap
let tags t = SMap.bindings t.tmap
let labels m = List.rev (SMap.fold (fun l _ acc -> l :: acc) m [])
let field_labels t = labels t.fmap
let tag_labels t = labels t.tmap
let arity t = SMap.cardinal t.fmap + SMap.cardinal t.tmap

(* [SMap.mapi] visits keys in increasing order and keeps the tree's
   shape, so a template is refilled with one node per label. *)
let map_values ~tag ~field t =
  let tmap = SMap.mapi tag t.tmap in
  let fmap = SMap.mapi field t.fmap in
  { fmap; tmap }

let excess ~consumed_fields ~consumed_tags t =
  {
    fmap = List.fold_left (fun m l -> SMap.remove l m) t.fmap consumed_fields;
    tmap = List.fold_left (fun m l -> SMap.remove l m) t.tmap consumed_tags;
  }

let inherit_from ~excess out =
  {
    fmap =
      SMap.union (fun _ out_v _inherited -> Some out_v) out.fmap excess.fmap;
    tmap =
      SMap.union (fun _ out_v _inherited -> Some out_v) out.tmap excess.tmap;
  }

let equal a b =
  SMap.equal (fun x y -> x == y) a.fmap b.fmap
  && SMap.equal Int.equal a.tmap b.tmap

let compare_structure a b =
  let c =
    compare (List.map fst (fields a)) (List.map fst (fields b))
  in
  if c <> 0 then c else compare (tags a) (tags b)

let pp fmt t =
  let items =
    List.map
      (fun (l, v) -> Printf.sprintf "%s=%s" l (Value.to_string v))
      (fields t)
    @ List.map (fun (l, v) -> Printf.sprintf "<%s>=%d" l v) (tags t)
  in
  Format.fprintf fmt "{%s}" (String.concat ", " items)

let to_string t = Format.asprintf "%a" pp t
