(* A record is an interned shape (its sorted labels) plus one array of
   values per kind, in label order. *)

(* ------------------------------------------------------------------ *)
(* Shapes                                                              *)

type shape = {
  id : int;
  flabels : string array;
  tlabels : string array;
  hash : int;
  (* Shapes one added or removed label away, newest first; an
     immutable list replaced whole, so readers on other domains see an
     old or a new list, never a torn one. *)
  mutable next : step list;
}

and step = { kind : kind; label : string; target : shape }
and kind = Add_field | Add_tag | Del_field | Del_tag

let cap = 4096
let max_label_bytes = 1024
let max_steps = 8

(* FNV-1a over the label's bytes. *)
let label_hash l =
  let h = ref 0x811c9dc5 in
  for i = 0 to String.length l - 1 do
    h := (!h lxor Char.code (String.unsafe_get l i)) * 0x100000001b3
  done;
  !h

(* A label set's hash combines the sums of its field and of its tag
   label hashes: sums, so that [of_list] can hash labels in the order
   given. *)
let combine hf ht = ((hf * 31) + ht) land max_int

let sum_hashes labels =
  let h = ref 0 in
  Array.iter (fun l -> h := !h + label_hash l) labels;
  !h

let nbuckets = cap
let buckets : shape list array = Array.make nbuckets []
let count = Atomic.make 0
let intern_mu = Mutex.create ()

(* Hot-path helpers are top-level recursions over explicit arguments:
   a local [let rec] capturing its context would allocate a closure on
   every call. *)
let rec same_from a b i =
  i = Array.length a
  || String.equal (Array.unsafe_get a i) (Array.unsafe_get b i)
     && same_from a b (i + 1)

let same_labels a b = Array.length a = Array.length b && same_from a b 0

(* Stands for "no shape" in the searches below, which run on hot paths
   and so return no option. *)
let none =
  { id = -1; flabels = [| "" |]; tlabels = [||]; hash = 0; next = [] }

let rec find_shape fl tl h = function
  | [] -> none
  | s :: rest ->
      if s.hash = h && same_labels s.flabels fl && same_labels s.tlabels tl
      then s
      else find_shape fl tl h rest

let label_bytes fl tl =
  let n = ref 0 in
  Array.iter (fun l -> n := !n + String.length l) fl;
  Array.iter (fun l -> n := !n + String.length l) tl;
  !n

let private_shape fl tl h = { id = -1; flabels = fl; tlabels = tl; hash = h; next = [] }

(* [fl] and [tl] are sorted and free of repeats. Lookups read the
   buckets without the lock; a miss re-checks under it, so two domains
   never intern one label set twice. A full table, or a label set too
   large to keep, yields a private shape with id -1, and takes no lock:
   once the table is full nothing is ever interned again, so a stream
   of fresh label sets (say, from an untrusted peer) cannot serialise
   the domains on [intern_mu]. A label set is thus either interned or
   only ever private, which [shape_equal] relies on. *)
let intern fl tl =
  let h = combine (sum_hashes fl) (sum_hashes tl) in
  let b = h land (nbuckets - 1) in
  let s = find_shape fl tl h buckets.(b) in
  if s != none then s
  else if label_bytes fl tl > max_label_bytes then private_shape fl tl h
  else if Atomic.get count >= cap then
    (* Every insert happened before the count read full, so this
       re-read sees the one that may have raced the read above. *)
    let s = find_shape fl tl h buckets.(b) in
    if s != none then s else private_shape fl tl h
  else
    Mutex.protect intern_mu (fun () ->
        let s = find_shape fl tl h buckets.(b) in
        if s != none then s
        else
          let id = Atomic.get count in
          if id >= cap then private_shape fl tl h
          else begin
            let s = { id; flabels = fl; tlabels = tl; hash = h; next = [] } in
            buckets.(b) <- s :: buckets.(b);
            Atomic.set count (id + 1);
            s
          end)

let shape_equal a b =
  a == b
  || a.id < 0 && b.id < 0
     && same_labels a.flabels b.flabels
     && same_labels a.tlabels b.tlabels

(* Labels are mostly literals shared by every record built at one call
   site, and most labels that differ differ in length: both are decided
   without calling into C. *)
let label_equal a b =
  a == b || (String.length a = String.length b && String.equal a b)

(* Sorted label arrays are short: a scan beats a binary search. *)
let rec index_from l labels i =
  if i = Array.length labels then -1
  else if label_equal (Array.unsafe_get labels i) l then i
  else index_from l labels (i + 1)

let index l labels = index_from l labels 0

(* Where [l] would go in the sorted [labels]. *)
let rec insertion_point_from l labels i =
  if i = Array.length labels || String.compare l (Array.unsafe_get labels i) < 0
  then i
  else insertion_point_from l labels (i + 1)

let insertion_point l labels = insertion_point_from l labels 0

(* Arrays are short here: plain loops beat [Array.blit]'s C calls. *)
let array_insert a i v =
  let n = Array.length a in
  let b = Array.make (n + 1) v in
  for k = 0 to i - 1 do
    Array.unsafe_set b k (Array.unsafe_get a k)
  done;
  for k = i to n - 1 do
    Array.unsafe_set b (k + 1) (Array.unsafe_get a k)
  done;
  b

let array_remove a i =
  let n = Array.length a in
  if n = 1 then [||]
  else begin
    let b = Array.make (n - 1) (Array.unsafe_get a 0) in
    for k = 1 to i - 1 do
      Array.unsafe_set b k (Array.unsafe_get a k)
    done;
    for k = i + 1 to n - 1 do
      Array.unsafe_set b (k - 1) (Array.unsafe_get a k)
    done;
    b
  end

(* Tag values are int arrays, the commonest case on cut edges. A fresh
   one of length [n]: array literals allocate inline, where
   [Array.make] is a C call. *)
let ints n : int array =
  match n with
  | 0 -> [||]
  | 1 -> [| 0 |]
  | 2 -> [| 0; 0 |]
  | 3 -> [| 0; 0; 0 |]
  | 4 -> [| 0; 0; 0; 0 |]
  | 5 -> [| 0; 0; 0; 0; 0 |]
  | 6 -> [| 0; 0; 0; 0; 0; 0 |]
  | n -> Array.make n 0

let ints_copy (a : int array) =
  let b = ints (Array.length a) in
  for k = 0 to Array.length a - 1 do
    Array.unsafe_set b k (Array.unsafe_get a k)
  done;
  b

let ints_insert (a : int array) i v =
  let n = Array.length a in
  let b = ints (n + 1) in
  for k = 0 to i - 1 do
    Array.unsafe_set b k (Array.unsafe_get a k)
  done;
  Array.unsafe_set b i v;
  for k = i to n - 1 do
    Array.unsafe_set b (k + 1) (Array.unsafe_get a k)
  done;
  b

let ints_remove (a : int array) i =
  let n = Array.length a in
  let b = ints (n - 1) in
  for k = 0 to i - 1 do
    Array.unsafe_set b k (Array.unsafe_get a k)
  done;
  for k = i + 1 to n - 1 do
    Array.unsafe_set b (k - 1) (Array.unsafe_get a k)
  done;
  b

let rec find_step kind l = function
  | [] -> none
  | st :: rest ->
      if st.kind == kind && label_equal st.label l then st.target
      else find_step kind l rest

(* The shape [kind] of [l] leads to from [s]; [l] is known to be
   absent (an add) or present (a remove). *)
let step s kind l =
  let t = find_step kind l s.next in
  if t != none then t
  else begin
    let t =
      match kind with
      | Add_field ->
          intern (array_insert s.flabels (insertion_point l s.flabels) l) s.tlabels
      | Add_tag ->
          intern s.flabels (array_insert s.tlabels (insertion_point l s.tlabels) l)
      | Del_field -> intern (array_remove s.flabels (index l s.flabels)) s.tlabels
      | Del_tag -> intern s.flabels (array_remove s.tlabels (index l s.tlabels))
    in
    let steps = s.next in
    if s.id >= 0 && t.id >= 0 && List.compare_length_with steps max_steps < 0
    then s.next <- { kind; label = l; target = t } :: steps;
    t
  end

module Shape = struct
  type t = shape

  let cap = cap
  let count () = Atomic.get count
  let id s = s.id
  let equal = shape_equal

  let make ~fields ~tags =
    let sorted ls = Array.of_list (List.sort_uniq String.compare ls) in
    intern (sorted fields) (sorted tags)

  let nfields s = Array.length s.flabels
  let ntags s = Array.length s.tlabels
  let field_label s i = s.flabels.(i)
  let tag_label s i = s.tlabels.(i)
  let field_index l s = index l s.flabels
  let tag_index l s = index l s.tlabels
end

(* ------------------------------------------------------------------ *)
(* Records                                                             *)

type t = { shape : shape; fvals : Value.t array; tvals : int array }

exception Not_found_label of string

let no_fields : Value.t array = [||]
let empty = { shape = intern [||] [||]; fvals = no_fields; tvals = [||] }
let shape r = r.shape
let field_at r i = r.fvals.(i)
let tag_at r i = r.tvals.(i)

let of_shape s ~fields ~tags =
  if Array.length fields <> Array.length s.flabels
     || Array.length tags <> Array.length s.tlabels
  then
    invalid_arg
      (Printf.sprintf "Record.of_shape: %d fields and %d tags for a shape of %d and %d"
         (Array.length fields) (Array.length tags) (Array.length s.flabels)
         (Array.length s.tlabels));
  { shape = s; fvals = fields; tvals = tags }

let with_field l v r =
  let s = r.shape in
  match index l s.flabels with
  | -1 ->
      let t = step s Add_field l in
      { r with shape = t; fvals = array_insert r.fvals (index l t.flabels) v }
  | i ->
      let fvals = Array.copy r.fvals in
      fvals.(i) <- v;
      { r with fvals }

let with_tag l v r =
  let s = r.shape in
  match index l s.tlabels with
  | -1 ->
      let t = step s Add_tag l in
      { r with shape = t; tvals = ints_insert r.tvals (index l t.tlabels) v }
  | i ->
      let tvals = ints_copy r.tvals in
      tvals.(i) <- v;
      { r with tvals }

let without_field l r =
  match index l r.shape.flabels with
  | -1 -> r
  | i ->
      { r with shape = step r.shape Del_field l; fvals = array_remove r.fvals i }

let without_tag l r =
  match index l r.shape.tlabels with
  | -1 -> r
  | i ->
      { r with shape = step r.shape Del_tag l; tvals = ints_remove r.tvals i }

(* [of_list] fast path: find the shape, and drop each value into its
   slot. [mask] records the slots filled, so a repeated label is caught
   and left to the general path; the count filled must then equal the
   shape's, which is how the fast path needs no [List.length]. -1 on a
   label the shape lacks or a repeat. *)
let rec fill_vals labels vals mask n = function
  | [] -> n
  | (l, v) :: rest ->
      let i = index l labels in
      if i < 0 || mask land (1 lsl i) <> 0 then -1
      else begin
        Array.unsafe_set vals i v;
        fill_vals labels vals (mask lor (1 lsl i)) (n + 1) rest
      end

(* [fill_vals] for tags: an [int array] store needs no write barrier,
   where the polymorphic one calls [caml_modify]. *)
let rec fill_ints labels (vals : int array) mask n = function
  | [] -> n
  | (l, v) :: rest ->
      let i = index l labels in
      if i < 0 || mask land (1 lsl i) <> 0 then -1
      else begin
        Array.unsafe_set vals i v;
        fill_ints labels vals (mask lor (1 lsl i)) (n + 1) rest
      end

let rec hash_labels h = function
  | [] -> h
  | (l, _) :: rest -> hash_labels (h + label_hash l) rest

let no_record = { shape = none; fvals = no_fields; tvals = [||] }

(* The record of shape [s] with the listed values, or [no_record] when
   the lists do not name exactly [s]'s labels. *)
let fill s fields tags =
  let nf = Array.length s.flabels and nt = Array.length s.tlabels in
  if nf > 62 || nt > 62 then no_record
  else begin
    let fvals =
      match fields with
      | (_, v) :: _ when nf > 0 -> Array.make nf v
      | _ -> no_fields
    in
    let tvals = ints nt in
    if fill_vals s.flabels fvals 0 0 fields = nf
       && fill_ints s.tlabels tvals 0 0 tags = nt
    then { shape = s; fvals; tvals }
    else no_record
  end

let rec fill_from fields tags h = function
  | [] -> no_record
  | s :: rest ->
      let r = if s.hash = h then fill s fields tags else no_record in
      if r != no_record then r else fill_from fields tags h rest

(* Sorted by label, the last of a repeated label winning (the stable
   sort keeps input order among equals). *)
let sort_last_wins pairs =
  let rec dedup = function
    | (l1, _) :: ((l2, _) :: _ as rest) when String.equal l1 l2 -> dedup rest
    | p :: rest -> p :: dedup rest
    | [] -> []
  in
  let ps =
    Array.of_list
      (dedup (List.stable_sort (fun (a, _) (b, _) -> String.compare a b) pairs))
  in
  (Array.map fst ps, Array.map snd ps)

let of_list_sorted fields tags =
  let fl, fvals = sort_last_wins fields and tl, tvals = sort_last_wins tags in
  { shape = intern fl tl; fvals; tvals }

let of_list ~fields ~tags =
  let h = combine (hash_labels 0 fields) (hash_labels 0 tags) in
  let r = fill_from fields tags h buckets.(h land (nbuckets - 1)) in
  if r != no_record then r else of_list_sorted fields tags

let field l r =
  match index l r.shape.flabels with -1 -> None | i -> Some r.fvals.(i)

let tag l r =
  match index l r.shape.tlabels with -1 -> None | i -> Some r.tvals.(i)

let field_exn l r =
  match index l r.shape.flabels with
  | -1 -> raise (Not_found_label (Printf.sprintf "field %S" l))
  | i -> r.fvals.(i)

let tag_exn l r =
  match index l r.shape.tlabels with
  | -1 -> raise (Not_found_label (Printf.sprintf "tag <%s>" l))
  | i -> r.tvals.(i)

let has_field l r = index l r.shape.flabels >= 0
let has_tag l r = index l r.shape.tlabels >= 0

let pairs labels vals =
  List.init (Array.length labels) (fun i -> (labels.(i), vals.(i)))

let fields r = pairs r.shape.flabels r.fvals
let tags r = pairs r.shape.tlabels r.tvals
let field_labels r = Array.to_list r.shape.flabels
let tag_labels r = Array.to_list r.shape.tlabels
let arity r = Array.length r.fvals + Array.length r.tvals

let map_values ~tag ~field r =
  let s = r.shape in
  let tvals = Array.mapi (fun i v -> tag s.tlabels.(i) v) r.tvals in
  let fvals = Array.mapi (fun i v -> field s.flabels.(i) v) r.fvals in
  { r with fvals; tvals }

(* The labels (and their values) of [labels] that [keep] accepts. *)
let select keep labels vals =
  let ls = ref [] and vs = ref [] in
  for i = Array.length labels - 1 downto 0 do
    if keep labels.(i) then begin
      ls := labels.(i) :: !ls;
      vs := vals.(i) :: !vs
    end
  done;
  (Array.of_list !ls, Array.of_list !vs)

let excess ~consumed_fields ~consumed_tags r =
  let fl, fvals =
    select (fun l -> not (List.mem l consumed_fields)) r.shape.flabels r.fvals
  and tl, tvals =
    select (fun l -> not (List.mem l consumed_tags)) r.shape.tlabels r.tvals
  in
  if Array.length fl = Array.length r.fvals && Array.length tl = Array.length r.tvals
  then r
  else { shape = intern fl tl; fvals; tvals }

(* Merge two sorted label/value runs; [a]'s entry wins a shared label. *)
let merge al av bl bv =
  let ls = ref [] and vs = ref [] in
  let push l v =
    ls := l :: !ls;
    vs := v :: !vs
  in
  let na = Array.length al and nb = Array.length bl in
  let i = ref 0 and j = ref 0 in
  while !i < na || !j < nb do
    if !j = nb then begin
      push al.(!i) av.(!i);
      incr i
    end
    else if !i = na then begin
      push bl.(!j) bv.(!j);
      incr j
    end
    else begin
      let c = String.compare al.(!i) bl.(!j) in
      if c <= 0 then begin
        push al.(!i) av.(!i);
        incr i;
        if c = 0 then incr j
      end
      else begin
        push bl.(!j) bv.(!j);
        incr j
      end
    end
  done;
  (Array.of_list (List.rev !ls), Array.of_list (List.rev !vs))

let inherit_from ~excess out =
  let fl, fvals =
    merge out.shape.flabels out.fvals excess.shape.flabels excess.fvals
  and tl, tvals =
    merge out.shape.tlabels out.tvals excess.shape.tlabels excess.tvals
  in
  if Array.length fl = Array.length out.fvals
     && Array.length tl = Array.length out.tvals
  then out
  else { shape = intern fl tl; fvals; tvals }

let equal a b =
  shape_equal a.shape b.shape
  && (let n = Array.length a.tvals in
      let rec go i = i = n || (a.tvals.(i) = b.tvals.(i) && go (i + 1)) in
      go 0)
  &&
  let n = Array.length a.fvals in
  let rec go i = i = n || (a.fvals.(i) == b.fvals.(i) && go (i + 1)) in
  go 0

(* Lexicographic with a proper prefix first, as [compare] orders the
   label and (label, value) lists that [compare_structure] documents. *)
let compare_arrays cmp a b =
  let na = Array.length a and nb = Array.length b in
  let rec go i =
    if i = na || i = nb then Int.compare na nb
    else
      let c = cmp i in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let compare_structure a b =
  let sa = a.shape and sb = b.shape in
  let c =
    compare_arrays
      (fun i -> String.compare sa.flabels.(i) sb.flabels.(i))
      sa.flabels sb.flabels
  in
  if c <> 0 then c
  else
    compare_arrays
      (fun i ->
        let c = String.compare sa.tlabels.(i) sb.tlabels.(i) in
        if c <> 0 then c else Int.compare a.tvals.(i) b.tvals.(i))
      sa.tlabels sb.tlabels

let pp fmt r =
  let items =
    List.map
      (fun (l, v) -> Printf.sprintf "%s=%s" l (Value.to_string v))
      (fields r)
    @ List.map (fun (l, v) -> Printf.sprintf "<%s>=%d" l v) (tags r)
  in
  Format.fprintf fmt "{%s}" (String.concat ", " items)

let to_string r = Format.asprintf "%a" pp r
