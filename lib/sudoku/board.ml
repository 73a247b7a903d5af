module Nd = Sacarray.Nd

type t = int Nd.t
type opts = int Nd.t

let isqrt n =
  let r = int_of_float (sqrt (float_of_int n)) in
  if r * r = n then Some r
  else if (r + 1) * (r + 1) = n then Some (r + 1)
  else None

let side b =
  let shp = Nd.shape b in
  if Array.length shp <> 2 || shp.(0) <> shp.(1) then
    invalid_arg "Board: not a square matrix";
  match isqrt shp.(0) with
  | Some _ -> shp.(0)
  | None ->
      invalid_arg
        (Printf.sprintf "Board: side %d is not a perfect square" shp.(0))

let box_size b =
  match isqrt (side b) with
  | Some n -> n
  | None -> assert false

let empty n =
  if n < 1 then invalid_arg "Board.empty: box size < 1";
  let s = n * n in
  Nd.create [| s; s |] 0

let of_rows rows =
  let b = Nd.matrix rows in
  let s = side b in
  Nd.iteri
    (fun iv v ->
      if v < 0 || v > s then
        invalid_arg
          (Printf.sprintf "Board.of_rows: entry %d at %d,%d out of range" v
             iv.(0) iv.(1)))
    b;
  b

(* Bits 0 .. max_opts_side - 1 of a 63-bit int: the sign bit stays
   clear, so a mask is never negative. *)
let max_opts_side = 62

let opts_side ?board opts =
  let shp = Nd.shape opts in
  let s =
    match board with
    | Some b -> side b
    | None -> if Array.length shp = 2 then shp.(0) else -1
  in
  if not (Sacarray.Shape.equal shp [| s; s |]) then
    invalid_arg
      (Printf.sprintf "Board: options of shape %s, not [s,s]%s"
         (Sacarray.Shape.to_string shp)
         (if Option.is_none board then ""
          else Printf.sprintf " for a board of side %d" s));
  if s > max_opts_side then
    invalid_arg
      (Printf.sprintf "Board: options of side %d, at most %d" s max_opts_side);
  s

let count_options mask =
  let m = ref mask and n = ref 0 in
  while !m <> 0 do
    m := !m land (!m - 1);
    incr n
  done;
  !n

let options_nd opts =
  let s = opts_side opts in
  let o = Nd.unsafe_data opts in
  Nd.init [| s; s; s |] (fun iv ->
      o.((iv.(0) * s) + iv.(1)) land (1 lsl iv.(2)) <> 0)

let get b i j =
  let s = side b in
  if i < 0 || i >= s || j < 0 || j >= s then
    invalid_arg (Printf.sprintf "Board.get: position %d,%d" i j);
  (Nd.unsafe_data b).((i * s) + j)

let set b i j v = Nd.set b [| i; j |] v

let cells b =
  let out = ref [] in
  Nd.iteri (fun iv v -> out := (iv.(0), iv.(1), v) :: !out) b;
  List.rev !out

let filled b = List.filter (fun (_, _, v) -> v <> 0) (cells b)
let count_filled b =
  ignore (side b);
  let data = Nd.unsafe_data b in
  let n = ref 0 in
  for cell = 0 to Array.length data - 1 do
    if data.(cell) <> 0 then incr n
  done;
  !n

let equal a b = Nd.equal Int.equal a b

let parse s =
  (* The compact 9x9 form: exactly 81 cell characters, anything else
     whitespace (a trailing newline, or one line per row). *)
  let is_cell c = (c >= '0' && c <= '9') || c = '.' || c = '_' in
  let is_compact_9x9 =
    String.for_all
      (fun c -> is_cell c || c = ' ' || c = '\t' || c = '\r' || c = '\n')
      s
    && Seq.length (Seq.filter is_cell (String.to_seq s)) = 81
  in
  if is_compact_9x9 then begin
    let digits =
      String.to_seq s |> Seq.filter is_cell
      |> Seq.map (fun c ->
             if c >= '0' && c <= '9' then Char.code c - Char.code '0' else 0)
      |> Array.of_seq
    in
    of_rows (List.init 9 (fun i -> List.init 9 (fun j -> digits.((i * 9) + j))))
  end
  else begin
    let lines =
      String.split_on_char '\n' s
      |> List.map String.trim
      |> List.filter (fun l -> l <> "")
    in
    let row_of_line l =
      String.split_on_char ' ' l
      |> List.filter (fun w -> w <> "")
      |> List.map (fun w ->
             if w = "." || w = "_" then 0
             else
               match int_of_string_opt w with
               | Some v -> v
               | None ->
                   invalid_arg ("Board.parse: bad cell " ^ w))
    in
    of_rows (List.map row_of_line lines)
  end

let to_string b =
  let s = side b in
  let n = box_size b in
  let width = String.length (string_of_int s) in
  let buf = Buffer.create 256 in
  for i = 0 to s - 1 do
    if i > 0 && i mod n = 0 then begin
      for j = 0 to s - 1 do
        if j > 0 && j mod n = 0 then Buffer.add_string buf "-+-";
        Buffer.add_string buf (String.make width '-');
        if j < s - 1 then Buffer.add_char buf '-'
      done;
      Buffer.add_char buf '\n'
    end;
    for j = 0 to s - 1 do
      if j > 0 && j mod n = 0 then Buffer.add_string buf " | "
      else if j > 0 then Buffer.add_char buf ' ';
      let v = get b i j in
      let cell = if v = 0 then "." else string_of_int v in
      Buffer.add_string buf (String.make (width - String.length cell) ' ');
      Buffer.add_string buf cell
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let valid b =
  let s = side b in
  let n = box_size b in
  let group_ok cells =
    let seen = Array.make (s + 1) false in
    List.for_all
      (fun v ->
        if v = 0 then true
        else if seen.(v) then false
        else begin
          seen.(v) <- true;
          true
        end)
      cells
  in
  let rows = List.init s (fun i -> List.init s (fun j -> get b i j)) in
  let cols = List.init s (fun j -> List.init s (fun i -> get b i j)) in
  let boxes =
    List.init s (fun bx ->
        let bi = bx / n * n and bj = bx mod n * n in
        List.init s (fun c -> get b (bi + (c / n)) (bj + (c mod n))))
  in
  List.for_all group_ok (rows @ cols @ boxes)

let solved b =
  valid b && List.for_all (fun (_, _, v) -> v <> 0) (cells b)
