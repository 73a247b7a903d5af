(* One flat array per generator, four entries per axis [d]:
   [4d] lower bound, [4d+1] step, [4d+2] number of index points,
   [4d+3] normalised exclusive upper bound [lower + count * step].
   Building a generator is one allocation, and it never aliases the
   caller's bound vectors. *)
type generator = { rank : int; axes : int array }

let lower g d = g.axes.(4 * d)
let step g d = g.axes.((4 * d) + 1)
let count g d = g.axes.((4 * d) + 2)
let limit g d = g.axes.((4 * d) + 3)

(* [incl] is 1 when [upper] is inclusive, 0 when exclusive. *)
let make_generator ~incl ?step lower upper =
  let r = Array.length lower in
  if Array.length upper <> r then
    invalid_arg "With_loop.range: lower/upper rank mismatch";
  (match step with
  | Some st when Array.length st <> r ->
      invalid_arg "With_loop.range: step rank mismatch"
  | _ -> ());
  let axes = Array.make (4 * r) 0 in
  for d = 0 to r - 1 do
    let st = match step with Some st -> st.(d) | None -> 1 in
    if st < 1 then invalid_arg "With_loop.range: step < 1";
    let extent = upper.(d) + incl - lower.(d) in
    let n =
      if extent <= 0 then 0
      else if st = 1 then extent
      else ((extent - 1) / st) + 1
    in
    axes.(4 * d) <- lower.(d);
    axes.((4 * d) + 1) <- st;
    axes.((4 * d) + 2) <- n;
    axes.((4 * d) + 3) <- lower.(d) + (n * st)
  done;
  { rank = r; axes }

let range ?step lower upper = make_generator ~incl:0 ?step lower upper
let range_incl ?step lower upper = make_generator ~incl:1 ?step lower upper

let generator_size g =
  let n = ref 1 in
  for d = 0 to g.rank - 1 do
    n := !n * count g d
  done;
  !n

let generator_rank g = g.rank

let generator_mem g idx =
  Array.length idx = g.rank
  && (let ok = ref true in
      for d = 0 to g.rank - 1 do
        let c = idx.(d) in
        if c < lower g d || c >= limit g d || (c - lower g d) mod step g d <> 0
        then ok := false
      done;
      !ok)

(* The [k]-th index point of [g] in row-major order over the point
   grid, computed from scratch: the definitional order the
   odometer ([walk] below) must reproduce. *)
let nth_point g k =
  let idx = Array.make g.rank 0 in
  let k = ref k in
  for d = g.rank - 1 downto 0 do
    let n = count g d in
    idx.(d) <- lower g d + (!k mod n * step g d);
    k := !k / n
  done;
  idx

let generator_iter g f =
  let n = generator_size g in
  for k = 0 to n - 1 do
    f (nth_point g k)
  done

type 'a part = generator * (int array -> 'a)

let check_generator ~shape g =
  if g.rank <> Shape.rank shape then
    invalid_arg
      (Printf.sprintf "With_loop: generator rank %d against shape %s" g.rank
         (Shape.to_string shape));
  (* The extreme points bound the whole rectangle; a generator without
     points escapes nothing. *)
  let escapes = ref false and empty = ref false in
  for d = 0 to g.rank - 1 do
    if count g d = 0 then empty := true
    else if lower g d < 0 || limit g d - step g d >= shape.(d) then
      escapes := true
  done;
  if !escapes && not !empty then
    invalid_arg
      (Printf.sprintf "With_loop: generator %s..%s escapes shape %s"
         (Shape.to_string (Array.init g.rank (lower g)))
         (Shape.to_string (Array.init g.rank (limit g)))
         (Shape.to_string shape))

(* Sequential cutoff: ranges smaller than this are not worth forking. *)
let parallel_cutoff = 512

(* ------------------------------------------------------------------ *)
(* The stride odometer: the one executor behind every with-loop form.

   [walk ?shape g klo khi run init] hands the grid points [klo, khi) of
   [g] to [run] in row-major order, one run at a time along [a], the
   innermost axis with more than one point (axes after it hold a single
   point and never move: addNumber's row and column generators have a
   last-axis extent of 1). [run idx a st off dl len acc] covers [len]
   (>= 1) points: [idx] holds the run's first point and [off] its
   row-major offset in [shape] (without [~shape], in the box of extents
   [limit g d], which a fold ignores). The form's own loop evaluates
   its body at [idx], then for each further point adds [st] to
   [idx.(a)] and [dl] to the offset, so a body is called directly, with
   no per-point wrapper in between. A one-point run never touches
   [idx.(a)]; that is what lets a rank-0 generator pass [a = 0].

   [idx] is ONE scratch vector for the whole call — the body sees it
   only for the duration of its call (the .mli documents this). Between
   runs the odometer rewinds axis [a] and advances the axes before it,
   their strides accumulated on the way out. After the first point no
   division, allocation or bounds walk happens per element, and the
   accumulator is a local, so folding costs no write barrier. A chunk
   [klo, khi) may start and end mid-run. *)
let walk ?shape g klo khi run init =
  let extent d = match shape with Some s -> s.(d) | None -> limit g d in
  let acc = ref init in
  if klo < khi then begin
    let r = g.rank in
    let idx = Array.make r 0 in
    (* The innermost axis that moves; 0 when none does. *)
    let a = ref (r - 1) in
    while !a > 0 && count g !a = 1 do
      decr a
    done;
    let a = !a in
    (* Unravel [klo]: [q] is the grid position along axis [a], and
       [stride_a] that axis's row-major stride. *)
    let q = ref 0 and stride_a = ref 1 in
    let off = ref 0 and stride = ref 1 and k = ref klo in
    for d = r - 1 downto 0 do
      let n = count g d in
      let p = !k mod n in
      idx.(d) <- lower g d + (p * step g d);
      off := !off + (idx.(d) * !stride);
      if d = a then begin
        q := p;
        stride_a := !stride
      end;
      stride := !stride * extent d;
      k := !k / n
    done;
    if r = 0 then acc := run idx 0 0 0 0 1 !acc
    else begin
      let n = count g a and st = step g a in
      let dl = st * !stride_a in
      let k = ref klo in
      while !k < khi do
        let len = Int.min (n - !q) (khi - !k) in
        acc := run idx a st !off dl len !acc;
        k := !k + len;
        if !k < khi then begin
          (* The run reached the end of axis [a]. *)
          idx.(a) <- lower g a;
          off := !off - (!q * dl);
          q := 0;
          let d = ref (a - 1) and stride = ref (!stride_a * extent a) in
          while !d >= 0 do
            let b = !d in
            let db = step g b * !stride in
            let v = idx.(b) + step g b in
            if v < limit g b then begin
              idx.(b) <- v;
              off := !off + db;
              d := -1
            end
            else begin
              idx.(b) <- lower g b;
              off := !off - ((count g b - 1) * db);
              stride := !stride * extent b;
              d := b - 1
            end
          done
        end
      done
    end
  end;
  !acc

let use_pool pool n =
  match pool with
  | Some pool when n >= parallel_cutoff && Scheduler.Pool.parallelism pool > 1
    ->
      Some pool
  | _ -> None

(* Evaluate grid points [from, size g) of [g] into [data], laid out
   row-major in [shape]. *)
let fill ?pool ~shape data g body from =
  let run idx a st off dl len () =
    data.(off) <- body idx;
    let off = ref off in
    for _ = 2 to len do
      idx.(a) <- idx.(a) + st;
      off := !off + dl;
      data.(!off) <- body idx
    done
  in
  let chunk lo hi = walk ~shape g lo hi run () in
  let n = generator_size g in
  match use_pool pool n with
  | Some pool ->
      Scheduler.Pool.parallel_for_range pool ~lo:from ~hi:n (fun ~lo ~hi ->
          chunk lo hi)
  | None -> chunk from n

let run_part ?pool ~shape data (g, body) =
  check_generator ~shape g;
  fill ?pool ~shape data g body 0

let genarray ?pool ~shape ~default parts =
  Shape.validate shape;
  let data = Array.make (Shape.size shape) default in
  List.iter (run_part ?pool ~shape data) parts;
  Nd.unsafe_of_array (Array.copy shape) data

let genarray_init ?pool ~shape body =
  Shape.validate shape;
  let n = Shape.size shape in
  if n = 0 then Nd.unsafe_of_array (Array.copy shape) [||]
  else begin
    (* Seed the buffer with the first element's value, then fill the
       rest; every index is evaluated exactly once. *)
    let origin = Array.make (Shape.rank shape) 0 in
    let first = body origin in
    let data = Array.make n first in
    if n > 1 then fill ?pool ~shape data (range origin shape) body 1;
    Nd.unsafe_of_array (Array.copy shape) data
  end

let modarray ?pool src parts =
  let shape = Nd.shape src in
  let data = Nd.to_flat_array src in
  List.iter (run_part ?pool ~shape data) parts;
  Nd.unsafe_of_array shape data

let fold ?pool ~neutral ~combine parts =
  let fold_part acc (g, body) =
    let n = generator_size g in
    if n = 0 then acc
    else
      let run idx a st _ _ len acc =
        let acc = ref (combine acc (body idx)) in
        for _ = 2 to len do
          idx.(a) <- idx.(a) + st;
          acc := combine !acc (body idx)
        done;
        !acc
      in
      let chunk init lo hi = walk g lo hi run init in
      match use_pool pool n with
      | Some pool ->
          combine acc
            (Scheduler.Pool.parallel_for_reduce_range pool ~lo:0 ~hi:n
               ~combine ~init:neutral (fun ~lo ~hi -> chunk neutral lo hi))
      | None -> chunk acc 0 n
  in
  List.fold_left fold_part neutral parts
