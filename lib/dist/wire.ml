let magic = "SNRW"
let version = 1

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected, table-driven)                        *)

(* The tables and the running checksum live in plain OCaml ints (the
   value always fits in 32 bits, far below the 63-bit native range) so
   the per-byte update is unboxed arithmetic — the original Int32
   version allocated several boxed Int32s per input byte, which
   dominated frame encode/decode cost on the profiler.

   The bulk of each frame is processed slicing-by-8: one 64-bit load
   replaces eight byte loads, and the eight table lookups it feeds are
   independent (no serial dependency through the CRC register within a
   block), which is worth ~5x over the byte-at-a-time loop on frames
   of a few hundred bytes. Table k advances the CRC by (k+1) zero
   bytes: t.(k).(n) = t.(0) applied k more times. *)

let crc_tables =
  lazy
    (let t = Array.make_matrix 8 256 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(0).(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let p = t.(k - 1).(n) in
         t.(k).(n) <- t.(0).(p land 0xFF) lxor (p lsr 8)
       done
     done;
     t)

(* One slice-by-8 step: fold the 8 little-endian bytes starting at the
   block into the register. [one] is the low 32-bit half xored with
   the current CRC, [two] the high half. *)
let[@inline] crc_step t one two =
  let t0 = Array.unsafe_get t 0
  and t1 = Array.unsafe_get t 1
  and t2 = Array.unsafe_get t 2
  and t3 = Array.unsafe_get t 3
  and t4 = Array.unsafe_get t 4
  and t5 = Array.unsafe_get t 5
  and t6 = Array.unsafe_get t 6
  and t7 = Array.unsafe_get t 7 in
  Array.unsafe_get t7 (one land 0xFF)
  lxor Array.unsafe_get t6 ((one lsr 8) land 0xFF)
  lxor Array.unsafe_get t5 ((one lsr 16) land 0xFF)
  lxor Array.unsafe_get t4 ((one lsr 24) land 0xFF)
  lxor Array.unsafe_get t3 (two land 0xFF)
  lxor Array.unsafe_get t2 ((two lsr 8) land 0xFF)
  lxor Array.unsafe_get t1 ((two lsr 16) land 0xFF)
  lxor Array.unsafe_get t0 ((two lsr 24) land 0xFF)

let crc32_string_sub s pos len =
  let t = Lazy.force crc_tables in
  let t0 = Array.unsafe_get t 0 in
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  let limit8 = pos + (len land lnot 7) in
  while !i < limit8 do
    let x = String.get_int64_le s !i in
    let lo = Int64.to_int (Int64.logand x 0xFFFFFFFFL) in
    let hi = Int64.to_int (Int64.shift_right_logical x 32) in
    c := crc_step t (lo lxor !c) hi;
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    c :=
      Array.unsafe_get t0 ((!c lxor Char.code (String.unsafe_get s j)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32_bytes_sub b pos len =
  let t = Lazy.force crc_tables in
  let t0 = Array.unsafe_get t 0 in
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  let limit8 = pos + (len land lnot 7) in
  while !i < limit8 do
    let x = Bytes.get_int64_le b !i in
    let lo = Int64.to_int (Int64.logand x 0xFFFFFFFFL) in
    let hi = Int64.to_int (Int64.shift_right_logical x 32) in
    c := crc_step t (lo lxor !c) hi;
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    c :=
      Array.unsafe_get t0 ((!c lxor Char.code (Bytes.unsafe_get b j)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = Int32.of_int (crc32_string_sub s 0 (String.length s))

(* ------------------------------------------------------------------ *)
(* Growable byte arena with backpatchable length prefixes              *)

(* Unlike [Buffer], the arena exposes positions so a length prefix can
   be reserved before the payload is appended and patched afterwards —
   which is what lets codecs stream payload bytes straight into the
   frame under construction instead of materialising an intermediate
   payload string per field. One arena lives in each {!ctx} and is
   reused across frames. *)

type arena = { mutable abuf : Bytes.t; mutable alen : int }

let arena_create n = { abuf = Bytes.create (max 64 n); alen = 0 }
let arena_clear a = a.alen <- 0

let arena_reserve a n =
  let need = a.alen + n in
  if need > Bytes.length a.abuf then begin
    let cap = ref (2 * Bytes.length a.abuf) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let nb = Bytes.create !cap in
    Bytes.blit a.abuf 0 nb 0 a.alen;
    a.abuf <- nb
  end

let a_u8 a v =
  arena_reserve a 1;
  Bytes.unsafe_set a.abuf a.alen (Char.unsafe_chr (v land 0xFF));
  a.alen <- a.alen + 1

let a_u16 a v =
  if v < 0 || v > 0xFFFF then invalid_arg "Wire: u16 out of range";
  arena_reserve a 2;
  Bytes.set_uint16_be a.abuf a.alen v;
  a.alen <- a.alen + 2

let a_u32 a v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Wire: u32 out of range";
  arena_reserve a 4;
  Bytes.set_int32_be a.abuf a.alen (Int32.of_int v);
  a.alen <- a.alen + 4

let[@inline] a_i64 a v =
  arena_reserve a 8;
  Bytes.set_int64_be a.abuf a.alen v;
  a.alen <- a.alen + 8

let a_string a s =
  let n = String.length s in
  arena_reserve a n;
  Bytes.blit_string s 0 a.abuf a.alen n;
  a.alen <- a.alen + n

let a_str16 a s =
  a_u16 a (String.length s);
  a_string a s

(* Unsigned LEB128: one byte below 128. *)
let a_varint a v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Wire: varint out of range";
  let v = ref v in
  while !v >= 0x80 do
    a_u8 a (!v land 0x7F lor 0x80);
    v := !v lsr 7
  done;
  a_u8 a !v

(* Reserve a u32 slot, returning its position for {!a_patch_u32}. *)
let a_mark_u32 a =
  let at = a.alen in
  a_u32 a 0;
  at

let a_patch_u32 a at v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Wire: u32 out of range";
  Bytes.set_int32_be a.abuf at (Int32.of_int v)

(* ------------------------------------------------------------------ *)
(* Bounds-checked cursor over an immutable string                      *)

exception Bad of string

type cursor = { src : string; mutable pos : int; limit : int }

let need cur n =
  if cur.pos + n > cur.limit then
    raise (Bad (Printf.sprintf "truncated at offset %d (need %d bytes)" cur.pos n))

let get_u8 cur =
  need cur 1;
  let v = Char.code cur.src.[cur.pos] in
  cur.pos <- cur.pos + 1;
  v

let get_u16 cur =
  need cur 2;
  let v = String.get_uint16_be cur.src cur.pos in
  cur.pos <- cur.pos + 2;
  v

let get_u32 cur =
  need cur 4;
  let v = Int32.to_int (String.get_int32_be cur.src cur.pos) land 0xFFFFFFFF in
  cur.pos <- cur.pos + 4;
  v

let get_bytes cur n =
  need cur n;
  let s = String.sub cur.src cur.pos n in
  cur.pos <- cur.pos + n;
  s

let get_str16 cur = get_bytes cur (get_u16 cur)

let rec get_varint_from cur acc shift =
  let b = get_u8 cur in
  let acc = acc lor ((b land 0x7F) lsl shift) in
  if b < 0x80 then acc
  else if shift >= 28 then raise (Bad "varint longer than 32 bits")
  else get_varint_from cur acc (shift + 7)

let get_varint cur = get_varint_from cur 0 0

(* ------------------------------------------------------------------ *)
(* Codec registry, keyed by Value key name                             *)

(* Codecs work in place on both paths: [enc] appends the raw payload
   bytes to the frame arena (returning [false] when the value was
   injected under a different key that shares the name), [dec] reads
   the payload from a region of the incoming message without an
   intermediate [String.sub] copy. [register] wraps user string-based
   encode/decode into this shape; the built-ins below implement it
   directly. *)

type codec = {
  enc : arena -> Snet.Value.t -> bool;
  dec : string -> pos:int -> len:int -> Snet.Value.t;
}

let registry : (string, codec) Hashtbl.t = Hashtbl.create 16
let registry_mu = Mutex.create ()

(* Bumped on every [register]; per-ctx codec caches compare against it
   and drop their entries when the registry has changed underneath
   them (the invalidation rule: a cache is valid for exactly one
   registry generation). *)
let registry_gen = Atomic.make 0

let register_codec name c =
  Mutex.lock registry_mu;
  Hashtbl.replace registry name c;
  Atomic.incr registry_gen;
  Mutex.unlock registry_mu

let register (type a) (key : a Snet.Value.Key.key) ~(encode : a -> string)
    ~(decode : string -> a) =
  register_codec (Snet.Value.Key.name key)
    {
      enc =
        (fun a v ->
          match Snet.Value.project key v with
          | None -> false
          | Some x ->
              a_string a (encode x);
              true);
      dec =
        (fun s ~pos ~len -> Snet.Value.inject key (decode (String.sub s pos len)));
    }

let lookup name =
  Mutex.lock registry_mu;
  let c = Hashtbl.find_opt registry name in
  Mutex.unlock registry_mu;
  c

let registered name = lookup name <> None

(* ------------------------------------------------------------------ *)
(* Contexts: per-edge scratch arena and codec cache                    *)

(* One entry of an envelope's variant table: a record shape (its label
   set, in canonical sorted order), the name of each field's codec,
   and the codecs resolved for it. *)
type variant = {
  shape : Snet.Record.Shape.t;
  key_names : string array;
  codecs : codec array;
}

type ctx = {
  carena : arena;
  (* An envelope's record section, written before its table is known. *)
  recs : arena;
  (* Decoder: the last table read, as bytes and parsed, and the
     registry generation its codecs were resolved in. *)
  mutable last_table : string;
  mutable last_parsed : variant array;
  mutable last_gen : int;
  cache : (string, codec) Hashtbl.t;
  mutable cache_gen : int;
  (* Claimed flag for the shared per-domain default ctx: sys-threads of
     one domain interleave at safe points, so two of them must never
     build frames in the same arena concurrently. *)
  claimed : bool Atomic.t;
}

let ctx () =
  {
    carena = arena_create 512;
    recs = arena_create 512;
    last_table = "";
    last_parsed = [||];
    last_gen = -1;
    cache = Hashtbl.create 8;
    cache_gen = Atomic.get registry_gen;
    claimed = Atomic.make false;
  }

let cached_lookup c name =
  let gen = Atomic.get registry_gen in
  if gen <> c.cache_gen then begin
    Hashtbl.reset c.cache;
    c.cache_gen <- gen
  end;
  match Hashtbl.find_opt c.cache name with
  | Some _ as r -> r
  | None -> (
      match lookup name with
      | Some cd as r ->
          Hashtbl.add c.cache name cd;
          r
      | None -> None)

let default_ctx_key : ctx Domain.DLS.key = Domain.DLS.new_key ctx

(* Run [f] with the caller's ctx, or the domain-local default. The
   default is claimed with a CAS so a re-entrant call (a user codec
   that itself renders) or an interleaved sys-thread falls back to a
   fresh throwaway ctx instead of clobbering a half-built frame. *)
let with_ctx ctx_opt f =
  match ctx_opt with
  | Some c -> f c
  | None ->
      let c = Domain.DLS.get default_ctx_key in
      if Atomic.compare_and_set c.claimed false true then
        Fun.protect ~finally:(fun () -> Atomic.set c.claimed false) (fun () -> f c)
      else f (ctx ())

(* ------------------------------------------------------------------ *)
(* Built-in codecs                                                     *)

let string_key =
  Snet.Value.Key.create ~to_string:(Printf.sprintf "%S") "dist.string"

let float_key =
  Snet.Value.Key.create ~to_string:string_of_float "dist.float"

let enc_nd_header a shape =
  a_u8 a (Array.length shape);
  Array.iter (fun d -> a_u32 a d) shape

let decode_nd_header cur =
  let rank = get_u8 cur in
  let shape = Array.init rank (fun _ -> get_u32 cur) in
  Sacarray.Shape.validate shape;
  shape

(* Int payloads are zigzag varints (LEB128). Zigzag is a bijection on
   the full wrapping int domain, so every 63-bit int round-trips;
   small magnitudes — sudoku cell values, option counts, most real
   payloads — take one byte instead of the eight a fixed i64 costs,
   which shrinks nd-int-heavy frames ~3x and with them the CRC and
   memcpy work on both ends of a cut edge. *)
let nd_int_codec (key : int Sacarray.Nd.t Snet.Value.Key.key) =
  {
    enc =
      (fun a v ->
        match Snet.Value.project key v with
        | None -> false
        | Some nd ->
            enc_nd_header a (Sacarray.Nd.shape nd);
            let data = Sacarray.Nd.unsafe_data nd in
            let n = Array.length data in
            (* Reserve the 9-bytes-per-element worst case up front so
               the loop can write with a local cursor and no per-byte
               capacity checks — [a_varint]'s per-byte [a_u8] path was
               ~3x slower on int-heavy payloads (a sudoku board). *)
            arena_reserve a (n * 9);
            let buf = a.abuf in
            let p = ref a.alen in
            for i = 0 to n - 1 do
              let v = Array.unsafe_get data i in
              let z = ref ((v lsl 1) lxor (v asr 62)) in
              if !z lsr 7 = 0 then begin
                Bytes.unsafe_set buf !p (Char.unsafe_chr !z);
                incr p
              end
              else begin
                while !z lsr 7 <> 0 do
                  Bytes.unsafe_set buf !p
                    (Char.unsafe_chr ((!z land 0x7F) lor 0x80));
                  incr p;
                  z := !z lsr 7
                done;
                Bytes.unsafe_set buf !p (Char.unsafe_chr !z);
                incr p
              end
            done;
            a.alen <- !p;
            true);
    dec =
      (fun s ~pos ~len ->
        let cur = { src = s; pos; limit = pos + len } in
        let shape = decode_nd_header cur in
        let size = Sacarray.Shape.size shape in
        let data = Array.make size 0 in
        (* Local-cursor varint loop: the bounds check collapses to one
           limit compare per byte and the common single-byte case to a
           compare-and-store, instead of [get_varint]'s per-byte call
           through the cursor record. *)
        let p = ref cur.pos and lim = cur.limit in
        for i = 0 to size - 1 do
          if !p >= lim then raise (Bad "truncated int ndarray payload");
          let b0 = Char.code (String.unsafe_get s !p) in
          incr p;
          if b0 < 0x80 then
            Array.unsafe_set data i ((b0 lsr 1) lxor (- (b0 land 1)))
          else begin
            let z = ref (b0 land 0x7F) and shift = ref 7 in
            let continue = ref true in
            while !continue do
              if !p >= lim then raise (Bad "truncated int ndarray payload");
              let b = Char.code (String.unsafe_get s !p) in
              incr p;
              z := !z lor ((b land 0x7F) lsl !shift);
              if b < 0x80 then continue := false
              else begin
                shift := !shift + 7;
                if !shift > 62 then raise (Bad "varint longer than 63 bits")
              end
            done;
            Array.unsafe_set data i ((!z lsr 1) lxor (- (!z land 1)))
          end
        done;
        cur.pos <- !p;
        if cur.pos <> cur.limit then
          failwith "trailing bytes in int ndarray payload";
        (* The freshly parsed array is never aliased: hand it to the
           ndarray without the defensive copy [of_array] would make. *)
        Snet.Value.inject key (Sacarray.Nd.unsafe_of_array shape data));
  }

let nd_bool_codec (key : bool Sacarray.Nd.t Snet.Value.Key.key) =
  {
    enc =
      (fun a v ->
        match Snet.Value.project key v with
        | None -> false
        | Some nd ->
            enc_nd_header a (Sacarray.Nd.shape nd);
            let data = Sacarray.Nd.unsafe_data nd in
            let n = Array.length data in
            let packed = (n + 7) / 8 in
            arena_reserve a packed;
            let buf = a.abuf and base = a.alen in
            (* View the bool array as its runtime representation — an
               array of 0/1 immediates — so each output byte is seven
               shift-ors with no branches. The per-bit conditional
               version mispredicts on mixed payloads and was ~3x
               slower on a 9x9x9 options cube. *)
            let bits : int array = Obj.magic (data : bool array) in
            let full = n / 8 in
            for b = 0 to full - 1 do
              let j = b * 8 in
              let byte =
                Array.unsafe_get bits j
                lor (Array.unsafe_get bits (j + 1) lsl 1)
                lor (Array.unsafe_get bits (j + 2) lsl 2)
                lor (Array.unsafe_get bits (j + 3) lsl 3)
                lor (Array.unsafe_get bits (j + 4) lsl 4)
                lor (Array.unsafe_get bits (j + 5) lsl 5)
                lor (Array.unsafe_get bits (j + 6) lsl 6)
                lor (Array.unsafe_get bits (j + 7) lsl 7)
              in
              Bytes.unsafe_set buf (base + b) (Char.unsafe_chr byte)
            done;
            if full * 8 < n then begin
              let byte = ref 0 in
              for k = 0 to n - (full * 8) - 1 do
                byte := !byte lor (Array.unsafe_get bits ((full * 8) + k) lsl k)
              done;
              Bytes.unsafe_set buf (base + full) (Char.unsafe_chr !byte)
            end;
            a.alen <- base + packed;
            true);
    dec =
      (fun s ~pos ~len ->
        let cur = { src = s; pos; limit = pos + len } in
        let shape = decode_nd_header cur in
        let size = Sacarray.Shape.size shape in
        let packed = (size + 7) / 8 in
        need cur packed;
        let base = cur.pos in
        (* Read each packed byte once and store its eight bits with
           unconditional unrolled writes — a branchy per-bit loop cost
           ~2x on dense payloads (a 9x9x9 options cube is mostly set
           bits early in a solve). *)
        let data = Array.make size false in
        (* Same representation trick as encode: store each bit as its
           0/1 immediate directly instead of materialising a bool per
           comparison. *)
        let bits : int array = Obj.magic (data : bool array) in
        let full = size / 8 in
        for b = 0 to full - 1 do
          let byte = Char.code (String.unsafe_get s (base + b)) in
          let j = b * 8 in
          Array.unsafe_set bits j (byte land 1);
          Array.unsafe_set bits (j + 1) ((byte lsr 1) land 1);
          Array.unsafe_set bits (j + 2) ((byte lsr 2) land 1);
          Array.unsafe_set bits (j + 3) ((byte lsr 3) land 1);
          Array.unsafe_set bits (j + 4) ((byte lsr 4) land 1);
          Array.unsafe_set bits (j + 5) ((byte lsr 5) land 1);
          Array.unsafe_set bits (j + 6) ((byte lsr 6) land 1);
          Array.unsafe_set bits (j + 7) ((byte lsr 7) land 1)
        done;
        if full * 8 < size then begin
          let byte = Char.code (String.unsafe_get s (base + full)) in
          for k = 0 to size - (full * 8) - 1 do
            Array.unsafe_set bits ((full * 8) + k) ((byte lsr k) land 1)
          done
        end;
        cur.pos <- base + packed;
        if cur.pos <> cur.limit then
          failwith "trailing bytes in bool ndarray payload";
        Snet.Value.inject key (Sacarray.Nd.unsafe_of_array shape data));
  }

let register_nd_int key = register_codec (Snet.Value.Key.name key) (nd_int_codec key)
let register_nd_bool key = register_codec (Snet.Value.Key.name key) (nd_bool_codec key)

let () =
  (* The built-in integer key: Value.of_int injects under a private key
     named "int"; round-trip through of_int/to_int. *)
  register_codec "int"
    {
      enc =
        (fun a v ->
          match Snet.Value.to_int v with
          | None -> false
          | Some n ->
              a_i64 a (Int64.of_int n);
              true);
      dec =
        (fun s ~pos ~len ->
          if len <> 8 then failwith "int payload must be 8 bytes";
          Snet.Value.of_int (Int64.to_int (String.get_int64_be s pos)));
    };
  let string_codec key =
    {
      enc =
        (fun a v ->
          match Snet.Value.project key v with
          | None -> false
          | Some s ->
              a_string a s;
              true);
      dec = (fun s ~pos ~len -> Snet.Value.inject key (String.sub s pos len));
    }
  in
  register_codec
    (Snet.Value.Key.name Snet.Supervise.string_key)
    (string_codec Snet.Supervise.string_key);
  register_codec (Snet.Value.Key.name string_key) (string_codec string_key);
  register_codec (Snet.Value.Key.name float_key)
    {
      enc =
        (fun a v ->
          match Snet.Value.project float_key v with
          | None -> false
          | Some f ->
              a_i64 a (Int64.bits_of_float f);
              true);
      dec =
        (fun s ~pos ~len ->
          if len <> 8 then failwith "float payload must be 8 bytes";
          Snet.Value.inject float_key
            (Int64.float_of_bits (String.get_int64_be s pos)));
    }

(* ------------------------------------------------------------------ *)
(* Values: the one core under frames and envelopes                     *)

(* A tag value is an i64; a field value is a u32 payload length and
   the payload its codec writes. Frames and envelopes differ only in
   where the labels and codec names go: inline per record in a frame,
   once per variant in an envelope. *)

exception Unencodable of string

let unencodable fmt = Printf.ksprintf (fun m -> raise (Unencodable m)) fmt

let codec_for_encode c label key_name =
  match cached_lookup c key_name with
  | Some codec -> codec
  | None ->
      unencodable
        "no codec registered for key %S (field %S); call Dist.Wire.register"
        key_name label

let codec_for_decode c label key_name =
  match cached_lookup c key_name with
  | Some codec -> codec
  | None ->
      raise
        (Bad
           (Printf.sprintf "field %S: no codec registered for key %S" label
              key_name))

let put_tag a v = a_i64 a (Int64.of_int v)

let get_tag cur =
  need cur 8;
  let v = Int64.to_int (String.get_int64_be cur.src cur.pos) in
  cur.pos <- cur.pos + 8;
  v

(* The payload streams straight into the arena behind a backpatched
   length. *)
let put_field a codec label v =
  let len_at = a_mark_u32 a in
  let start = a.alen in
  if not (codec.enc a v) then
    unencodable
      "field %S: value carries key name %S but was injected under a \
       different key of that name"
      label (Snet.Value.key_name v);
  a_patch_u32 a len_at (a.alen - start)

(* Decodes the payload in place, without slicing the message. *)
let get_field cur codec label key_name =
  let len = get_u32 cur in
  need cur len;
  let pos = cur.pos in
  cur.pos <- pos + len;
  match codec.dec cur.src ~pos ~len with
  | v -> v
  | exception e ->
      raise
        (Bad
           (Printf.sprintf "field %S (key %S): decode failed: %s" label
              key_name (Printexc.to_string e)))

let result f = match f () with
  | r -> Ok r
  | exception Bad m -> Error m
  | exception e -> Error (Printexc.to_string e)

(* The magic at [pos], then the version byte [expected]; the caller
   has checked that the five bytes are there. *)
let check_header s pos ~what expected =
  if
    not
      (s.[pos] = 'S' && s.[pos + 1] = 'N' && s.[pos + 2] = 'R'
      && s.[pos + 3] = 'W')
  then raise (Bad (Printf.sprintf "bad magic %S" (String.sub s pos 4)));
  let v = Char.code s.[pos + 4] in
  if v <> expected then
    raise
      (Bad
         (Printf.sprintf "unsupported %sversion %d (expected %d)" what v
            expected))

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)

let render ?ctx:ctx_opt r =
  with_ctx ctx_opt (fun c ->
      let a = c.carena in
      arena_clear a;
      a_string a magic;
      a_u8 a version;
      let body_len_at = a_mark_u32 a in
      let body_start = a.alen in
      let shape = Snet.Record.shape r in
      let ntags = Snet.Record.Shape.ntags shape in
      a_u16 a ntags;
      for i = 0 to ntags - 1 do
        a_str16 a (Snet.Record.Shape.tag_label shape i);
        put_tag a (Snet.Record.tag_at r i)
      done;
      let nfields = Snet.Record.Shape.nfields shape in
      a_u16 a nfields;
      for j = 0 to nfields - 1 do
        let label = Snet.Record.Shape.field_label shape j in
        let v = Snet.Record.field_at r j in
        let key_name = Snet.Value.key_name v in
        a_str16 a label;
        a_str16 a key_name;
        put_field a (codec_for_encode c label key_name) label v
      done;
      a_patch_u32 a body_len_at (a.alen - body_start);
      a_u32 a (crc32_bytes_sub a.abuf body_start (a.alen - body_start));
      Bytes.sub_string a.abuf 0 a.alen)

let read ?ctx:ctx_opt s =
  with_ctx ctx_opt @@ fun c ->
  result @@ fun () ->
  let len = String.length s in
  if len < 13 then raise (Bad "frame shorter than the 13-byte envelope");
  check_header s 0 ~what:"" version;
  let body_len = Int32.to_int (String.get_int32_be s 5) land 0xFFFFFFFF in
  if len <> 13 + body_len then
    raise
      (Bad
         (Printf.sprintf "frame length %d disagrees with header body length %d"
            len body_len));
  let declared =
    Int32.to_int (String.get_int32_be s (9 + body_len)) land 0xFFFFFFFF
  in
  let actual = crc32_string_sub s 9 body_len in
  if declared <> actual then
    raise
      (Bad
         (Printf.sprintf "CRC mismatch: frame says %08x, body hashes to %08x"
            declared actual));
  let cur = { src = s; pos = 9; limit = 9 + body_len } in
  let ntags = get_u16 cur in
  let tags =
    List.init ntags (fun _ ->
        let label = get_str16 cur in
        (label, get_tag cur))
  in
  let nfields = get_u16 cur in
  let fields =
    List.init nfields (fun _ ->
        let label = get_str16 cur in
        let key_name = get_str16 cur in
        let codec = codec_for_decode c label key_name in
        (label, get_field cur codec label key_name))
  in
  if cur.pos <> cur.limit then
    raise
      (Bad (Printf.sprintf "%d trailing bytes in body" (cur.limit - cur.pos)));
  Snet.Record.of_list ~fields ~tags

let validate s =
  match read s with
  | Error e -> Error e
  | Ok r ->
      let s' = render r in
      if String.equal s s' then Ok ()
      else Error "re-rendered frame differs from the original bytes"

(* ------------------------------------------------------------------ *)
(* Envelopes                                                           *)

(* Envelopes share the frames' magic; their own version byte marks the
   layout, so a canonical frame sent where an envelope is expected (a
   peer built before envelopes) is refused by version, not by a CRC. *)
let envelope_version = 2

let rec keys_match v r j =
  j = Array.length v.key_names
  || String.equal
       (Snet.Value.key_name (Snet.Record.field_at r j))
       (Array.unsafe_get v.key_names j)
     && keys_match v r (j + 1)

let is_variant v shape r =
  Snet.Record.Shape.equal v.shape shape && keys_match v r 0

let new_variant c shape r =
  let nfields = Snet.Record.Shape.nfields shape in
  let key_names =
    Array.init nfields (fun j -> Snet.Value.key_name (Snet.Record.field_at r j))
  in
  {
    shape;
    key_names;
    codecs =
      Array.init nfields (fun j ->
          codec_for_encode c (Snet.Record.Shape.field_label shape j) key_names.(j));
  }

(* The index of the record's variant among the first [n] of [vs], or
   -1. Tables are short (a net's types fix a handful of variants per
   edge), so a scan beats hashing; interned shapes compare by
   identity. *)
let rec find_variant vs n shape r i =
  if i = n then -1
  else if is_variant vs.(i) shape r then i
  else find_variant vs n shape r (i + 1)

let grow a n v =
  if n < Array.length a then a
  else begin
    let b = Array.make (max 4 (2 * n)) v in
    Array.blit a 0 b 0 n;
    b
  end

let put_values a v r =
  for i = 0 to Snet.Record.Shape.ntags v.shape - 1 do
    put_tag a (Snet.Record.tag_at r i)
  done;
  for j = 0 to Array.length v.codecs - 1 do
    put_field a v.codecs.(j)
      (Snet.Record.Shape.field_label v.shape j)
      (Snet.Record.field_at r j)
  done

let envelope ?ctx:ctx_opt ~prefix rs =
  with_ctx ctx_opt (fun c ->
      let body = c.recs in
      arena_clear body;
      (* The table grows as the records name new variants. *)
      let vs = ref [||] and nv = ref 0 and count = ref 0 in
      List.iter
        (fun r ->
          let shape = Snet.Record.shape r in
          let i =
            match find_variant !vs !nv shape r 0 with
            | -1 ->
                let v = new_variant c shape r in
                vs := grow !vs !nv v;
                !vs.(!nv) <- v;
                incr nv;
                !nv - 1
            | i -> i
          in
          a_varint body i;
          put_values body !vs.(i) r;
          incr count)
        rs;
      let a = c.carena in
      arena_clear a;
      a_u8 a (Char.code prefix);
      a_string a magic;
      a_u8 a envelope_version;
      let start = a.alen in
      a_u32 a !count;
      a_u32 a !nv;
      for i = 0 to !nv - 1 do
        let v = !vs.(i) in
        let ntags = Snet.Record.Shape.ntags v.shape in
        a_u16 a ntags;
        for k = 0 to ntags - 1 do
          a_str16 a (Snet.Record.Shape.tag_label v.shape k)
        done;
        a_u16 a (Array.length v.key_names);
        Array.iteri
          (fun j key_name ->
            a_str16 a (Snet.Record.Shape.field_label v.shape j);
            a_str16 a key_name)
          v.key_names
      done;
      arena_reserve a body.alen;
      Bytes.blit body.abuf 0 a.abuf a.alen body.alen;
      a.alen <- a.alen + body.alen;
      a_u32 a (crc32_bytes_sub a.abuf start (a.alen - start));
      Bytes.sub_string a.abuf 0 a.alen)

(* [n] items of at least [min_bytes] each must fit in what is left:
   a count the bytes cannot hold is rejected before anything is
   allocated for it. *)
let check_count cur n ~min_bytes what =
  if n > (cur.limit - cur.pos) / min_bytes then
    raise
      (Bad
         (Printf.sprintf "%s count %d exceeds what the %d remaining bytes hold"
            what n (cur.limit - cur.pos)))

(* Labels must be strictly increasing: the decoder fills each record's
   value arrays in the order of its shape's sorted labels, so any other
   order (or a repeat) would pair values with the wrong labels. *)
let check_sorted what labels =
  for i = 1 to Array.length labels - 1 do
    if String.compare labels.(i - 1) labels.(i) >= 0 then
      raise
        (Bad
           (Printf.sprintf "variant %s labels %S, %S not in canonical order"
              what labels.(i - 1) labels.(i)))
  done

let read_variant c cur =
  let ntags = get_u16 cur in
  check_count cur ntags ~min_bytes:2 "tag label";
  let tag_labels = Array.init ntags (fun _ -> get_str16 cur) in
  check_sorted "tag" tag_labels;
  let nfields = get_u16 cur in
  check_count cur nfields ~min_bytes:4 "field label";
  let pairs =
    Array.init nfields (fun _ ->
        let l = get_str16 cur in
        (l, get_str16 cur))
  in
  let field_labels = Array.map fst pairs in
  check_sorted "field" field_labels;
  {
    shape =
      Snet.Record.Shape.make ~fields:(Array.to_list field_labels)
        ~tags:(Array.to_list tag_labels);
    key_names = Array.map snd pairs;
    codecs = Array.map (fun (l, k) -> codec_for_decode c l k) pairs;
  }

let rec same_bytes cur t i =
  i = String.length t
  || String.unsafe_get cur.src (cur.pos + i) = String.unsafe_get t i
     && same_bytes cur t (i + 1)

(* Consecutive envelopes of an edge usually carry the same table:
   bytes equal to the last table read parse to the same variants, so
   the parsed table is reused. *)
let read_table c cur nv =
  let gen = Atomic.get registry_gen in
  let known = c.last_table in
  if
    Array.length c.last_parsed = nv
    && c.last_gen = gen
    && cur.pos + String.length known <= cur.limit
    && same_bytes cur known 0
  then begin
    cur.pos <- cur.pos + String.length known;
    c.last_parsed
  end
  else begin
    check_count cur nv ~min_bytes:4 "variant";
    let start = cur.pos in
    let table = Array.init nv (fun _ -> read_variant c cur) in
    c.last_table <- String.sub cur.src start (cur.pos - start);
    c.last_parsed <- table;
    c.last_gen <- gen;
    table
  end

let read_field cur v j =
  get_field cur v.codecs.(j) (Snet.Record.Shape.field_label v.shape j)
    v.key_names.(j)

(* The values of one record of variant [v], straight into its shape's
   slots. *)
let read_record cur v =
  let shape = v.shape in
  let tags =
    match Snet.Record.Shape.ntags shape with
    | 0 -> [||]
    | nt ->
        let a = Array.make nt 0 in
        for i = 0 to nt - 1 do
          a.(i) <- get_tag cur
        done;
        a
  in
  let fields =
    match Array.length v.codecs with
    | 0 -> [||]
    | nf ->
        let a = Array.make nf (read_field cur v 0) in
        for j = 1 to nf - 1 do
          a.(j) <- read_field cur v j
        done;
        a
  in
  Snet.Record.of_shape shape ~fields ~tags

let read_envelope ?ctx:ctx_opt s ~pos =
  with_ctx ctx_opt @@ fun c ->
  result @@ fun () ->
  let crc_at = String.length s - 4 in
  if pos < 0 || String.length s - pos < 5 then
    raise (Bad "envelope shorter than its magic and version");
  check_header s pos ~what:"envelope " envelope_version;
  let start = pos + 5 in
  if crc_at - start < 8 then
    raise (Bad "envelope shorter than its two counts and CRC");
  let declared = Int32.to_int (String.get_int32_be s crc_at) land 0xFFFFFFFF in
  let actual = crc32_string_sub s start (crc_at - start) in
  if declared <> actual then
    raise
      (Bad
         (Printf.sprintf
            "CRC mismatch: envelope says %08x, contents hash to %08x" declared
            actual));
  let cur = { src = s; pos = start; limit = crc_at } in
  let n = get_u32 cur in
  let nv = get_u32 cur in
  let table = read_table c cur nv in
  check_count cur n ~min_bytes:1 "record";
  let rec records k acc =
    if k = n then List.rev acc
    else begin
      let i = get_varint cur in
      if i >= nv then
        raise
          (Bad
             (Printf.sprintf "record %d/%d: variant index %d out of range (%d \
                              in table)"
                (k + 1) n i nv));
      records (k + 1) (read_record cur table.(i) :: acc)
    end
  in
  let rs = records 0 [] in
  if cur.pos <> cur.limit then
    raise
      (Bad
         (Printf.sprintf "%d trailing bytes in envelope" (cur.limit - cur.pos)));
  rs
