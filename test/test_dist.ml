(* Distribution layer: wire format round-trips and corruption
   detection, the coordinator protocol codec, partitioning, transports,
   and differential runs of the partitioned engine against the
   sequential reference. Everything here is hermetic (loopback
   transport, in-process worker threads); the TCP transport cases are
   skipped unless SNET_DIST_TCP=1 (the @dist-smoke tier sets it — real
   sockets don't belong in tier-1). *)

module Wire = Dist.Wire
module Proto = Dist.Proto
module Transport = Dist.Transport
module Engine_dist = Dist.Engine_dist
module Plan = Dist.Plan
module Fault = Dist.Fault
module Record = Snet.Record
module Value = Snet.Value
module Nd = Sacarray.Nd

(* Test-local keys, registered once. [Netspec.register_codecs] covers
   the sudoku board/opts keys used by the differential tests. *)
let nd_int_key : int Nd.t Value.Key.key = Value.Key.create "test.ndi"
let nd_bool_key : bool Nd.t Value.Key.key = Value.Key.create "test.ndb"

let () =
  Wire.register_nd_int nd_int_key;
  Wire.register_nd_bool nd_bool_key;
  Sudoku.Netspec.register_codecs ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Structural record equality via the canonical encoding: equal
   records render to identical frames, so byte equality of frames is
   exactly deep equality (Record.equal compares field payloads by
   physical identity, useless across a codec round-trip). *)
let frame_eq a b = String.equal (Wire.render a) (Wire.render b)

let multiset_eq outs1 outs2 =
  let key rs = List.sort compare (List.map Wire.render rs) in
  key outs1 = key outs2

(* ------------------------------------------------------------------ *)
(* Wire: fixed cases                                                   *)

let test_crc32 () =
  (* The standard check value for CRC-32/IEEE. *)
  Alcotest.(check int32) "check vector" 0xCBF43926l (Wire.crc32 "123456789")

let test_roundtrip_simple () =
  let r =
    Record.of_list
      ~fields:
        [
          ("n", Value.of_int 42);
          ("s", Value.inject Wire.string_key "hello \x00 world");
          ("x", Value.inject Wire.float_key 3.25);
          ("a", Value.inject nd_int_key (Nd.matrix [ [ 1; 2 ]; [ 3; 4 ] ]));
        ]
      ~tags:[ ("k", 3); ("done", 0); ("neg", -7) ]
  in
  match Wire.read (Wire.render r) with
  | Error e -> Alcotest.failf "read failed: %s" e
  | Ok r' ->
      Alcotest.(check bool) "frames equal" true (frame_eq r r');
      Alcotest.(check (option int)) "int field" (Some 42)
        (Option.bind (Record.field "n" r') Value.to_int);
      Alcotest.(check (option string))
        "string field"
        (Some "hello \x00 world")
        (Option.bind (Record.field "s" r') (Value.project Wire.string_key));
      Alcotest.(check (option int)) "tag" (Some (-7)) (Record.tag "neg" r');
      let a =
        Option.get
          (Option.bind (Record.field "a" r') (Value.project nd_int_key))
      in
      Alcotest.(check bool) "nd payload" true
        (Nd.equal Int.equal a (Nd.matrix [ [ 1; 2 ]; [ 3; 4 ] ]))

let test_empty_record () =
  let r = Record.of_list ~fields:[] ~tags:[] in
  match Wire.read (Wire.render r) with
  | Ok r' -> Alcotest.(check bool) "empty" true (frame_eq r r')
  | Error e -> Alcotest.failf "read failed: %s" e

let test_error_record_travels () =
  let input = Record.of_list ~fields:[] ~tags:[ ("k", 1) ] in
  let e =
    Snet.Supervise.error_record ~box:"boom" ~input (Failure "db on fire")
  in
  match Wire.read (Wire.render e) with
  | Error m -> Alcotest.failf "read failed: %s" m
  | Ok e' ->
      Alcotest.(check bool) "still an error" true (Snet.Supervise.is_error e');
      Alcotest.(check (option string))
        "origin" (Some "boom")
        (Snet.Supervise.error_origin e');
      Alcotest.(check bool) "message survives" true
        (match Snet.Supervise.error_message e' with
        | Some m -> contains m "db on fire"
        | None -> false)

let test_unencodable () =
  let rogue : unit Value.Key.key = Value.Key.create "test.unregistered" in
  let r =
    Record.of_list ~fields:[ ("f", Value.inject rogue ()) ] ~tags:[]
  in
  Alcotest.(check bool) "raises Unencodable" true
    (try
       ignore (Wire.render r);
       false
     with Wire.Unencodable _ -> true)

let test_validate_and_garbage () =
  let r = Record.of_list ~fields:[ ("n", Value.of_int 1) ] ~tags:[ ("t", 2) ] in
  let f = Wire.render r in
  (match Wire.validate f with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validate: %s" e);
  let bad s =
    match Wire.read s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted a bad frame (%d bytes)" (String.length s)
  in
  bad "";
  bad "SNRW";
  bad ("XXXX" ^ String.sub f 4 (String.length f - 4));
  (* version bump *)
  let b = Bytes.of_string f in
  Bytes.set b 4 '\x7f';
  bad (Bytes.to_string b);
  (* trailing bytes *)
  bad (f ^ "\x00")

(* ------------------------------------------------------------------ *)
(* Wire: properties                                                    *)

let gen_record =
  let open QCheck.Gen in
  let label = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  let nd_int =
    int_range 0 3 >>= fun rank ->
    list_repeat rank (int_range 0 3) >>= fun dims ->
    let shape = Array.of_list dims in
    let size = Array.fold_left ( * ) 1 shape in
    list_repeat size (int_range (-1000) 1000) >>= fun elems ->
    return (Value.inject nd_int_key (Nd.of_array shape (Array.of_list elems)))
  in
  let nd_bool =
    int_range 0 2 >>= fun rank ->
    list_repeat rank (int_range 0 4) >>= fun dims ->
    let shape = Array.of_list dims in
    let size = Array.fold_left ( * ) 1 shape in
    list_repeat size bool >>= fun elems ->
    return (Value.inject nd_bool_key (Nd.of_array shape (Array.of_list elems)))
  in
  let value =
    oneof
      [
        map Value.of_int int;
        map (Value.inject Wire.string_key) (string_size (int_range 0 40));
        map (Value.inject Wire.float_key) float;
        nd_int;
        nd_bool;
      ]
  in
  list_size (int_range 0 5) (pair label value) >>= fun fields ->
  list_size (int_range 0 5) (pair label int) >>= fun tags ->
  let r = Record.of_list ~fields ~tags in
  bool >>= fun stamp ->
  if stamp then
    return (Snet.Supervise.error_record ~box:"qc" ~input:r (Failure "qc"))
  else return r

let arb_record =
  QCheck.make ~print:(fun r -> Record.to_string r) gen_record

let prop_roundtrip =
  QCheck.Test.make ~name:"wire round-trip: read (render r) = r" ~count:300
    arb_record (fun r ->
      match Wire.read (Wire.render r) with
      | Error e -> QCheck.Test.fail_reportf "read failed: %s" e
      | Ok r' ->
          (* Canonical: the re-render must be byte-identical, and the
             projected payloads must match deeply. *)
          frame_eq r r'
          && List.for_all2
               (fun (l1, _) (l2, _) -> String.equal l1 l2)
               (Record.fields r) (Record.fields r')
          && Record.tags r = Record.tags r')

let prop_corruption =
  QCheck.Test.make ~name:"wire: corrupt/truncated frames rejected" ~count:300
    (QCheck.pair arb_record (QCheck.make QCheck.Gen.(pair pint pint)))
    (fun (r, (pos_seed, byte_seed)) ->
      let f = Wire.render r in
      let n = String.length f in
      (* Flip one byte to a guaranteed-different value... *)
      let pos = pos_seed mod n in
      let b = Bytes.of_string f in
      let old = Char.code (Bytes.get b pos) in
      Bytes.set b pos (Char.chr ((old + 1 + (byte_seed mod 255)) mod 256));
      let mutated = Bytes.to_string b in
      let mutated_rejected =
        String.equal mutated f
        ||
        match Wire.read mutated with Error _ -> true | Ok _ -> false
      in
      (* ...and cut the frame short anywhere. *)
      let truncated_rejected =
        match Wire.read (String.sub f 0 (pos_seed mod n)) with
        | Error _ -> true
        | Ok _ -> false
      in
      mutated_rejected && truncated_rejected)

(* ------------------------------------------------------------------ *)
(* Proto                                                               *)

let test_proto_roundtrip () =
  let r = Record.of_list ~fields:[ ("n", Value.of_int 9) ] ~tags:[ ("k", 1) ] in
  let msgs =
    [
      Proto.Hello
        {
          spec = "fig2:det";
          part = 1;
          parts = 4;
          policy = "retry:3";
          timeout = Some 1.5;
          credits = 32;
          crash_after = -1;
          crash_flush = true;
          batch = 16;
          obsv = 3;
          coord_pid = 12345;
          (* 1 + 2 + 1 partitions: must agree with [parts] above, or
             decode (correctly) rejects the Hello. *)
          plan = "0,1!2,2-3";
        };
      Proto.Hello_ack { part = 1 };
      Proto.Data r;
      Proto.Data_batch [ r; r ];
      Proto.Credit 7;
      Proto.Eof;
      Proto.Done;
      Proto.Crash "it broke";
      Proto.Shutdown;
      Proto.Metrics_report { part = 2; payload = String.make 70000 '\x42' };
      Proto.Trace_chunk { part = 0; payload = "\x00\xff trace bytes" };
    ]
  in
  List.iter
    (fun m ->
      match Proto.decode (Proto.encode m) with
      | Error e -> Alcotest.failf "%s: %s" (Proto.to_string m) e
      | Ok m' -> (
          match (m, m') with
          | Proto.Data a, Proto.Data b ->
              Alcotest.(check bool) "data round-trip" true (frame_eq a b)
          | Proto.Data_batch a, Proto.Data_batch b ->
              Alcotest.(check bool) "batch round-trip" true
                (List.length a = List.length b && List.for_all2 frame_eq a b)
          | ( Proto.Metrics_report { part = pa; payload = ya },
              Proto.Metrics_report { part = pb; payload = yb } )
          | ( Proto.Trace_chunk { part = pa; payload = ya },
              Proto.Trace_chunk { part = pb; payload = yb } ) ->
              (* Payloads are opaque (and may exceed the u16 string
                 cap): compare the bytes, not the rendering. *)
              Alcotest.(check int) "payload part" pa pb;
              Alcotest.(check bool) "payload bytes" true (String.equal ya yb)
          | _ ->
              Alcotest.(check string) "round-trip" (Proto.to_string m)
                (Proto.to_string m')))
    msgs;
  (match Proto.decode "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty message accepted");
  match Proto.decode (String.sub (Proto.encode (Proto.Crash "xyz")) 0 2) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated message accepted"

(* A Data_batch envelope must carry exactly the records that N
   individual Data frames would: same multiset after decode, and any
   truncation or byte flip of the envelope is rejected (the envelope's
   CRC plus its count and length checks leave no silently-corruptible
   region). *)
let prop_batch_envelope =
  QCheck.Test.make ~name:"proto: Data_batch = N x Data (and corruption rejected)"
    ~count:150
    (QCheck.pair
       (QCheck.list_of_size QCheck.Gen.(int_range 1 8) arb_record)
       (QCheck.make QCheck.Gen.(pair pint pint)))
    (fun (rs, (pos_seed, byte_seed)) ->
      let enc = Proto.encode (Proto.Data_batch rs) in
      let decoded =
        match Proto.decode enc with
        | Ok (Proto.Data_batch rs') -> rs'
        | Ok (Proto.Data r) -> [ r ]
        | Ok m ->
            QCheck.Test.fail_reportf "unexpected decode: %s" (Proto.to_string m)
        | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      in
      let singles =
        List.map
          (fun r ->
            match Proto.decode (Proto.encode (Proto.Data r)) with
            | Ok (Proto.Data r') -> r'
            | _ -> QCheck.Test.fail_reportf "single Data decode failed")
          rs
      in
      let same = multiset_eq decoded singles in
      let n = String.length enc in
      (* Truncate anywhere strictly inside the envelope... *)
      let cut = pos_seed mod n in
      let truncated_rejected =
        match Proto.decode (String.sub enc 0 cut) with
        | Error _ -> true
        | Ok (Proto.Data_batch rs') -> not (multiset_eq rs' decoded)
        | Ok _ -> false
      in
      (* ...and flip one byte past the kind tag (flipping the kind
         byte may legitimately decode as another message kind). *)
      let pos = 1 + (pos_seed mod (n - 1)) in
      let b = Bytes.of_string enc in
      let old = Char.code (Bytes.get b pos) in
      Bytes.set b pos (Char.chr ((old + 1 + (byte_seed mod 255)) mod 256));
      let mutated = Bytes.to_string b in
      let mutated_rejected =
        String.equal mutated enc
        ||
        match Proto.decode mutated with
        | Error _ -> true
        | Ok (Proto.Data_batch rs') -> not (multiset_eq rs' decoded)
        | Ok _ -> false
      in
      same && truncated_rejected && mutated_rejected)

(* Envelopes of several variants at once: tag-only records, error
   records (string fields) and fig2 board+options records, interleaved.
   Order and every value survive, a ctx changes neither the bytes nor
   the result, and a three-tag record costs at most 31 bytes in a
   32-record envelope, under half its canonical frame. *)
let test_envelope_mixed () =
  let tag_only i =
    Record.of_list ~fields:[]
      ~tags:[ ("bid", i); ("dist_seq", i + 7); ("x", -i) ]
  in
  let board = Sudoku.Puzzles.easy in
  let opts = Sudoku.Rules.init_options board in
  let puzzle =
    Record.of_list
      ~fields:
        [
          ("board", Value.inject Sudoku.Boxes.board_field board);
          ("opts", Value.inject Sudoku.Boxes.opts_field opts);
        ]
      ~tags:[ ("k", 4) ]
  in
  let err i =
    Snet.Supervise.error_record ~box:"qc" ~input:(tag_only i)
      (Failure "bad \x00 input")
  in
  let rs =
    List.concat_map
      (fun i -> [ tag_only i; puzzle; err i; Record.empty ])
      [ 1; 2; 3 ]
  in
  let ctx = Wire.ctx () in
  let enc = Proto.encode ~ctx (Proto.Data_batch rs) in
  Alcotest.(check string) "a ctx does not change the bytes" enc
    (Proto.encode (Proto.Data_batch rs));
  let decoded ?ctx s =
    match Proto.decode ?ctx s with
    | Ok (Proto.Data_batch rs') -> rs'
    | Ok (Proto.Data r) -> [ r ]
    | Ok m -> Alcotest.failf "unexpected decode: %s" (Proto.to_string m)
    | Error e -> Alcotest.failf "decode failed: %s" e
  in
  let same what a b =
    Alcotest.(check bool) what true
      (List.length a = List.length b && List.for_all2 frame_eq a b)
  in
  same "mixed round trip, in order" rs (decoded enc);
  same "with and without a ctx" (decoded ~ctx enc) (decoded enc);
  (* A ctx that has just read the mixed table reads a singleton's. *)
  same "ctx reused on a singleton" [ puzzle ]
    (decoded ~ctx (Proto.encode ~ctx (Proto.Data puzzle)));
  (* A decoding ctx reuses the last table it parsed when the next
     table's bytes are equal: a table of the same size and shape but
     one different label must not be taken for it. *)
  let twin i =
    Record.of_list ~fields:[]
      ~tags:[ ("bie", i); ("dist_seq", i + 7); ("x", -i) ]
  in
  List.iter
    (fun r ->
      same "same-shaped tables, one ctx" [ r; r ]
        (decoded ~ctx (Proto.encode ~ctx (Proto.Data_batch [ r; r ]))))
    [ tag_only 1; twin 1; tag_only 2; twin 2 ];
  let b32 = Proto.encode (Proto.Data_batch (List.init 32 tag_only)) in
  let per_record = float_of_int (String.length b32) /. 32. in
  if per_record > 31. then
    Alcotest.failf "tag-only record costs %.1f bytes in a 32-record envelope"
      per_record;
  let frame = String.length (Wire.render (tag_only 1)) in
  if 2. *. per_record >= float_of_int frame then
    Alcotest.failf "%.1f bytes per record is not under half the %d-byte frame"
      per_record frame;
  let rogue : unit Value.Key.key = Value.Key.create "test.unregistered" in
  let unencodable =
    Record.of_list ~fields:[ ("f", Value.inject rogue ()) ] ~tags:[]
  in
  Alcotest.(check bool) "unregistered key raises Unencodable" true
    (try
       ignore
         (Proto.encode ~ctx (Proto.Data_batch [ tag_only 1; unencodable ]));
       false
     with Wire.Unencodable _ -> true);
  same "ctx still sound after an encode failed" rs
    (decoded ~ctx (Proto.encode ~ctx (Proto.Data_batch rs)))

(* Hand-built Data_batch envelopes: [batch_of body] adds the kind byte,
   magic and version and computes the CRC over [body], so only the
   structural checks can reject. *)
let be n width =
  let b = Bytes.create width in
  (match width with
  | 2 -> Bytes.set_uint16_be b 0 n
  | 4 -> Bytes.set_int32_be b 0 (Int32.of_int n)
  | _ -> Bytes.set_int64_be b 0 (Int64.of_int n));
  Bytes.to_string b

let be16 n = be n 2
let be32 n = be n 4
let be64 n = be n 8
let str16 s = be16 (String.length s) ^ s

let batch_of body =
  "\x09" ^ Wire.magic ^ "\x02" ^ body ^ be32 (Int32.to_int (Wire.crc32 body) land 0xFFFFFFFF)

(* A table entry of tag labels only. *)
let tags_variant labels =
  be16 (List.length labels) ^ String.concat "" (List.map str16 labels) ^ be16 0

let test_envelope_rejects () =
  let rejected what s =
    match Proto.decode s with
    | Error _ -> ()
    | Ok m -> Alcotest.failf "%s accepted: %s" what (Proto.to_string m)
  in
  let accepted what s =
    match Proto.decode s with
    | Ok (Proto.Data_batch rs) -> rs
    | Ok m -> Alcotest.failf "%s: unexpected %s" what (Proto.to_string m)
    | Error e -> Alcotest.failf "%s rejected: %s" what e
  in
  let index i = String.make 1 (Char.chr i) in
  (* Two variants, {<a>} and {<a>,<b>}; one record of each. *)
  let table = be32 2 ^ tags_variant [ "a" ] ^ tags_variant [ "a"; "b" ] in
  let body ~i0 ~i1 =
    be32 2 ^ table ^ index i0 ^ be64 5 ^ index i1 ^ be64 6 ^ be64 7
  in
  let tags = Alcotest.(list (pair string int)) in
  (match accepted "hand-built envelope" (batch_of (body ~i0:0 ~i1:1)) with
  | [ r1; r2 ] ->
      Alcotest.check tags "first" [ ("a", 5) ] (Record.tags r1);
      Alcotest.check tags "second" [ ("a", 6); ("b", 7) ] (Record.tags r2)
  | rs -> Alcotest.failf "%d records" (List.length rs));
  (* A forged index under the old CRC fails the CRC; under a fixed-up
     CRC it is caught when it points outside the table, or when the
     variant it names does not fit the bytes that follow. *)
  let good = batch_of (body ~i0:0 ~i1:1) in
  let forged = Bytes.of_string good in
  Bytes.set forged (String.length good - 4 - 26) '\x01';
  rejected "forged index, stale CRC" (Bytes.to_string forged);
  rejected "index past the table" (batch_of (body ~i0:0 ~i1:2));
  rejected "index far past the table (two-byte varint)"
    (batch_of (be32 1 ^ be32 1 ^ tags_variant [ "a" ] ^ "\x80\x01" ^ be64 5));
  rejected "forged index, shapes disagree" (batch_of (body ~i0:1 ~i1:0));
  rejected "record but no table" (batch_of (be32 1 ^ be32 0 ^ index 0));
  (* Labels out of canonical order would pair values with the wrong
     labels: b=1, a=2 as sent would decode as a=1, b=2. *)
  let one_record variant values =
    batch_of
      (be32 1 ^ be32 1 ^ variant ^ index 0
      ^ String.concat "" (List.map be64 values))
  in
  let sorted = one_record (tags_variant [ "a"; "b" ]) [ 1; 2 ] in
  ignore (accepted "sorted tags" sorted);
  rejected "unsorted tag labels"
    (one_record (tags_variant [ "b"; "a" ]) [ 1; 2 ]);
  rejected "duplicate tag labels"
    (one_record (tags_variant [ "a"; "a" ]) [ 1; 2 ]);
  let two_fields pairs =
    let variant =
      be16 0 ^ be16 (List.length pairs)
      ^ String.concat "" (List.map (fun (l, k) -> str16 l ^ str16 k) pairs)
    in
    let int_payload n = be32 8 ^ be64 n in
    batch_of
      (be32 1 ^ be32 1 ^ variant ^ index 0 ^ int_payload 1 ^ int_payload 2)
  in
  ignore (accepted "sorted fields" (two_fields [ ("m", "int"); ("n", "int") ]));
  rejected "unsorted field labels" (two_fields [ ("n", "int"); ("m", "int") ]);
  rejected "duplicate field labels" (two_fields [ ("n", "int"); ("n", "int") ]);
  rejected "unknown codec" (two_fields [ ("m", "int"); ("n", "test.nowhere") ]);
  (* Counts the bytes cannot hold are refused by the count check,
     before anything is allocated for them: claiming 2^31 records (or
     variants, or 65535 labels) in a tiny envelope allocates nowhere
     near 2^31 words. The bound is loose because other threads of the
     process allocate too. *)
  let a_record = index 0 ^ be64 5 in
  List.iter
    (fun (what, body) ->
      let before = Gc.allocated_bytes () in
      (match Proto.decode (batch_of body) with
      | Error e when contains e "count" -> ()
      | Error e -> Alcotest.failf "%s: rejected by another check: %s" what e
      | Ok _ -> Alcotest.failf "%s accepted" what);
      let bytes = Gc.allocated_bytes () -. before in
      if bytes > 64e6 then Alcotest.failf "%s: allocated %.0f bytes" what bytes)
    [
      ("record count", be32 0x7FFFFFFF ^ be32 1 ^ tags_variant [ "a" ] ^ a_record);
      ("variant count", be32 1 ^ be32 0x7FFFFFFF ^ tags_variant [ "a" ] ^ a_record);
      ("label count", be32 1 ^ be32 1 ^ be16 0xFFFF ^ str16 "a" ^ be16 0 ^ index 0);
    ];
  rejected "one record short"
    (batch_of (be32 3 ^ table ^ a_record ^ index 0 ^ be64 6));
  rejected "trailing bytes" (batch_of (body ~i0:0 ~i1:1 ^ "\x00"));
  rejected "shorter than the counts" (batch_of "\x00\x00\x00");
  rejected "Data holding two records"
    ("\x03" ^ String.sub good 1 (String.length good - 1));
  (* Before envelopes, a Data payload was one canonical frame and a
     Data_batch payload a count of length-prefixed frames. Such a peer
     is refused by the version byte, with a reason that says so. *)
  let r = Record.of_list ~fields:[] ~tags:[ ("bid", 1) ] in
  let frame = Wire.render r in
  let old_peer what s =
    match Proto.decode s with
    | Error e when contains e "unsupported envelope version 1" -> ()
    | Error e -> Alcotest.failf "%s: rejected for another reason: %s" what e
    | Ok m -> Alcotest.failf "%s accepted: %s" what (Proto.to_string m)
  in
  old_peer "pre-envelope Data" ("\x03" ^ frame);
  rejected "pre-envelope Data_batch"
    ("\x09" ^ be32 1 ^ be32 (String.length frame) ^ frame)

(* ------------------------------------------------------------------ *)
(* Partitioning                                                        *)

(* The default cut: [Plan.contiguous] over per-segment box counts.
   Coordinator and workers both rebuild each partition's subnet from
   the plan, so the plan alone must preserve the network. *)
let test_partition () =
  let net = Sudoku.Networks.fig3 () in
  let total = Snet.Net.count_boxes net in
  let segs = Array.of_list (Engine_dist.segments net) in
  let weights =
    Array.to_list (Array.map (fun s -> max 1 (Snet.Net.count_boxes s)) segs)
  in
  let subnets plan =
    Array.to_list
      (Array.map
         (function
           | Plan.Shard _ -> Alcotest.fail "contiguous produced a shard stage"
           | Plan.Run { lo; hi } ->
               Snet.Net.serial_list
                 (Array.to_list (Array.sub segs lo (hi - lo + 1))))
         plan)
  in
  for parts = 1 to 6 do
    let ps = subnets (Plan.contiguous ~parts ~weights) in
    Alcotest.(check bool)
      (Printf.sprintf "parts<=%d" parts)
      true
      (List.length ps >= 1 && List.length ps <= parts);
    Alcotest.(check int)
      (Printf.sprintf "boxes preserved (%d)" parts)
      total
      (List.fold_left (fun a n -> a + Snet.Net.count_boxes n) 0 ps);
    (* Stability: re-cutting at the achieved count is a fixpoint. *)
    let again =
      subnets (Plan.contiguous ~parts:(List.length ps) ~weights)
    in
    Alcotest.(check (list string))
      (Printf.sprintf "stable (%d)" parts)
      (List.map Snet.Net.to_string ps)
      (List.map Snet.Net.to_string again)
  done;
  (* Order preserved: fig3 is a serial_list, so one part rebuilds it. *)
  Alcotest.(check string) "identity"
    (Snet.Net.to_string net)
    (Snet.Net.to_string
       (List.hd (subnets (Plan.contiguous ~parts:1 ~weights))));
  Alcotest.(check bool) "parts=0 rejected" true
    (try
       ignore (Plan.contiguous ~parts:0 ~weights);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Transports                                                          *)

let test_loopback () =
  let a, b = Transport.loopback_pair () in
  Transport.send a "ping";
  Transport.send a "pong";
  Alcotest.(check bool) "recv 1" true (Transport.recv b = `Msg "ping");
  Alcotest.(check bool) "recv 2" true (Transport.recv b = `Msg "pong");
  Transport.send b "back";
  Alcotest.(check bool) "reverse" true (Transport.recv a = `Msg "back");
  Transport.close a;
  Alcotest.(check bool) "closed recv" true (Transport.recv b = `Closed);
  Alcotest.(check bool) "closed send" true
    (try
       Transport.send b "x";
       false
     with Transport.Closed_conn -> true)

let tcp_enabled () = Sys.getenv_opt "SNET_DIST_TCP" = Some "1"

let test_tcp () =
  if not (tcp_enabled ()) then
    Alcotest.skip ()
  else begin
    let l = Transport.Tcp.listen () in
    let port = Transport.Tcp.port l in
    let server_got = ref [] in
    let server =
      Thread.create
        (fun () ->
          let c = Transport.Tcp.accept ~timeout_s:10.0 l in
          let rec loop () =
            match Transport.Tcp.recv c with
            | `Msg m ->
                server_got := m :: !server_got;
                Transport.Tcp.send c ("echo:" ^ m);
                loop ()
            | `Closed -> Transport.Tcp.close c
          in
          loop ())
        ()
    in
    let c = Transport.Tcp.connect ~host:"127.0.0.1" ~port in
    let big = String.make 100_000 'z' in
    Transport.Tcp.send c "hello";
    Transport.Tcp.send c big;
    Alcotest.(check bool) "echo 1" true (Transport.Tcp.recv c = `Msg "echo:hello");
    Alcotest.(check bool) "echo big" true
      (Transport.Tcp.recv c = `Msg ("echo:" ^ big));
    Transport.Tcp.close c;
    Thread.join server;
    Transport.Tcp.close_listener l;
    Alcotest.(check (list string)) "server saw" [ big; "hello" ] !server_got
  end

let test_tcp_frames_records () =
  if not (tcp_enabled ()) then Alcotest.skip ()
  else begin
    let l = Transport.Tcp.listen () in
    let port = Transport.Tcp.port l in
    let board = Sudoku.Puzzles.easy in
    let r = Sudoku.Boxes.inject_board board in
    let t =
      Thread.create
        (fun () ->
          let c =
            Transport.erase
              (module Transport.Tcp)
              (Transport.Tcp.accept ~timeout_s:10.0 l)
          in
          (match Transport.recv c with
          | `Msg m -> Transport.send c m (* bounce the raw frame *)
          | `Closed -> ());
          Transport.close c)
        ()
    in
    let c =
      Transport.erase
        (module Transport.Tcp)
        (Transport.Tcp.connect ~host:"127.0.0.1" ~port)
    in
    Transport.send c (Wire.render r);
    (match Transport.recv c with
    | `Closed -> Alcotest.fail "connection dropped"
    | `Msg m -> (
        match Wire.read m with
        | Error e -> Alcotest.failf "frame corrupted in flight: %s" e
        | Ok r' -> Alcotest.(check bool) "board survives TCP" true (frame_eq r r')));
    Transport.close c;
    Thread.join t;
    Transport.Tcp.close_listener l
  end

(* ------------------------------------------------------------------ *)
(* Differential: partitioned engine vs sequential reference            *)

let solve_inputs board = [ Sudoku.Boxes.inject_board board ]

let test_dist_vs_seq_fig2 () =
  let board = Sudoku.Puzzles.easy in
  let reference =
    Snet.Engine_seq.run (Sudoku.Networks.fig2 ()) (solve_inputs board)
  in
  List.iter
    (fun workers ->
      let outs =
        Engine_dist.run ~workers (Sudoku.Networks.fig2 ()) (solve_inputs board)
      in
      Alcotest.(check bool)
        (Printf.sprintf "fig2 multiset equal (%d workers)" workers)
        true
        (multiset_eq reference outs))
    [ 1; 2; 4 ]

let test_dist_vs_seq_fig3 () =
  let board = Sudoku.Puzzles.easy in
  let net () = Sudoku.Networks.fig3 () in
  let reference = Snet.Engine_seq.run (net ()) (solve_inputs board) in
  List.iter
    (fun workers ->
      let outs = Engine_dist.run ~workers (net ()) (solve_inputs board) in
      Alcotest.(check bool)
        (Printf.sprintf "fig3 multiset equal (%d workers)" workers)
        true
        (multiset_eq reference outs))
    [ 2; 4 ]

let test_dist_multiple_inputs () =
  (* Several boards through one distributed pipeline: outputs from all
     of them interleave across the cut edges. *)
  let boards =
    [ (Sudoku.Puzzles.find "trivial").Sudoku.Puzzles.board; Sudoku.Puzzles.easy ]
  in
  let inputs = List.map Sudoku.Boxes.inject_board boards in
  let reference = Snet.Engine_seq.run (Sudoku.Networks.fig2 ()) inputs in
  let outs = Engine_dist.run ~workers:2 (Sudoku.Networks.fig2 ()) inputs in
  Alcotest.(check bool) "two boards, multiset equal" true
    (multiset_eq reference outs)

let test_dist_tiny_credits () =
  (* A credit window of 1 forces a park on every record — the engine
     must still drain completely. *)
  let board = Sudoku.Puzzles.easy in
  let stats = Snet.Stats.create () in
  let reference =
    Snet.Engine_seq.run (Sudoku.Networks.fig2 ()) (solve_inputs board)
  in
  let outs =
    Engine_dist.run ~workers:2 ~credits:1 ~stats (Sudoku.Networks.fig2 ())
      (solve_inputs board)
  in
  Alcotest.(check bool) "credits=1 multiset equal" true
    (multiset_eq reference outs)

let test_dist_batch_on_off () =
  (* Batching must be invisible to results: the same network over the
     same inputs, batched (envelopes up to 64 records) and unbatched
     (batch=1 forces plain Data frames both directions), both
     multiset-identical to the sequential reference. *)
  let board = Sudoku.Puzzles.easy in
  List.iter
    (fun (name, net) ->
      let reference = Snet.Engine_seq.run (net ()) (solve_inputs board) in
      List.iter
        (fun workers ->
          List.iter
            (fun batch ->
              let outs =
                Engine_dist.run ~workers ~batch (net ()) (solve_inputs board)
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s %dw batch=%d multiset equal" name workers
                   batch)
                true
                (multiset_eq reference outs))
            [ 1; 64 ])
        [ 2; 4 ])
    [
      ("fig2", fun () -> Sudoku.Networks.fig2 ());
      ("fig3", fun () -> Sudoku.Networks.fig3 ());
    ]

let test_dist_batch_smaller_than_window () =
  (* Batch cap below the credit window and a tiny window with a big
     cap: both degenerate configurations must still drain. *)
  let board = Sudoku.Puzzles.easy in
  let reference =
    Snet.Engine_seq.run (Sudoku.Networks.fig2 ()) (solve_inputs board)
  in
  List.iter
    (fun (credits, batch) ->
      let outs =
        Engine_dist.run ~workers:2 ~credits ~batch (Sudoku.Networks.fig2 ())
          (solve_inputs board)
      in
      Alcotest.(check bool)
        (Printf.sprintf "credits=%d batch=%d multiset equal" credits batch)
        true
        (multiset_eq reference outs))
    [ (32, 3); (2, 64); (1, 64) ]

(* ------------------------------------------------------------------ *)
(* Worker failure                                                      *)

let error_record_cfg =
  Snet.Supervise.make ~policy:Snet.Supervise.Error_record ()

let test_worker_kill_error_record () =
  let board = Sudoku.Puzzles.easy in
  let outs =
    Engine_dist.run ~workers:2 ~fault:Fault.[ Crash { part = 1; seam = Record; crossing = 1 } ]
      ~supervision:error_record_cfg (Sudoku.Networks.fig2 ())
      (solve_inputs board)
  in
  let errors = List.filter Snet.Supervise.is_error outs in
  Alcotest.(check bool) "stamped error records delivered" true (errors <> []);
  List.iter
    (fun e ->
      Alcotest.(check (option string))
        "origin names the dead worker" (Some "dist:worker1")
        (Snet.Supervise.error_origin e))
    errors

let test_worker_kill_fail_fast () =
  let board = Sudoku.Puzzles.easy in
  Alcotest.(check bool) "fail-fast raises" true
    (try
       ignore
         (Engine_dist.run ~workers:2 ~fault:Fault.[ Crash { part = 1; seam = Record; crossing = 1 } ]
            (Sudoku.Networks.fig2 ()) (solve_inputs board));
       false
     with Failure m -> contains m "dist:worker1")

let test_worker_kill_retry_recovers () =
  let board = Sudoku.Puzzles.easy in
  let reference =
    Snet.Engine_seq.run (Sudoku.Networks.fig2 ()) (solve_inputs board)
  in
  let outs =
    Engine_dist.run ~workers:2 ~fault:Fault.[ Crash { part = 1; seam = Record; crossing = 1 } ]
      ~supervision:(Snet.Supervise.make ~policy:(Snet.Supervise.Retry 2) ())
      (Sudoku.Networks.fig2 ()) (solve_inputs board)
  in
  Alcotest.(check bool) "respawned worker recovers the run" true
    (multiset_eq reference outs)

(* ------------------------------------------------------------------ *)
(* Cluster telemetry                                                   *)

(* Metrics aggregation under worker death, one run per supervision
   policy: whatever the policy does with the run itself, the collector
   must keep the dead partition's last report, flag it dead with a
   reason (Retry re-arms it at respawn), and the cluster snapshot must
   stay well-formed and JSON round-trippable. *)
let test_collector_survives_worker_death () =
  let board = Sudoku.Puzzles.easy in
  let run_one supervision col =
    try
      ignore
        (Engine_dist.run ~workers:2 ~fault:Fault.[ Crash { part = 1; seam = Record; crossing = 1 } ] ?supervision
           ~collector:col (Sudoku.Networks.fig2 ()) (solve_inputs board))
    with Failure _ -> ()
  in
  List.iter
    (fun (label, supervision, expect_alive, check_survivor) ->
      let col = Obsv.Agg.create () in
      run_one supervision col;
      let cl = Obsv.Agg.cluster col in
      Alcotest.(check int)
        (label ^ ": both partitions tracked")
        2 cl.Obsv.Agg.workers_seen;
      (match
         List.find_opt (fun p -> p.Obsv.Health.part = 1) cl.Obsv.Agg.parts
       with
      | Some p ->
          Alcotest.(check bool)
            (label ^ ": liveness after the kill")
            expect_alive p.Obsv.Health.alive;
          if not expect_alive then
            Alcotest.(check bool)
              (label ^ ": death carries a reason")
              true
              (p.Obsv.Health.reason <> "")
      | None -> Alcotest.failf "%s: killed partition missing" label);
      (match
         List.find_opt (fun p -> p.Obsv.Health.part = 0) cl.Obsv.Agg.parts
       with
      | Some p ->
          (* Under fail-fast the whole run is torn down, which may
             mark the innocent partition dead too — its liveness is
             policy noise, not a collector property. *)
          if check_survivor then
            Alcotest.(check bool)
              (label ^ ": surviving partition alive")
              true p.Obsv.Health.alive
      | None -> Alcotest.failf "%s: surviving partition missing" label);
      match Obsv.Agg.cluster_of_json (Obsv.Agg.cluster_to_json cl) with
      | Ok cl' ->
          Alcotest.(check int)
            (label ^ ": cluster json round-trips")
            (List.length cl.Obsv.Agg.parts)
            (List.length cl'.Obsv.Agg.parts)
      | Error e -> Alcotest.failf "%s: cluster json broken: %s" label e)
    [
      ("fail-fast", None, false, false);
      ("error-record", Some error_record_cfg, false, true);
      ( "retry",
        Some (Snet.Supervise.make ~policy:(Snet.Supervise.Retry 2) ()),
        (* The respawned worker re-Hellos, which re-arms liveness. *)
        true,
        true );
    ]

(* Trace-context propagation across cut edges: the tag rides the wire
   but never leaks into user-visible outputs, and the merged trace
   pairs every cross-edge flow arrow start with exactly one end. *)
let test_trace_propagation_loopback () =
  Obsv.Sink.clear ();
  Obsv.Sink.enable ();
  let col = Obsv.Agg.create () in
  let board = Sudoku.Puzzles.easy in
  let outs =
    Fun.protect
      ~finally:(fun () -> Obsv.Sink.disable ())
      (fun () ->
        Engine_dist.run ~workers:2 ~collector:col (Sudoku.Networks.fig2 ())
          (solve_inputs board))
  in
  Alcotest.(check bool) "outputs solved" true (outs <> []);
  List.iter
    (fun r ->
      Alcotest.(check (option int))
        "no trace tag on outputs" None
        (Record.tag Obsv.Probe.trace_tag r))
    outs;
  let merged =
    Obsv.Agg.merged_trace col ~local_events:(Obsv.Sink.events ())
  in
  Obsv.Sink.clear ();
  (match Obsv.Export.validate (Obsv.Export.render merged) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "merged trace invalid: %s" e);
  let starts, ends =
    List.fold_left
      (fun (s, e) -> function
        | Obsv.Export.Flow_start { id; _ } -> (id :: s, e)
        | Obsv.Export.Flow_end { id; _ } -> (s, id :: e)
        | _ -> (s, e))
      ([], []) merged
  in
  Alcotest.(check bool) "cut-edge flows present" true (starts <> []);
  Alcotest.(check (list int))
    "every flow start meets exactly one end"
    (List.sort compare starts) (List.sort compare ends)

(* ------------------------------------------------------------------ *)
(* Placement plans                                                     *)

let test_plan_codec () =
  let samples =
    [
      [| Plan.Run { lo = 0; hi = 0 } |];
      [| Plan.Run { lo = 0; hi = 1 }; Plan.Run { lo = 2; hi = 4 } |];
      [|
        Plan.Run { lo = 0; hi = 0 };
        Plan.Shard { seg = 1; shards = 4 };
        Plan.Run { lo = 2; hi = 3 };
      |];
      [| Plan.Shard { seg = 0; shards = 2 } |];
    ]
  in
  List.iter
    (fun p ->
      (match Plan.validate p with
      | Ok () -> ()
      | Error e -> Alcotest.failf "sample plan invalid: %s" e);
      match Plan.decode (Plan.encode p) with
      | Error e -> Alcotest.failf "decode %S: %s" (Plan.encode p) e
      | Ok p' ->
          Alcotest.(check bool)
            (Printf.sprintf "%S round-trips" (Plan.encode p))
            true (p = p'))
    samples;
  Alcotest.(check string) "wire form" "0,1!4,2-3"
    (Plan.encode
       [|
         Plan.Run { lo = 0; hi = 0 };
         Plan.Shard { seg = 1; shards = 4 };
         Plan.Run { lo = 2; hi = 3 };
       |]);
  List.iter
    (fun s ->
      match Plan.decode s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%S rejected as bad plan" s)
            true
            (String.length e >= 8 && String.sub e 0 8 = "bad plan"))
    [ ""; "x"; "1-0"; "0,2"; "1,0-1"; "0!0"; "0,1!-3"; "0,,1"; "0-1-2" ]

let test_plan_arithmetic () =
  let p =
    [|
      Plan.Run { lo = 0; hi = 1 };
      Plan.Shard { seg = 2; shards = 3 };
      Plan.Run { lo = 3; hi = 3 };
    |]
  in
  Alcotest.(check int) "parts" 5 (Plan.parts p);
  Alcotest.(check int) "nsegs" 4 (Plan.nsegs p);
  Alcotest.(check int) "base of shard stage" 1 (Plan.base p 1);
  Alcotest.(check int) "base of last stage" 4 (Plan.base p 2);
  Alcotest.(check (list int))
    "stage of each partition" [ 0; 1; 1; 1; 2 ]
    (List.init 5 (Plan.stage_of_part p));
  Alcotest.(check bool) "every shard replica runs the shard segment" true
    (List.for_all
       (fun part -> Plan.segments_of_part p part = (2, 2))
       [ 1; 2; 3 ]);
  Alcotest.(check bool) "run partition owns its range" true
    (Plan.segments_of_part p 0 = (0, 1) && Plan.segments_of_part p 4 = (3, 3));
  Alcotest.(check bool) "partition out of range" true
    (try
       ignore (Plan.stage_of_part p 5);
       false
     with Invalid_argument _ -> true);
  (* shard_of: in range, deterministic, and actually spreading. *)
  let shards = 4 in
  let hits = Array.make shards 0 in
  for v = -16 to 64 do
    let s = Plan.shard_of ~shards v in
    Alcotest.(check bool) "shard in range" true (s >= 0 && s < shards);
    Alcotest.(check int) "shard deterministic" s (Plan.shard_of ~shards v);
    hits.(s) <- hits.(s) + 1
  done;
  Alcotest.(check bool) "hash spreads over replicas" true
    (Array.for_all (fun n -> n > 0) hits);
  Alcotest.(check int) "single shard degenerates" 0 (Plan.shard_of ~shards:1 42)

(* ------------------------------------------------------------------ *)
(* Netstate wire codec (migration payloads)                            *)

let sample_netstate () =
  let r = Record.of_list ~fields:[] ~tags:[ ("k", 3) ] in
  {
    Snet.Netstate.syncs =
      [
        ( "serial.0/sync",
          { Snet.Netstate.slots = [ Some r; None ]; spent = false } );
      ];
    splits = [ ("split.1", [ 0; 2; 5 ]) ];
    stars = [ ("star.2", 3) ];
  }

let test_statecodec_roundtrip () =
  let st = sample_netstate () in
  (match Dist.Statecodec.decode (Dist.Statecodec.encode st) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok st' ->
      Alcotest.(check bool) "state round-trips" true
        (Snet.Netstate.equal st st'));
  (match Dist.Statecodec.decode (Dist.Statecodec.encode Snet.Netstate.empty) with
  | Error e -> Alcotest.failf "empty decode failed: %s" e
  | Ok st' ->
      Alcotest.(check bool) "empty stays empty" true
        (Snet.Netstate.is_empty st'));
  let enc = Dist.Statecodec.encode st in
  let reject label img =
    match Dist.Statecodec.decode img with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" label
  in
  reject "bad magic" ("\x00" ^ String.sub enc 1 (String.length enc - 1));
  reject "truncated" (String.sub enc 0 (String.length enc / 2));
  reject "trailing bytes" (enc ^ "\x00");
  (* Flip every byte position in turn. Metadata flips (paths, counts,
     markers) may legitimately decode to a different well-formed state
     or be rejected — but a stored record can never be silently
     corrupted: its bytes are a complete Wire frame with its own CRC,
     so every surviving record must render back to the original
     frame. The decoder must also never raise. *)
  let original_frame =
    Wire.render (Record.of_list ~fields:[] ~tags:[ ("k", 3) ])
  in
  for pos = 0 to String.length enc - 1 do
    let b = Bytes.of_string enc in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x5a));
    match Dist.Statecodec.decode (Bytes.to_string b) with
    | Error _ -> ()
    | Ok st' ->
        List.iter
          (fun (_, cell) ->
            List.iter
              (function
                | None -> ()
                | Some r ->
                    if not (String.equal (Wire.render r) original_frame) then
                      Alcotest.failf
                        "flip at %d silently corrupted a stored record" pos)
              cell.Snet.Netstate.slots)
          st'.Snet.Netstate.syncs
  done

(* ------------------------------------------------------------------ *)
(* Hello shard-map validation                                          *)

(* A worker must reject a Hello whose shard map is malformed or
   inconsistent with the Hello's own part/parts fields at decode time,
   instead of crashing on an out-of-bounds lookup later. *)
let test_hello_rejects_bad_shard_map () =
  let hello ~part ~parts ~plan =
    Proto.encode
      (Proto.Hello
         {
           spec = "shard:shards=2";
           part;
           parts;
           policy = "";
           timeout = None;
           credits = 32;
           crash_after = -1;
           crash_flush = false;
           batch = 16;
           obsv = 0;
           coord_pid = 1;
           plan;
         })
  in
  let expect_reject label msg ~part ~parts ~plan =
    match Proto.decode (hello ~part ~parts ~plan) with
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: message names the problem (%s)" label e)
          true (contains e msg)
  in
  (* Consistent map: accepted. *)
  (match Proto.decode (hello ~part:3 ~parts:4 ~plan:"0,1!2,2") with
  | Ok (Proto.Hello h) ->
      Alcotest.(check string) "plan carried" "0,1!2,2" h.Proto.plan
  | Ok _ -> Alcotest.fail "decoded as something else"
  | Error e -> Alcotest.failf "consistent Hello rejected: %s" e);
  expect_reject "plan/parts mismatch" "implies 4 partitions" ~part:0 ~parts:3
    ~plan:"0,1!2,2";
  expect_reject "partition out of range" "out of range" ~part:7 ~parts:4
    ~plan:"0,1!2,2";
  expect_reject "malformed map" "bad plan" ~part:0 ~parts:2 ~plan:"0,huh"

(* A worker runs only the cut its Hello names: a Hello without a plan
   is answered with a Crash that names the plan, never a Hello_ack. *)
let test_hello_without_plan_refused () =
  let a, b = Transport.loopback_pair () in
  let worker =
    Thread.create
      (fun () ->
        Engine_dist.serve ~conn:b
          ~resolve:(fun _ -> Sudoku.Networks.fig3 ())
          ())
      ()
  in
  Transport.send a
    (Proto.encode
       (Proto.Hello
          {
            spec = "fig3";
            part = 0;
            parts = 2;
            policy = "";
            timeout = None;
            credits = 32;
            crash_after = -1;
            crash_flush = false;
            batch = 16;
            obsv = 0;
            coord_pid = 0;
            plan = "";
          }));
  let rec replies acc =
    match Transport.recv a with
    | `Closed -> List.rev acc
    | `Msg m -> (
        match Proto.decode m with
        | Ok (Proto.Hello_ack _) ->
            Transport.close a;
            Thread.join worker;
            Alcotest.fail "Hello without a plan acknowledged"
        | Ok msg -> replies (msg :: acc)
        | Error e -> Alcotest.failf "undecodable reply: %s" e)
  in
  let got = replies [] in
  Thread.join worker;
  Transport.close a;
  match got with
  | [ Proto.Crash e ] ->
      Alcotest.(check bool)
        (Printf.sprintf "crash names the plan (%s)" e)
        true (contains e "plan")
  | msgs ->
      Alcotest.failf "expected one Crash, got [%s]"
        (String.concat "; " (List.map Proto.to_string msgs))

(* ------------------------------------------------------------------ *)
(* Differential: sharded [!!] across workers vs sequential reference   *)

let shard_inputs n =
  List.init n (fun i -> Record.of_list ~fields:[] ~tags:[ ("x", i) ])

let shard_plan shards =
  [|
    Plan.Run { lo = 0; hi = 0 };
    Plan.Shard { seg = 1; shards };
    Plan.Run { lo = 2; hi = 2 };
  |]

let test_dist_shard_vs_seq () =
  let inputs = shard_inputs 48 in
  let reference =
    Snet.Engine_seq.run (Sudoku.Networks.shard ()) inputs
  in
  List.iter
    (fun shards ->
      let plan = shard_plan shards in
      let outs =
        Engine_dist.run
          ~workers:(Plan.parts plan)
          ~plan (Sudoku.Networks.shard ()) inputs
      in
      Alcotest.(check int)
        (Printf.sprintf "every record accounted for (x%d)" shards)
        (List.length reference) (List.length outs);
      Alcotest.(check bool)
        (Printf.sprintf "shard x%d multiset equal" shards)
        true
        (multiset_eq reference outs))
    [ 1; 2; 4 ]

(* Same differential over real worker processes and TCP, gated like
   the other socket tests; needs the worker binary (the @dist-smoke
   alias points SNET_WORKER_EXE at it). *)
let test_dist_shard_tcp () =
  match Sys.getenv_opt "SNET_WORKER_EXE" with
  | None -> Alcotest.skip ()
  | Some _ when not (tcp_enabled ()) -> Alcotest.skip ()
  | Some worker_exe ->
      let inputs = shard_inputs 32 in
      let net = Sudoku.Networks.shard ~shards:2 () in
      let reference = Snet.Engine_seq.run net inputs in
      let plan = shard_plan 2 in
      let outs =
        Engine_dist.run_spawned ~worker_exe
          ~spec:(Sudoku.Netspec.spec ~shards:2 "shard")
          ~workers:(Plan.parts plan) ~plan net inputs
      in
      Alcotest.(check bool) "spawned shard multiset equal" true
        (multiset_eq reference outs)

(* Kill one shard replica under each supervision policy: the sharded
   cut must behave exactly like the contiguous one did — stamped error
   records name the dead replica, fail-fast tears the run down naming
   it, retry recovers the full output. Partition 2 is the second
   replica of the shard stage. *)
let test_dist_shard_kill_worker () =
  let inputs = shard_inputs 48 in
  let plan = shard_plan 2 in
  let reference =
    Snet.Engine_seq.run (Sudoku.Networks.shard ()) inputs
  in
  (* error-record *)
  let outs =
    Engine_dist.run
      ~workers:(Plan.parts plan)
      ~plan ~fault:Fault.[ Crash { part = 2; seam = Record; crossing = 1 } ] ~supervision:error_record_cfg
      (Sudoku.Networks.shard ()) inputs
  in
  let errors = List.filter Snet.Supervise.is_error outs in
  Alcotest.(check bool) "shard kill: error records delivered" true
    (errors <> []);
  List.iter
    (fun e ->
      Alcotest.(check (option string))
        "shard kill: origin names the dead replica" (Some "dist:worker2")
        (Snet.Supervise.error_origin e))
    errors;
  (* fail-fast *)
  Alcotest.(check bool) "shard kill: fail-fast raises" true
    (try
       ignore
         (Engine_dist.run
            ~workers:(Plan.parts plan)
            ~plan ~fault:Fault.[ Crash { part = 2; seam = Record; crossing = 1 } ]
            (Sudoku.Networks.shard ()) inputs);
       false
     with Failure m -> contains m "dist:worker2");
  (* retry *)
  let outs =
    Engine_dist.run
      ~workers:(Plan.parts plan)
      ~plan ~fault:Fault.[ Crash { part = 2; seam = Record; crossing = 1 } ]
      ~supervision:(Snet.Supervise.make ~policy:(Snet.Supervise.Retry 2) ())
      (Sudoku.Networks.shard ()) inputs
  in
  Alcotest.(check bool) "shard kill: retry recovers" true
    (multiset_eq reference outs)

(* ------------------------------------------------------------------ *)
(* Batched cut-edge routing under pressure                             *)

(* Run [f] on its own thread and fail the test if it has not returned
   within [seconds]: a routing deadlock shows up as a failure, not as a
   hung suite. *)
let within ~seconds label f =
  let result = ref None and mu = Mutex.create () in
  let t =
    Thread.create
      (fun () ->
        let r = try Ok (f ()) with e -> Error e in
        Mutex.lock mu;
        result := Some r;
        Mutex.unlock mu)
      ()
  in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec wait () =
    Mutex.lock mu;
    let r = !result in
    Mutex.unlock mu;
    match r with
    | Some r -> (
        Thread.join t;
        match r with Ok v -> v | Error e -> raise e)
    | None ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "%s: still running after %.0f s" label seconds;
        Thread.delay 0.005;
        wait ()
  in
  wait ()

let stress_records = 5_000

(* Every input's output exactly once, and nothing else: the shard
   net's [z] is injective in [x], so multiset identity with the
   sequential reference plus distinct [z]s is exactly-once delivery. *)
let check_exactly_once label reference outs =
  Alcotest.(check int)
    (label ^ ": one output per input")
    (List.length reference) (List.length outs);
  let zs = List.sort_uniq compare (List.filter_map (Record.tag "z") outs) in
  Alcotest.(check int) (label ^ ": no duplicate") (List.length outs)
    (List.length zs);
  Alcotest.(check bool) (label ^ ": multiset = seq") true
    (multiset_eq reference outs)

(* A long stream through the sharded cut with a 64-record envelope
   cap and windows of 1, 2 and 32: worker output batches are grouped
   per shard replica and routed whole, and wherever a batch exceeds
   the room left in its destination's window the router must block
   mid-batch and resume. [run] executes one configuration; under
   Retry the first partition dies mid-stream after flushing outputs
   it was never credited for, so the batch-wide watermark must dedupe
   the resend. *)
let batched_routing_stress ~run ~plan net inputs =
  let reference = Snet.Engine_seq.run net inputs in
  let retry = Snet.Supervise.make ~policy:(Snet.Supervise.Retry 2) () in
  List.iter
    (fun credits ->
      List.iter
        (fun (name, supervision, kill) ->
          let label = Printf.sprintf "credits=%d %s" credits name in
          let outs =
            within ~seconds:60. label (fun () ->
                run ~plan ~credits ?supervision ~kill net inputs)
          in
          check_exactly_once label reference outs)
        [
          ("fail-fast", None, None);
          ( "retry + kill",
            Some retry,
            Some
              Fault.
                [
                  Crash
                    { part = 0; seam = Flush; crossing = (List.length inputs / 2) + 1 };
                ] );
        ])
    [ 1; 2; 32 ]

(* The shard net behind a box that turns each input into eight
   records, cut so one partition runs the fan-out and the route box:
   its output batches are eight times its input envelopes, so from an
   empty pending queue they overrun a window of 1 or 2 on their own,
   and the router must wake the pump before it waits for room. 250
   inputs make 2,000 records. *)
let fanout_shard_net () =
  let fan =
    Snet.Net.box
      (Snet.Box.make ~name:"fan" ~input:[ Snet.Box.T "x" ]
         ~outputs:[ [ Snet.Box.T "x" ] ] (fun ~emit -> function
        | [ Snet.Box.Tag x ] ->
            for k = 0 to 7 do
              emit 1 [ Snet.Box.Tag ((8 * x) + k) ]
            done
        | _ -> assert false))
  in
  Snet.Net.serial fan (Sudoku.Networks.shard ~shards:2 ())

let fanout_plan =
  [|
    Plan.Run { lo = 0; hi = 1 };
    Plan.Shard { seg = 2; shards = 2 };
    Plan.Run { lo = 3; hi = 3 };
  |]

let run_loopback ~plan ~credits ?supervision ~kill net inputs =
  Engine_dist.run ~workers:(Plan.parts plan) ~plan ~batch:64 ~credits
    ?supervision ?fault:kill net inputs

let test_batched_routing_stress () =
  batched_routing_stress ~run:run_loopback ~plan:(shard_plan 2)
    (Sudoku.Networks.shard ~shards:2 ())
    (shard_inputs stress_records);
  batched_routing_stress ~run:run_loopback ~plan:fanout_plan
    (fanout_shard_net ())
    (shard_inputs 250)

let test_batched_routing_stress_tcp () =
  match Sys.getenv_opt "SNET_WORKER_EXE" with
  | None -> Alcotest.skip ()
  | Some _ when not (tcp_enabled ()) -> Alcotest.skip ()
  | Some worker_exe ->
      batched_routing_stress ~plan:(shard_plan 2)
        ~run:(fun ~plan ~credits ?supervision ~kill net inputs ->
          Engine_dist.run_spawned ~worker_exe
            ~spec:(Sudoku.Netspec.spec ~shards:2 "shard")
            ~workers:(Plan.parts plan) ~plan ~batch:64 ~credits ?supervision
            ?fault:kill net inputs)
        (Sudoku.Networks.shard ~shards:2 ())
        (shard_inputs stress_records)

(* The downstream window bound: the fan-out partition's output batches
   are eight times its input envelopes and feed a throttled shard
   replica, so routing keeps meeting a full window on dist:w1.in and
   must hold the rest of a batch instead of queueing it. The
   coordinator's queue on that edge — pending plus in flight, the
   depth every send records — never exceeds twice the window. *)
let test_downstream_window_bound () =
  let inputs = shard_inputs 120 in
  let net = fanout_shard_net () in
  let reference = Snet.Engine_seq.run net inputs in
  Obsv.Metrics.enable ();
  Fun.protect ~finally:Obsv.Metrics.disable (fun () ->
      List.iter
        (fun credits ->
          let label = Printf.sprintf "credits=%d" credits in
          Obsv.Metrics.clear ();
          let outs =
            within ~seconds:60. label (fun () ->
                Engine_dist.run ~workers:(Plan.parts fanout_plan)
                  ~plan:fanout_plan ~batch:64 ~credits
                  ~fault:Fault.[ Stall { part = 1; us = 100 } ] net inputs)
          in
          Alcotest.(check bool) (label ^ ": multiset = seq") true
            (multiset_eq reference outs);
          match
            List.assoc_opt "dist:w1.in" (Obsv.Metrics.snapshot ()).Obsv.Metrics.edges
          with
          | None -> Alcotest.failf "%s: dist:w1.in never recorded" label
          | Some e ->
              Alcotest.(check bool) (label ^ ": the edge carried records") true
                (e.Obsv.Metrics.sends > 0);
              Alcotest.(check bool)
                (Printf.sprintf "%s: queue high-water mark %d <= %d" label
                   e.Obsv.Metrics.hwm (2 * credits))
                true
                (e.Obsv.Metrics.hwm <= 2 * credits))
        [ 1; 2; 32 ])

(* ------------------------------------------------------------------ *)
(* Live migration                                                      *)

(* Move a partition mid-run: output stays multiset-identical, the
   migration reports a downtime, and the collector rows show the move
   with its placement label. Partition 0 (the route segment) is
   throttled so the stream is provably still in flight when the
   migration fires. *)
let test_migrate_mid_run () =
  let inputs = shard_inputs 64 in
  let plan = shard_plan 2 in
  let reference =
    Snet.Engine_seq.run (Sudoku.Networks.shard ()) inputs
  in
  let col = Obsv.Agg.create () in
  let result = ref (Error "migration never attempted") in
  let migrator = ref None in
  let outs =
    Engine_dist.run
      ~workers:(Plan.parts plan)
      ~plan ~collector:col ~fault:Fault.[ Stall { part = 0; us = 800 } ]
      ~on_handle:(fun h ->
        migrator :=
          Some (Thread.create (fun () -> result := Engine_dist.migrate h 0) ()))
      (Sudoku.Networks.shard ()) inputs
  in
  (match !migrator with
  | Some t -> Thread.join t
  | None -> Alcotest.fail "on_handle never called");
  (match !result with
  | Ok d -> Alcotest.(check bool) "downtime measured" true (d >= 0.)
  | Error e -> Alcotest.failf "migrate failed: %s" e);
  Alcotest.(check bool) "migrated run multiset equal" true
    (multiset_eq reference outs);
  match
    List.find_opt
      (fun p -> p.Obsv.Health.part = 0)
      (Obsv.Agg.cluster col).Obsv.Agg.parts
  with
  | Some p ->
      Alcotest.(check int) "health row counts the move" 1
        p.Obsv.Health.migrations;
      Alcotest.(check bool) "health row carries a placement" true
        (p.Obsv.Health.place <> "")
  | None -> Alcotest.fail "migrated partition missing from cluster"

(* A migrated partition resumes from its predecessor's captured state:
   partition 1 is a synchrocell that holds {a} when it moves, so only
   the Restore frame lets its replacement join {a} with the {b} that
   arrives after the move. Unbatched and throttled, partition 0 sends
   {b} 150 ms after {a}; the move starts once {a} has crossed into
   partition 1. *)
let test_migrate_carries_state () =
  let net () =
    Snet.Net.serial
      (Snet.Net.filter
         (Snet.Filter.make (Snet.Pattern.make ~fields:[] ~tags:[] ()) [ [] ]))
      (Snet.Net.sync
         [
           Snet.Pattern.make ~fields:[ "a" ] ~tags:[] ();
           Snet.Pattern.make ~fields:[ "b" ] ~tags:[] ();
         ])
  in
  let field n v = Record.of_list ~fields:[ (n, Value.of_int v) ] ~tags:[] in
  let inputs = [ field "a" 1; field "b" 2 ] in
  let reference = Snet.Engine_seq.run (net ()) inputs in
  let a_crossed = Atomic.make false in
  let tap ~edge r =
    if edge = "dist:w1.in" && Record.field "a" r <> None then
      Atomic.set a_crossed true
  in
  let result = ref (Error "migration never attempted") in
  let migrator = ref None in
  let outs =
    Engine_dist.run ~workers:2 ~batch:1 ~tap ~fault:Fault.[ Stall { part = 0; us = 150_000 } ]
      ~on_handle:(fun h ->
        migrator :=
          Some
            (Thread.create
               (fun () ->
                 while not (Atomic.get a_crossed) do
                   Thread.delay 0.001
                 done;
                 Thread.delay 0.02;
                 result := Engine_dist.migrate h 1)
               ()))
      (net ()) inputs
  in
  (match !migrator with
  | Some t -> Thread.join t
  | None -> Alcotest.fail "on_handle never called");
  (match !result with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "migrate failed: %s" e);
  Alcotest.(check int) "the cell fires once" 1 (List.length reference);
  Alcotest.(check bool) "joined across the move" true
    (multiset_eq reference outs)

(* Every refusal path answers with a reason instead of raising or
   wedging the run. *)
let test_migrate_refusals () =
  let inputs = shard_inputs 16 in
  let plan = shard_plan 2 in
  let handle = ref None in
  let oor = ref (Ok 0.) and finished = ref (Ok 0.) in
  ignore
    (Engine_dist.run
       ~workers:(Plan.parts plan)
       ~plan
       ~on_handle:(fun h ->
         handle := Some h;
         oor := Engine_dist.migrate h 99)
       (Sudoku.Networks.shard ()) inputs);
  (match !handle with
  | Some h ->
      Alcotest.(check bool) "handle reports the run finished" true
        (Engine_dist.handle_finished h);
      Alcotest.(check int) "handle exposes the partition count" 4
        (Engine_dist.handle_parts h);
      Alcotest.(check bool) "handle exposes the plan" true
        (Engine_dist.handle_plan h = plan);
      finished := Engine_dist.migrate h 1
  | None -> Alcotest.fail "on_handle never called");
  (match !oor with
  | Error e ->
      Alcotest.(check bool) "out of range named" true (contains e "out of range")
  | Ok _ -> Alcotest.fail "out-of-range migration accepted");
  match !finished with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "migration accepted after the run finished"

(* A worker that dies instead of answering the freeze: the migration
   fails with a reason, crash recovery takes over, and under Retry the
   run still completes with the full output. *)
let test_migrate_freeze_death_recovers () =
  let inputs = shard_inputs 48 in
  let plan = shard_plan 2 in
  let reference =
    Snet.Engine_seq.run (Sudoku.Networks.shard ()) inputs
  in
  let result = ref (Ok 0.) in
  let migrator = ref None in
  let outs =
    Engine_dist.run
      ~workers:(Plan.parts plan)
      ~plan
      ~fault:
        Fault.
          [
            Stall { part = 0; us = 800 };
            Crash { part = 0; seam = Freeze; crossing = 1 };
          ]
      ~supervision:(Snet.Supervise.make ~policy:(Snet.Supervise.Retry 2) ())
      ~on_handle:(fun h ->
        migrator :=
          Some (Thread.create (fun () -> result := Engine_dist.migrate h 0) ()))
      (Sudoku.Networks.shard ()) inputs
  in
  (match !migrator with
  | Some t -> Thread.join t
  | None -> Alcotest.fail "on_handle never called");
  (match !result with
  | Ok _ -> Alcotest.fail "freeze death reported as success"
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "freeze death named (%s)" e)
        true
        (contains e "died during freeze"));
  Alcotest.(check bool) "crash recovery completes the run" true
    (multiset_eq reference outs)

(* A fault the run cannot inject is refused before any worker starts,
   never silently dropped: a partition outside the plan, a crossing
   below 1, a negative stall, and on worker processes anything a
   Hello cannot carry. *)
let test_fault_plan_refusals () =
  let refused label run fault =
    match run fault with
    | _ -> Alcotest.failf "%s: accepted" label
    | exception Invalid_argument _ -> ()
  in
  let loopback fault =
    Engine_dist.run ~workers:2 ~fault (Sudoku.Networks.fig2 ())
      (solve_inputs Sudoku.Puzzles.easy)
  in
  refused "partition outside the plan" loopback
    Fault.[ Crash { part = 5; seam = Record; crossing = 1 } ];
  refused "negative partition" loopback Fault.[ Stall { part = -1; us = 10 } ];
  refused "negative record count" loopback
    Fault.[ Crash { part = 1; seam = Record; crossing = 0 } ];
  refused "negative stall" loopback Fault.[ Stall { part = 0; us = -5 } ];
  refused "second freeze" loopback
    Fault.[ Crash { part = 0; seam = Freeze; crossing = 2 } ];
  let spawned fault =
    Engine_dist.run_spawned ~worker_exe:"/nonexistent" ~spec:"fig2" ~workers:2
      ~fault (Sudoku.Networks.fig2 ()) []
  in
  refused "stall on a worker process" spawned Fault.[ Stall { part = 0; us = 1 } ];
  refused "two crashes for one worker process" spawned
    Fault.
      [
        Crash { part = 0; seam = Record; crossing = 1 };
        Crash { part = 0; seam = Flush; crossing = 2 };
      ]

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "crc32 vector" `Quick test_crc32;
    Alcotest.test_case "wire simple round-trip" `Quick test_roundtrip_simple;
    Alcotest.test_case "wire empty record" `Quick test_empty_record;
    Alcotest.test_case "wire error record" `Quick test_error_record_travels;
    Alcotest.test_case "wire unencodable" `Quick test_unencodable;
    Alcotest.test_case "wire validate + garbage" `Quick test_validate_and_garbage;
    Seeded.to_alcotest prop_roundtrip;
    Seeded.to_alcotest prop_corruption;
    Seeded.to_alcotest prop_batch_envelope;
    Alcotest.test_case "proto round-trip" `Quick test_proto_roundtrip;
    Alcotest.test_case "envelope: mixed variants round trip" `Quick
      test_envelope_mixed;
    Alcotest.test_case "envelope: malformed tables and counts" `Quick
      test_envelope_rejects;
    Alcotest.test_case "partition" `Quick test_partition;
    Alcotest.test_case "loopback transport" `Quick test_loopback;
    Alcotest.test_case "tcp transport (smoke)" `Quick test_tcp;
    Alcotest.test_case "tcp frames records (smoke)" `Quick test_tcp_frames_records;
    Alcotest.test_case "dist=seq fig2 x{1,2,4}" `Quick test_dist_vs_seq_fig2;
    Alcotest.test_case "dist=seq fig3 x{2,4}" `Quick test_dist_vs_seq_fig3;
    Alcotest.test_case "dist multiple inputs" `Quick test_dist_multiple_inputs;
    Alcotest.test_case "dist credits=1" `Quick test_dist_tiny_credits;
    Alcotest.test_case "dist batch on/off = seq" `Quick test_dist_batch_on_off;
    Alcotest.test_case "dist batch vs window shapes" `Quick
      test_dist_batch_smaller_than_window;
    Alcotest.test_case "worker kill -> error records" `Quick
      test_worker_kill_error_record;
    Alcotest.test_case "worker kill -> fail fast" `Quick
      test_worker_kill_fail_fast;
    Alcotest.test_case "worker kill -> retry recovers" `Quick
      test_worker_kill_retry_recovers;
    Alcotest.test_case "collector survives worker death (all policies)" `Quick
      test_collector_survives_worker_death;
    Alcotest.test_case "trace propagation: tags stripped, flows pair up"
      `Quick test_trace_propagation_loopback;
    Alcotest.test_case "plan codec" `Quick test_plan_codec;
    Alcotest.test_case "plan arithmetic + shard hash" `Quick
      test_plan_arithmetic;
    Alcotest.test_case "statecodec round-trip + corruption" `Quick
      test_statecodec_roundtrip;
    Alcotest.test_case "hello rejects bad shard map" `Quick
      test_hello_rejects_bad_shard_map;
    Alcotest.test_case "hello without a plan is refused" `Quick
      test_hello_without_plan_refused;
    Alcotest.test_case "shard=seq x{1,2,4}" `Quick test_dist_shard_vs_seq;
    Alcotest.test_case "shard=seq over TCP (smoke)" `Quick test_dist_shard_tcp;
    Alcotest.test_case "shard replica kill (all policies)" `Quick
      test_dist_shard_kill_worker;
    Alcotest.test_case "batched routing stress (loopback)" `Quick
      test_batched_routing_stress;
    Alcotest.test_case "batched routing stress over TCP (smoke)" `Quick
      test_batched_routing_stress_tcp;
    Alcotest.test_case "downstream window bound" `Quick
      test_downstream_window_bound;
    Alcotest.test_case "migrate mid-run" `Quick test_migrate_mid_run;
    Alcotest.test_case "migrate carries engine state" `Quick
      test_migrate_carries_state;
    Alcotest.test_case "migrate refusals" `Quick test_migrate_refusals;
    Alcotest.test_case "migrate freeze death -> crash recovery" `Quick
      test_migrate_freeze_death_recovers;
    Alcotest.test_case "fault plan refusals" `Quick test_fault_plan_refusals;
  ]
