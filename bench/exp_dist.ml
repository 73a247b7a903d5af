(* dist: the distribution layer. Wire codec throughput on a real
   mid-pipeline sudoku record, cut-edge round-trips over an in-process
   channel vs the loopback transport vs TCP, unbatched and in Data_batch
   envelopes, and fig2 end to end on the partitioned engine. Bars:
   loopback adds <= 50us per record over the bare channel, and batching
   brings the amortized overhead to <= 5us per record at some batch
   size >= 8. Writes BENCH_dist.json. *)

open Bechamel
open Bench_core

(* A peer that sends every message it receives on [connect ()]
   straight back. *)
let echo connect =
  Thread.create
    (fun () ->
      let conn = connect () in
      let rec loop () =
        match Dist.Transport.recv conn with
        | `Msg m -> (
            match Dist.Transport.send conn m with
            | () -> loop ()
            | exception Dist.Transport.Closed_conn -> ())
        | `Closed -> Dist.Transport.close conn
      in
      loop ())
    ()

let run () =
  let r = report "dist" in
  Sudoku.Netspec.register_codecs ();
  (* The record that actually crosses fig2's cut edge: a board, its
     packed options and the routing tag. *)
  let board = board_of "medium" in
  let opts = Sudoku.Rules.init_options board in
  let board_rec =
    Snet.Record.of_list
      ~fields:
        [
          ("board", Snet.Value.inject Sudoku.Boxes.board_field board);
          ("opts", Snet.Value.inject Sudoku.Boxes.opts_field opts);
        ]
      ~tags:[ ("k", 1) ]
  in
  let frame = Dist.Wire.render board_rec in
  let frame_bytes = String.length frame in
  (* What a record costs inside a 32-record Data_batch envelope, which
     names each variant once and then carries values only: this record,
     and dist-stream's three-tag record next to its own frame. *)
  let envelope_bytes rs =
    float_of_int (String.length (Dist.Proto.encode (Dist.Proto.Data_batch rs)))
    /. float_of_int (List.length rs)
  in
  let tag_only i =
    Snet.Record.of_list ~fields:[]
      ~tags:[ ("bid", i); ("dist_seq", i); ("x", i * 7919) ]
  in
  int r "frame_bytes" frame_bytes;
  num r "envelope_bytes_per_record.board_opts_b32"
    (envelope_bytes (List.init 32 (fun _ -> board_rec)));
  num r "envelope_bytes_per_record.three_tags_b32"
    (envelope_bytes (List.init 32 tag_only));
  int r "envelope_bytes_per_record.three_tags_frame"
    (String.length (Dist.Wire.render (tag_only 0)));
  (* What dist-stream does to each record outside the codec: build an
     input, add the coordinator's sequence tag, and run Networks.shard's
     route box on a worker. Minor words per call beside the time. *)
  let route =
    Snet.Box.make ~name:"route" ~input:[ Snet.Box.T "x" ]
      ~outputs:[ [ Snet.Box.T "x"; Snet.Box.T "t" ] ] (fun ~emit -> function
      | [ Snet.Box.Tag x ] ->
          emit 1 [ Snet.Box.Tag x; Snet.Box.Tag (((x mod 8) + 8) mod 8) ]
      | _ -> assert false)
  in
  let input = Snet.Record.of_list ~fields:[] ~tags:[ ("x", 7); ("bid", 1) ] in
  let sequenced = Snet.Record.with_tag "dist_seq" 1 input in
  let record_ops =
    [
      ( "record/of_list",
        fun () ->
          Snet.Record.of_list ~fields:[] ~tags:[ ("x", 7); ("bid", 1) ] );
      ("record/with_tag", fun () -> Snet.Record.with_tag "dist_seq" 1 input);
      ( "box/execute-route",
        fun () ->
          match Snet.Box.execute route sequenced with
          | [ r ] -> r
          | _ -> assert false );
    ]
  in
  bench ~into:r ~quota:1.0 "record operations on dist-stream's path"
    (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) record_ops);
  List.iter
    (fun (name, f) ->
      let n = 10_000 in
      ignore (Sys.opaque_identity (f ()));
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        ignore (Sys.opaque_identity (f ()))
      done;
      num r
        (Printf.sprintf "record_ops.%s.minor_words" name)
        ((Gc.minor_words () -. w0) /. float_of_int n))
    record_ops;
  bench ~into:r ~quota:1.0 "wire codec on a mid-pipeline sudoku record"
    [
      Test.make ~name:"wire/encode"
        (Staged.stage (fun () -> Dist.Wire.render board_rec));
      Test.make ~name:"wire/decode"
        (Staged.stage (fun () -> Dist.Wire.read frame));
    ];
  (* Cut-edge round-trip, same record out and back over: (a) an
     in-process channel carrying it by reference — what a shared-memory
     engine pays, (b) the loopback transport carrying encoded frames,
     (c) a real TCP socket. Each peer is an echo thread. *)
  let chan_there = Streams.Channel.create ~capacity:4 () in
  let chan_back = Streams.Channel.create ~capacity:4 () in
  let chan_echo =
    Thread.create
      (fun () ->
        let rec loop () =
          match Streams.Channel.recv chan_there with
          | `Msg m ->
              Streams.Channel.send chan_back m;
              loop ()
          | `Closed -> ()
        in
        loop ())
      ()
  in
  let lo_a, lo_b = Dist.Transport.loopback_pair () in
  let lo_echo = echo (fun () -> lo_b) in
  let listener = Dist.Transport.Tcp.listen () in
  let tcp_echo =
    echo (fun () ->
        Dist.Transport.erase
          (module Dist.Transport.Tcp)
          (Dist.Transport.Tcp.accept ~timeout_s:10.0 listener))
  in
  let tcp =
    Dist.Transport.erase
      (module Dist.Transport.Tcp)
      (Dist.Transport.Tcp.connect ~host:"127.0.0.1"
         ~port:(Dist.Transport.Tcp.port listener))
  in
  let rt_chan () =
    Streams.Channel.send chan_there board_rec;
    match Streams.Channel.recv chan_back with
    | `Msg m -> m
    | `Closed -> assert false
  in
  let rt_conn conn () =
    Dist.Transport.send conn (Dist.Wire.render board_rec);
    match Dist.Transport.recv conn with
    | `Msg m -> ( match Dist.Wire.read m with Ok r -> r | Error e -> failwith e)
    | `Closed -> assert false
  in
  bench ~into:r ~quota:1.0
    "cut-edge round-trip (send + echo + recv, one record)"
    [
      Test.make ~name:"edge/channel" (Staged.stage rt_chan);
      Test.make ~name:"edge/loopback" (Staged.stage (rt_conn lo_a));
      Test.make ~name:"edge/tcp" (Staged.stage (rt_conn tcp));
    ];
  (* Batched variants: one Data_batch envelope of k records out and
     back (the echo peers bounce the raw envelope). Dividing by k gives
     the amortized per-record cost the cut-edge pumps pay under load;
     k=1 keeps the envelope-framing floor visible next to the plain
     Data rows above. *)
  let wctx = Dist.Wire.ctx () in
  let rt_batched conn k =
    let m = Dist.Proto.Data_batch (List.init k (fun _ -> board_rec)) in
    fun () ->
      Dist.Transport.send conn (Dist.Proto.encode ~ctx:wctx m);
      match Dist.Transport.recv conn with
      | `Msg s -> (
          match Dist.Proto.decode ~ctx:wctx s with
          | Ok _ -> ()
          | Error e -> failwith e)
      | `Closed -> assert false
  in
  let transports = [ ("loopback", lo_a); ("tcp", tcp) ] in
  bench ~into:r ~quota:1.0
    "batched cut-edge round-trip (one Data_batch envelope of k records)"
    (List.concat_map
       (fun (t, conn) ->
         List.map
           (fun k ->
             Test.make ~name:(Printf.sprintf "edge/%s-batched-b%d" t k)
               (Staged.stage (rt_batched conn k)))
           [ 1; 8; 64 ])
       transports);
  (* End to end: the partitioned engine (loopback workers) against the
     sequential reference on the same job. *)
  let easy = board_of "easy" in
  bench ~into:r ~quota:1.0 "fig2/easy end-to-end"
    [
      Test.make ~name:"fig2/seq"
        (Staged.stage (fun () ->
             run_network_seq (Sudoku.Networks.fig2 ()) easy));
      Test.make ~name:"fig2/dist-loopback-2w"
        (Staged.stage (fun () ->
             Dist.Engine_dist.run ~workers:2 ~pool:(Lazy.force conc_pool)
               (Sudoku.Networks.fig2 ())
               [ Sudoku.Boxes.inject_board easy ]));
    ];
  Streams.Channel.close chan_there;
  Streams.Channel.close chan_back;
  Thread.join chan_echo;
  Dist.Transport.close lo_a;
  Thread.join lo_echo;
  Dist.Transport.close tcp;
  Thread.join tcp_echo;
  Dist.Transport.Tcp.close_listener listener;
  (* The bars. The unbatched loopback round-trip (one encode, two
     framed hops, one decode) may cost at most 50us more than the bare
     in-process channel round-trip; with batching, the amortized
     overhead per record must drop under 5us on some transport at some
     batch size >= 8 (on a single-core box the loopback thread
     ping-pong fills its rows with scheduling noise, so the bar takes
     the best of loopback and tcp). *)
  let chan_ns = row r "/edge/channel" in
  bar r "loopback_overhead_ns_per_record" ~show:pretty_ns
    ~value:(row r "/edge/loopback" -. chan_ns) ~limit:50_000.;
  let amortized =
    List.concat_map
      (fun (t, _) ->
        List.map
          (fun k ->
            let rt = row r (Printf.sprintf "/edge/%s-batched-b%d" t k) in
            let v = (rt -. chan_ns) /. float_of_int k in
            ns r
              (Printf.sprintf "batched_amortized_ns_per_record.%s.b%d" t k)
              v;
            v)
          [ 8; 64 ])
      transports
  in
  bar r "batched_amortized_best_ns_per_record" ~show:pretty_ns
    ~value:
      (List.fold_left
         (fun a b ->
           if Float.is_nan a then b
           else if Float.is_nan b then a
           else Float.min a b)
         nan amortized)
    ~limit:5_000.;
  num r "fig2_speedup_dist_over_seq"
    (row r "/fig2/seq" /. row r "/fig2/dist-loopback-2w");
  finish r
