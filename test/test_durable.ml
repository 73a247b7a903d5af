(* Durable streams: the edge journal's format under fuzzed damage
   (torn tails, bit flips, replayed suffixes), snapshot atomicity, the
   engines' capture/restore cut-point contract, the detcheck
   crash-point matrix (process death armed at every durability seam,
   recovery output multiset-identical to an uninterrupted run), the
   exactly-once wrappers (serve recovery, Replay.run_dist), the
   Engine_dist sequence-watermark resend regression, and — gated on
   SNET_DIST_TCP=1 — a real snet_serve SIGKILLed mid-stream and
   resumed from its journal. *)

module Journal = Durable.Journal
module Snapshot = Durable.Snapshot
module Replay = Durable.Replay
module Server = Serve.Server
module Client = Serve.Client
module Transport = Dist.Transport
module Wire = Dist.Wire
module Engine_dist = Dist.Engine_dist
module Record = Snet.Record
module Value = Snet.Value
module Net = Snet.Net
module P = Snet.Pattern
module Sv = Detcheck.Sched_virtual
module Strategy = Detcheck.Strategy

let () = Sudoku.Netspec.register_codecs ()
let tcp_enabled () = Sys.getenv_opt "SNET_DIST_TCP" = Some "1"
let ping_record x = Record.with_tag "x" x Record.empty
let y_exn r = Record.tag_exn "y" r
let ints = Alcotest.(slist int compare)

let multiset_eq outs1 outs2 =
  let key rs = List.sort compare (List.map Wire.render rs) in
  key outs1 = key outs2

(* --- scratch directories ------------------------------------------ *)

let tmp_counter = ref 0

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove p with Sys_error _ -> ())

let with_dir f =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "snet_durable_%d_%d" (Unix.getpid ()) !tmp_counter)
  in
  rm_rf d;
  Unix.mkdir d 0o755;
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let read_image dir =
  let ic = open_in_bin (Journal.journal_path dir) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_entries dir specs =
  let w = Journal.open_writer dir in
  let entries =
    List.map
      (fun (kind, edge, payload) ->
        let seq = Journal.append w ~kind ~edge payload in
        { Journal.seq; kind; edge; payload })
      specs
  in
  Journal.close w;
  entries

(* entries [xs] is a prefix of [ys] *)
let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
  | _ :: _, [] -> false

(* --- journal: fixed cases ----------------------------------------- *)

let test_journal_roundtrip () =
  with_dir (fun dir ->
      let before = (Obsv.Journal_stats.snapshot ()).Obsv.Journal_stats.appends in
      let specs =
        [
          (Journal.Input, "serve:s0.in#1", Wire.render (ping_record 1));
          (Journal.Delivered, "serve:s0.out", Wire.render (ping_record 2));
          (Journal.Open_session, "serve:s1", "32");
          (Journal.Close_session, "serve:s1", "");
          (Journal.Mark, "dist:run", "complete");
          (Journal.Input, "dist:w0.in", String.make 300 '\x00');
        ]
      in
      let written = write_entries dir specs in
      let entries, damage = Journal.read_dir dir in
      Alcotest.(check (option string)) "no damage" None damage;
      Alcotest.(check bool) "round trip" true (entries = written);
      Alcotest.(check bool)
        "sequence numbers monotone" true
        (List.for_all2
           (fun e i -> e.Journal.seq = i + 1)
           entries
           (List.init (List.length entries) Fun.id));
      Alcotest.(check bool)
        "append counter advanced" true
        ((Obsv.Journal_stats.snapshot ()).Obsv.Journal_stats.appends
        >= before + List.length specs);
      (* A reopened writer continues the sequence. *)
      let w = Journal.open_writer dir in
      let seq = Journal.append w ~kind:Journal.Mark ~edge:"x" "later" in
      Journal.close w;
      Alcotest.(check int) "sequence continues after reopen" 7 seq;
      let entries', _ = Journal.read_dir dir in
      Alcotest.(check int) "all entries present" 7 (List.length entries'))

let test_journal_missing_file () =
  with_dir (fun dir ->
      Alcotest.(check bool)
        "missing journal is empty, undamaged" true
        (Journal.read_dir dir = ([], None)))

let test_journal_killed_writer () =
  with_dir (fun dir ->
      let w = Journal.open_writer dir in
      ignore (Journal.append w ~kind:Journal.Input ~edge:"e" "a" : int);
      Journal.kill w;
      Alcotest.(check bool) "killed" true (Journal.killed w);
      (match Journal.append w ~kind:Journal.Input ~edge:"e" "b" with
      | exception Journal.Killed -> ()
      | _ -> Alcotest.fail "append after kill did not raise");
      let entries, damage = Journal.read_dir dir in
      Alcotest.(check (option string)) "no damage" None damage;
      Alcotest.(check int) "nothing persisted after the kill" 1
        (List.length entries))

(* A reopen over a torn tail repairs the file: the damaged bytes are
   truncated away before the first append, so entries written after
   the restart stay reachable — otherwise every post-restart
   write-ahead ack would hide behind the damage forever. *)
let test_journal_torn_tail_repair () =
  with_dir (fun dir ->
      let written =
        write_entries dir
          [ (Journal.Input, "e", "one"); (Journal.Input, "e", "two") ]
      in
      let oc =
        open_out_gen
          [ Open_append; Open_binary ]
          0o644 (Journal.journal_path dir)
      in
      output_string oc "SNJ1\x01garbage-torn";
      close_out oc;
      (let entries, damage = Journal.read_dir dir in
       Alcotest.(check bool) "tail reads as damage" true (damage <> None);
       Alcotest.(check bool) "prefix intact" true (entries = written));
      let w = Journal.open_writer dir in
      let seq = Journal.append w ~kind:Journal.Input ~edge:"e" "three" in
      Journal.close w;
      Alcotest.(check int) "sequence continues past the repair" 3 seq;
      let entries, damage = Journal.read_dir dir in
      Alcotest.(check (option string)) "tail repaired" None damage;
      Alcotest.(check (list string))
        "pre-crash prefix + post-restart appends all visible"
        [ "one"; "two"; "three" ]
        (List.map (fun e -> e.Journal.payload) entries))

(* An unreadable journal (here: the journal path is a directory) must
   read as damage, never as emptiness, and [open_writer] must refuse
   to append over history it cannot read — restarting sequence
   numbering at 1 over an existing journal would corrupt it. *)
let test_journal_unreadable () =
  with_dir (fun dir ->
      let path = Journal.journal_path dir in
      Unix.mkdir path 0o755;
      let entries, damage = Journal.read_file path in
      Alcotest.(check bool) "reported as damage" true (damage <> None);
      Alcotest.(check int) "no entries invented" 0 (List.length entries);
      match Journal.open_writer dir with
      | exception Failure _ -> ()
      | w ->
          Journal.close w;
          Alcotest.fail "open_writer over an unreadable journal succeeded")

(* --- journal: fuzzed damage --------------------------------------- *)

let gen_kind =
  QCheck.Gen.oneofl
    [
      Journal.Input;
      Journal.Delivered;
      Journal.Open_session;
      Journal.Close_session;
      Journal.Mark;
    ]

let gen_entries =
  QCheck.Gen.(
    list_size (int_range 1 12)
      (triple gen_kind
         (string_size ~gen:(char_range 'a' 'z') (int_range 0 20))
         (string_size (int_range 0 60))))

let pp_specs specs =
  String.concat ";"
    (List.map
       (fun (k, e, p) ->
         Printf.sprintf "%s %s %dB" (Journal.kind_to_string k) e
           (String.length p))
       specs)

(* Truncation anywhere — including mid-header and mid-payload (the
   torn last frame) — costs at most the final partial entry: the
   reader returns a prefix of what was written and never raises. *)
let prop_torn_tail =
  QCheck.Test.make ~name:"journal: truncated/torn tail -> valid prefix"
    ~count:150
    (QCheck.pair
       (QCheck.make ~print:pp_specs gen_entries)
       (QCheck.make QCheck.Gen.(int_bound 1000)))
    (fun (specs, cut_scale) ->
      with_dir (fun dir ->
          let written = write_entries dir specs in
          let img = read_image dir in
          let cut = String.length img * cut_scale / 1000 in
          let entries, damage = Journal.parse (String.sub img 0 cut) in
          if not (is_prefix entries written) then
            QCheck.Test.fail_reportf "parsed entries are not a prefix";
          if cut = String.length img then
            entries = written && damage = None
          else if cut > 0 && entries = written then
            QCheck.Test.fail_reportf
              "truncated image yielded every entry (cut %d of %d)" cut
              (String.length img)
          else true))

(* A single flipped bit can never invent an entry: CRC-32 catches it,
   and the scan stops at the damaged entry, keeping the prefix. *)
let prop_bit_flip =
  QCheck.Test.make ~name:"journal: bit flip -> prefix, never a bad entry"
    ~count:150
    (QCheck.triple
       (QCheck.make ~print:pp_specs gen_entries)
       (QCheck.make QCheck.Gen.(int_bound 100_000))
       (QCheck.make QCheck.Gen.(int_bound 7)))
    (fun (specs, pos_scale, bit) ->
      with_dir (fun dir ->
          let written = write_entries dir specs in
          let img = read_image dir in
          let pos = pos_scale mod String.length img in
          let b = Bytes.of_string img in
          Bytes.set b pos
            (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
          let entries, damage = Journal.parse (Bytes.to_string b) in
          if not (is_prefix entries written) then
            QCheck.Test.fail_reportf
              "flip at %d bit %d: parsed entries not a prefix of originals"
              pos bit;
          (* The flipped entry itself must not survive: some entry is
             lost, and the scan reports why. *)
          List.length entries < List.length written && damage <> None))

(* A replayed suffix (duplicate sequence numbers) parses cleanly —
   the format does not require monotone sequences — but [dedupe]
   delivers each sequence number exactly once, first occurrence
   winning. *)
let prop_duplicate_seqs =
  QCheck.Test.make ~name:"journal: replayed suffix never double-delivers"
    ~count:100
    (QCheck.make ~print:pp_specs gen_entries)
    (fun specs ->
      with_dir (fun dir ->
          let written = write_entries dir specs in
          let img = read_image dir in
          let entries, damage = Journal.parse (img ^ img) in
          damage = None
          && List.length entries = 2 * List.length written
          && Journal.dedupe entries = written))

(* --- snapshots ---------------------------------------------------- *)

let sample_state () =
  {
    Snet.Netstate.syncs =
      [
        ( "serial.0/sync",
          {
            Snet.Netstate.slots = [ Some (ping_record 3); None ];
            spent = false;
          } );
      ];
    splits = [ ("split.1", [ 0; 2; 5 ]) ];
    stars = [ ("star.2", 3) ];
  }

let sample_snapshot () =
  {
    Snapshot.spec = "fig2";
    watermark = 42;
    state = sample_state ();
    sessions = [ (0, 16); (3, 4) ];
    queued =
      [ (0, [ Wire.render (ping_record 7); Wire.render (ping_record 8) ]) ];
  }

let test_snapshot_roundtrip () =
  with_dir (fun dir ->
      Alcotest.(check bool) "absent -> None" true (Snapshot.load ~dir = None);
      let t = sample_snapshot () in
      Snapshot.save ~dir t;
      (match Snapshot.load ~dir with
      | None -> Alcotest.fail "saved snapshot did not load"
      | Some t' ->
          Alcotest.(check string) "spec" t.Snapshot.spec t'.Snapshot.spec;
          Alcotest.(check int) "watermark" t.Snapshot.watermark
            t'.Snapshot.watermark;
          Alcotest.(check bool) "net state" true
            (Snet.Netstate.equal t.Snapshot.state t'.Snapshot.state);
          Alcotest.(check bool) "sessions" true
            (t.Snapshot.sessions = t'.Snapshot.sessions);
          Alcotest.(check bool) "queued frames" true
            (t.Snapshot.queued = t'.Snapshot.queued));
      (* Corrupt the file: load must degrade to None, never raise. *)
      let path = Snapshot.path dir in
      let img =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let b = Bytes.of_string img in
      Bytes.set b
        (Bytes.length b / 2)
        (Char.chr (Char.code (Bytes.get b (Bytes.length b / 2)) lxor 0x40));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      Alcotest.(check bool) "corrupt -> None" true (Snapshot.load ~dir = None))

let test_snapshot_crash_seams () =
  (* Death at the pre seam: the file is untouched. Death at the post
     seam: the rename already happened, the snapshot survives. *)
  with_dir (fun dir ->
      let w = Journal.open_writer dir in
      Journal.arm_crash ~seam:"snapshot.pre" ~crossing:1;
      Fun.protect ~finally:Journal.disarm_crash (fun () ->
          match Snapshot.save ~journal:w ~dir (sample_snapshot ()) with
          | exception Journal.Killed -> ()
          | () -> Alcotest.fail "pre-seam kill not observed");
      Alcotest.(check bool) "nothing persisted" true (Snapshot.load ~dir = None));
  with_dir (fun dir ->
      let w = Journal.open_writer dir in
      Journal.arm_crash ~seam:"snapshot.post" ~crossing:1;
      Fun.protect ~finally:Journal.disarm_crash (fun () ->
          match Snapshot.save ~journal:w ~dir (sample_snapshot ()) with
          | exception Journal.Killed -> ()
          | () -> Alcotest.fail "post-seam kill not observed");
      Alcotest.(check bool) "snapshot survived the crash" true
        (Snapshot.load ~dir <> None))

(* --- engine capture/restore: the cut-point contract ---------------- *)

let record ~f ~t =
  Record.of_list ~fields:(List.map (fun (n, v) -> (n, Value.of_int v)) f)
    ~tags:t

let ab_cell () =
  Net.sync
    [ P.make ~fields:[ "a" ] ~tags:[] (); P.make ~fields:[ "b" ] ~tags:[] () ]

(* A stateful net (sync cells inside a split replicator) and an input
   stream leaving half-filled cells at most cut points. *)
let statey_net () = Net.split (ab_cell ()) "k"

let statey_inputs =
  [
    record ~f:[ ("a", 1) ] ~t:[ ("k", 0) ];
    record ~f:[ ("a", 2) ] ~t:[ ("k", 1) ];
    record ~f:[ ("b", 10) ] ~t:[ ("k", 0) ];
    record ~f:[ ("a", 3) ] ~t:[ ("k", 2) ];
    record ~f:[ ("b", 20) ] ~t:[ ("k", 1) ];
    record ~f:[ ("a", 4) ] ~t:[ ("k", 0) ];
    record ~f:[ ("b", 30) ] ~t:[ ("k", 2) ];
    record ~f:[ ("b", 40) ] ~t:[ ("k", 0) ];
  ]

let rec take k = function
  | [] -> []
  | x :: xs -> if k = 0 then [] else x :: take (k - 1) xs

let rec drop k = function
  | [] -> []
  | xs when k = 0 -> xs
  | _ :: xs -> drop (k - 1) xs

let test_run_state_cut_points () =
  let full = Snet.Engine_seq.run (statey_net ()) statey_inputs in
  for k = 0 to List.length statey_inputs do
    let prefix, st =
      Snet.Engine_seq.run_state (statey_net ()) (take k statey_inputs)
    in
    let suffix =
      Snet.Engine_seq.run ~restore:st (statey_net ()) (drop k statey_inputs)
    in
    Alcotest.(check (list string))
      (Printf.sprintf "cut at %d: prefix @ suffix = uninterrupted run" k)
      (List.map Wire.render full)
      (List.map Wire.render (prefix @ suffix))
  done

let test_conc_capture_restore () =
  let pool = Scheduler.Pool.create ~num_domains:2 () in
  Fun.protect
    ~finally:(fun () -> Scheduler.Pool.shutdown pool)
    (fun () ->
      let reference = Snet.Engine_seq.run (statey_net ()) statey_inputs in
      List.iter
        (fun k ->
          let i1 = Snet.Engine_conc.start ~pool (statey_net ()) in
          List.iter (Snet.Engine_conc.feed i1) (take k statey_inputs);
          let outs1 = Snet.Engine_conc.finish i1 in
          let st = Snet.Engine_conc.capture i1 in
          let i2 = Snet.Engine_conc.start ~pool ~restore:st (statey_net ()) in
          List.iter (Snet.Engine_conc.feed i2) (drop k statey_inputs);
          let outs2 = Snet.Engine_conc.finish i2 in
          Alcotest.(check bool)
            (Printf.sprintf
               "capture at %d: restored instance completes the stream" k)
            true
            (multiset_eq reference (outs1 @ outs2)))
        [ 0; 3; 5; 8 ])

(* A star whose body holds a synchro-cell,
   [(sync{a},{b} .. (markA | markB)) ** {<done>}]: the cell lives under
   the star's first stage, so a capture taken on one engine restores on
   the other only if both name that stage alike. *)
let mark label =
  Snet.Box.make ~name:("mark" ^ label) ~input:[ F label ]
    ~outputs:[ [ F label; T "done" ] ]
    (fun ~emit -> function
      | [ v ] -> emit 1 [ v; Tag 1 ]
      | _ -> assert false)

let staged_cell_net ~det =
  Net.star ~det
    (Net.serial (ab_cell ())
       (Net.choice ~det:true (Net.box (mark "a")) (Net.box (mark "b"))))
    (P.make ~fields:[] ~tags:[ "done" ] ())

let staged_cell_inputs =
  [
    record ~f:[ ("a", 1) ] ~t:[];
    record ~f:[ ("b", 2) ] ~t:[];
    record ~f:[ ("a", 3) ] ~t:[];
    record ~f:[ ("b", 4) ] ~t:[];
    record ~f:[ ("a", 5) ] ~t:[];
  ]

let test_cross_engine_restore () =
  let pool = Scheduler.Pool.create ~num_domains:2 () in
  Fun.protect
    ~finally:(fun () -> Scheduler.Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun det ->
          let net () = staged_cell_net ~det in
          let full = Snet.Engine_seq.run (net ()) staged_cell_inputs in
          let check what k got =
            let label =
              Printf.sprintf "%s star, cut at %d: %s = uninterrupted seq run"
                (if det then "det" else "nondet")
                k what
            in
            if det then
              Alcotest.(check (list string))
                label
                (List.map Record.to_string full)
                (List.map Record.to_string got)
            else Alcotest.(check bool) label true (multiset_eq full got)
          in
          let conc_run ?restore inputs =
            let i = Snet.Engine_conc.start ~pool ?restore (net ()) in
            List.iter (Snet.Engine_conc.feed i) inputs;
            let outs = Snet.Engine_conc.finish i in
            (outs, Snet.Engine_conc.capture i)
          in
          for k = 0 to List.length staged_cell_inputs do
            let prefix = take k staged_cell_inputs
            and suffix = drop k staged_cell_inputs in
            let outs1, st = conc_run prefix in
            check "conc prefix @ seq suffix" k
              (outs1 @ Snet.Engine_seq.run ~restore:st (net ()) suffix);
            let outs1, st = Snet.Engine_seq.run_state (net ()) prefix in
            check "seq prefix @ conc suffix" k
              (outs1 @ fst (conc_run ~restore:st suffix))
          done)
        [ true; false ])

(* Star depths, split tags and the entry cell are all determined by
   the input data, so the same prefix leaves the same state on both
   engines. Both run on the virtual scheduler: the sluggish box's
   sleeps are then instant, and the conc run follows a seeded
   schedule. *)
let prop_capture_agrees klass =
  let arb_spec =
    QCheck.make ~print:Detcheck.Netgen.print
      ~shrink:(fun spec yield -> Seq.iter yield (Detcheck.Netgen.shrink spec))
      (Detcheck.Netgen.gen klass)
  in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s nets: seq and conc captures agree"
         (Detcheck.Netgen.klass_to_string klass))
    ~count:30
    (QCheck.triple arb_spec
       (QCheck.make QCheck.Gen.(int_bound 12))
       (QCheck.make QCheck.Gen.(int_bound 100_000)))
    (fun (spec, cut, seed) ->
      let net = Detcheck.Netgen.to_net spec in
      let prefix = take cut (Detcheck.Netgen.records spec) in
      let in_virtual f =
        match fst (Sv.run ~strategy:(Strategy.random ~seed) f) with
        | Ok st -> st
        | Error e -> raise e
      in
      let seq =
        in_virtual (fun _ -> snd (Snet.Engine_seq.run_state net prefix))
      in
      let conc =
        in_virtual (fun sched ->
            let i = Snet.Engine_conc.start ~exec:(Sv.exec sched) net in
            List.iter (Snet.Engine_conc.feed i) prefix;
            ignore (Snet.Engine_conc.finish i : Record.t list);
            Snet.Engine_conc.capture i)
      in
      Snet.Netstate.equal seq conc
      || QCheck.Test.fail_reportf
           "cut %d, schedule seed %d:\nseq:\n%sconc:\n%s" cut seed
           (Snet.Netstate.to_string seq)
           (Snet.Netstate.to_string conc))

(* --- the detcheck crash-point matrix ------------------------------ *)

(* Process death armed at one durability seam crossing, under the
   virtual scheduler: incarnation 1 (a journal-backed serve instance)
   submits a stream of idempotent requests, polling responses as they
   arrive, until the armed crossing kills every live journal writer —
   from that point the incarnation is a dead process walking, and
   nothing it does is persisted. Incarnation 2 recovers from the
   journal, the client re-attaches and retries every request with its
   original request number, and the run completes. The invariant, for
   every seam, crossing and schedule: the byte-deduped union of
   responses the client saw across both incarnations is
   multiset-identical to an uninterrupted run — nothing lost, nothing
   delivered twice (modulo the redelivery duplicates the dedupe
   removes). *)

let crash_cfg =
  { Server.max_sessions = 4; credits = 16; batch = 4; idle_timeout = 0. }

let ok_or_fail what = function
  | Ok s -> s
  | Error _ -> Alcotest.fail ("unexpected rejection: " ^ what)

let crash_matrix_scenario ~dir ~seam ~crossing ~seed =
  let n = 8 in
  let inputs = List.init n (fun i -> i + 1) in
  Journal.arm_crash ~seam ~crossing;
  let res, _trace =
    Sv.run ~strategy:(Strategy.random ~seed) (fun sched ->
        let exec = Sv.exec sched in
        let dur =
          { Server.dir; fsync_every = 0; snapshot_every = 3; spec = "ping" }
        in
        (* Incarnation 1: run until the armed crossing kills it. *)
        let srv1 =
          Server.create ~exec ~cfg:crash_cfg ~durability:dur
            (Sudoku.Networks.ping ())
        in
        let recv1 = ref [] in
        let sid = ref None in
        let died = ref false in
        (try
           let s = ok_or_fail "open" (Server.open_session srv1) in
           sid := Some (Server.session_id s);
           List.iteri
             (fun i x ->
               (match Server.submit ~req:i srv1 s (ping_record x) with
               | `Ok -> ()
               | `Closed | `Draining -> Alcotest.fail "rejected mid-stream");
               ignore (Server.take_grants srv1 s : int);
               Scheduler.Clock.sleep 0.001;
               recv1 :=
                 !recv1 @ List.map Wire.render (Server.poll srv1 s ~max:16))
             inputs
         with Journal.Killed -> died := true);
        (* The incarnation is dead; its journal is frozen. Quiesce its
           engine fibers so they cannot interfere with the run — none
           of this is persisted, exactly like a real dead process. *)
        Journal.disarm_crash ();
        (try Server.drain srv1 with _ -> ());
        (* Incarnation 2: recover, re-attach, retry everything. *)
        let srv2 =
          Server.create ~exec ~cfg:crash_cfg ~durability:dur
            (Sudoku.Networks.ping ())
        in
        let s2 =
          match !sid with
          | Some id -> (
              match Server.resume_session srv2 id with
              | Ok s -> s
              | Error `Unknown ->
                  (* The crash predated the journaled open: the session
                     never durably existed, so the client starts over. *)
                  ok_or_fail "reopen" (Server.open_session srv2))
          | None -> ok_or_fail "reopen" (Server.open_session srv2)
        in
        List.iteri
          (fun i x ->
            match Server.submit ~req:i srv2 s2 (ping_record x) with
            | `Ok -> ()
            | `Closed | `Draining -> Alcotest.fail "retry rejected")
          inputs;
        Server.drain srv2;
        let recv2 = List.map Wire.render (Server.poll srv2 s2 ~max:1000) in
        (Server.recovery srv2, !died, !recv1, recv2))
  in
  match res with
  | Error e ->
      Journal.disarm_crash ();
      raise e
  | Ok (recovery, died, recv1, recv2) ->
      let label =
        Printf.sprintf
          "seam=%s crossing=%d seed=%d (replay: DETCHECK_SEED=%d dune exec \
           test/main.exe -- test durable)"
          seam crossing seed seed
      in
      (* Byte-dedupe: redelivery after an unjournaled send is the
         documented at-least-once window; the client drops exact
         duplicates. Inputs are distinct, so responses are too. *)
      let seen = Hashtbl.create 32 in
      let union =
        List.filter
          (fun f ->
            if Hashtbl.mem seen f then false
            else begin
              Hashtbl.add seen f ();
              true
            end)
          (recv1 @ recv2)
      in
      let ys =
        List.map
          (fun f ->
            match Wire.read f with
            | Ok r -> y_exn r
            | Error e -> Alcotest.failf "%s: bad frame: %s" label e)
          union
      in
      Alcotest.check ints
        (label ^ ": deduped union = uninterrupted run")
        (List.init 8 (fun i -> i + 2))
        ys;
      (* The second incarnation must have actually recovered whenever
         anything was journaled before the crash. *)
      if recv1 <> [] then
        Alcotest.(check bool)
          (label ^ ": recovery stats present")
          true (recovery <> None);
      died

let test_crash_matrix () =
  let base = Seeded.seed () land 0xFFFF in
  let points =
    [
      ("append", [ 1; 3; 5; 7 ]);
      ("append.post", [ 1; 3; 5; 7 ]);
      ("snapshot.pre", [ 1; 2 ]);
      ("snapshot.post", [ 1; 2 ]);
      ("ack", [ 1; 2; 4; 6 ]);
    ]
  in
  let schedules = ref 0 in
  let crashed = ref 0 in
  Fun.protect ~finally:Journal.disarm_crash (fun () ->
      for round = 0 to 6 do
        List.iter
          (fun (seam, crossings) ->
            List.iter
              (fun crossing ->
                incr schedules;
                with_dir (fun dir ->
                    if
                      crash_matrix_scenario ~dir ~seam ~crossing
                        ~seed:(base + (31 * round) + !schedules)
                    then incr crashed))
              crossings)
          points
      done);
  Alcotest.(check bool)
    (Printf.sprintf "explored %d crash-point schedules (>= 100)" !schedules)
    true (!schedules >= 100);
  (* The arming must actually bite — a mislabeled seam would turn
     every scenario into a vacuous plain restart. *)
  Alcotest.(check bool)
    (Printf.sprintf "armed crashes fired (%d of %d schedules)" !crashed
       !schedules)
    true (2 * !crashed >= !schedules)

(* --- durable serve: embedded restart ------------------------------ *)

let with_pool f =
  let pool = Scheduler.Pool.create ~num_domains:2 () in
  Fun.protect ~finally:(fun () -> Scheduler.Pool.shutdown pool) (fun () -> f pool)

let await ?(timeout = 10.) msg f =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if f () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail ("timeout waiting for " ^ msg)
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

(* Submit a stream, receive part of it, die abruptly (every journal
   writer killed at once), restart on the same directory: the resumed
   session must yield exactly the missing responses. *)
let test_embedded_restart () =
  with_dir (fun dir ->
      with_pool (fun pool ->
          let dur =
            { Server.dir; fsync_every = 0; snapshot_every = 0; spec = "ping" }
          in
          let srv =
            Server.create ~pool ~durability:dur (Sudoku.Networks.ping ())
          in
          Alcotest.(check bool)
            "fresh directory is not a recovery" true
            (Server.recovery srv = None);
          let s = ok_or_fail "open" (Server.open_session srv) in
          List.iteri
            (fun i x ->
              match Server.submit ~req:i srv s (ping_record x) with
              | `Ok -> ()
              | _ -> Alcotest.fail "submit rejected")
            (List.init 10 (fun i -> i + 1));
          (* Receive (and thereby journal) part of the stream. *)
          let got1 = ref [] in
          await "four responses" (fun () ->
              got1 := !got1 @ Server.poll srv s ~max:4;
              List.length !got1 >= 4);
          (* Process death: every live writer killed at once. *)
          List.iter Journal.kill (Journal.live_writers ());
          (try Server.drain srv with _ -> ());
          let srv2 =
            Server.create ~pool ~durability:dur (Sudoku.Networks.ping ())
          in
          (match Server.recovery srv2 with
          | None -> Alcotest.fail "no recovery stats after restart"
          | Some r ->
              Alcotest.(check int) "session restored" 1
                r.Server.restored_sessions;
              Alcotest.(check (option string)) "journal intact" None
                r.Server.journal_damage);
          let s2 =
            match Server.resume_session srv2 (Server.session_id s) with
            | Ok s2 -> s2
            | Error `Unknown -> Alcotest.fail "restored session unknown"
          in
          (* Client retry: same request numbers, so nothing re-feeds. *)
          List.iteri
            (fun i x ->
              match Server.submit ~req:i srv2 s2 (ping_record x) with
              | `Ok -> ()
              | _ -> Alcotest.fail "retry rejected")
            (List.init 10 (fun i -> i + 1));
          Server.drain srv2;
          let got2 = Server.poll srv2 s2 ~max:1000 in
          let seen = Hashtbl.create 16 in
          let union =
            List.filter
              (fun r ->
                let f = Wire.render r in
                if Hashtbl.mem seen f then false
                else begin
                  Hashtbl.add seen f ();
                  true
                end)
              (!got1 @ got2)
          in
          Alcotest.check ints "deduped union = uninterrupted run"
            (List.init 10 (fun i -> i + 2))
            (List.map y_exn union)))

let test_req_idempotency () =
  with_dir (fun dir ->
      with_pool (fun pool ->
          let dur =
            { Server.dir; fsync_every = 0; snapshot_every = 0; spec = "ping" }
          in
          let srv =
            Server.create ~pool ~durability:dur (Sudoku.Networks.ping ())
          in
          let s = ok_or_fail "open" (Server.open_session srv) in
          Alcotest.(check bool) "first" true
            (Server.submit ~req:7 srv s (ping_record 1) = `Ok);
          Alcotest.(check bool) "duplicate req acked, not re-fed" true
            (Server.submit ~req:7 srv s (ping_record 1) = `Ok);
          Alcotest.(check bool) "stale req acked, not re-fed" true
            (Server.submit ~req:3 srv s (ping_record 99) = `Ok);
          Server.drain srv;
          let rs = Server.poll srv s ~max:100 in
          Alcotest.check ints "exactly one response" [ 2 ] (List.map y_exn rs)))

(* A recycled session id must not inherit the closed incarnation's
   idempotency floor across a restart: recovery scopes the journal's
   last-req scan to the id's current incarnation (reset at each
   Open/Close_session), so a fresh client's low request numbers are
   real submissions, not "duplicates" to swallow. *)
let test_id_reuse_fresh_reqs () =
  with_dir (fun dir ->
      with_pool (fun pool ->
          let dur =
            { Server.dir; fsync_every = 0; snapshot_every = 0; spec = "ping" }
          in
          let srv =
            Server.create ~pool ~durability:dur (Sudoku.Networks.ping ())
          in
          (* First incarnation of the id: high request numbers, fully
             delivered, then closed. *)
          let s = ok_or_fail "open" (Server.open_session srv) in
          let id = Server.session_id s in
          List.iteri
            (fun i x ->
              match Server.submit ~req:(i + 40) srv s (ping_record x) with
              | `Ok -> ()
              | _ -> Alcotest.fail "submit rejected")
            [ 1; 2; 3 ];
          let got = ref [] in
          await "three responses" (fun () ->
              got := !got @ Server.poll srv s ~max:8;
              List.length !got >= 3);
          Server.close_session srv s;
          (* Second incarnation reuses the id; the process dies before
             it submits anything. *)
          let s' = ok_or_fail "reopen" (Server.open_session srv) in
          Alcotest.(check int) "id recycled" id (Server.session_id s');
          List.iter Journal.kill (Journal.live_writers ());
          (try Server.drain srv with _ -> ());
          let srv2 =
            Server.create ~pool ~durability:dur (Sudoku.Networks.ping ())
          in
          let s2 =
            match Server.resume_session srv2 id with
            | Ok s2 -> s2
            | Error `Unknown -> Alcotest.fail "restored session unknown"
          in
          (* req 0 is below the OLD incarnation's floor (40..42): it
             must be journaled and fed, not acked as a duplicate. *)
          (match Server.submit ~req:0 srv2 s2 (ping_record 10) with
          | `Ok -> ()
          | _ -> Alcotest.fail "fresh req rejected");
          Server.drain srv2;
          let rs = Server.poll srv2 s2 ~max:100 in
          Alcotest.check ints "fresh req actually fed" [ 11 ]
            (List.map y_exn rs)))

let test_snapshot_bounds_replay () =
  with_dir (fun dir ->
      with_pool (fun pool ->
          let dur =
            { Server.dir; fsync_every = 0; snapshot_every = 2; spec = "ping" }
          in
          let srv =
            Server.create ~pool ~durability:dur (Sudoku.Networks.ping ())
          in
          let s = ok_or_fail "open" (Server.open_session srv) in
          List.iteri
            (fun i x ->
              match Server.submit ~req:i srv s (ping_record x) with
              | `Ok -> ()
              | _ -> Alcotest.fail "submit rejected")
            (List.init 8 (fun i -> i + 1));
          let got = ref [] in
          await "all responses" (fun () ->
              got := !got @ Server.poll srv s ~max:16;
              List.length !got >= 8);
          Alcotest.(check bool) "a snapshot was persisted" true
            (Snapshot.load ~dir <> None);
          List.iter Journal.kill (Journal.live_writers ());
          (try Server.drain srv with _ -> ());
          let srv2 =
            Server.create ~pool ~durability:dur (Sudoku.Networks.ping ())
          in
          (match Server.recovery srv2 with
          | None -> Alcotest.fail "no recovery stats"
          | Some r ->
              Alcotest.(check bool) "recovered from a snapshot" true
                r.Server.from_snapshot;
              Alcotest.(check bool)
                (Printf.sprintf "replay bounded by the snapshot (%d < 8)"
                   r.Server.replayed)
                true (r.Server.replayed < 8));
          Server.drain srv2))

(* --- Replay.run_dist: exactly-once across incarnations ------------- *)

let solve_inputs board = [ Sudoku.Boxes.inject_board board ]

let test_replay_dist_complete () =
  with_dir (fun dir ->
      let board = Sudoku.Puzzles.easy in
      let reference =
        Snet.Engine_seq.run (Sudoku.Networks.fig2 ()) (solve_inputs board)
      in
      let outs =
        Replay.run_dist ~dir (fun ~tap ->
            Engine_dist.run ~workers:2 ~tap (Sudoku.Networks.fig2 ())
              (solve_inputs board))
      in
      Alcotest.(check bool) "run output multiset-equal to reference" true
        (multiset_eq reference outs);
      let entries, damage = Journal.read_dir dir in
      Alcotest.(check (option string)) "journal undamaged" None damage;
      Alcotest.(check bool) "completion marked" true
        (Replay.is_complete entries);
      Alcotest.(check bool)
        "journaled Delivered stream = output multiset" true
        (List.sort compare (Replay.delivered_frames entries)
        = List.sort compare (List.map Wire.render reference)))

let test_replay_dist_crash_resume () =
  with_dir (fun dir ->
      let board = Sudoku.Puzzles.easy in
      let reference =
        Snet.Engine_seq.run (Sudoku.Networks.fig2 ()) (solve_inputs board)
      in
      (* Incarnation 1: the journal writer dies at the second append;
         the run itself winds down, persisting nothing further.
         [~flush_every:1] pins entry-by-entry persistence so the test
         can assert exactly which entries survived the kill. *)
      Journal.arm_crash ~seam:"append" ~crossing:2;
      Fun.protect ~finally:Journal.disarm_crash (fun () ->
          ignore
            (Replay.run_dist ~dir ~flush_every:1 (fun ~tap ->
                 Engine_dist.run ~workers:2 ~tap (Sudoku.Networks.fig2 ())
                   (solve_inputs board))
              : Record.t list));
      let entries1, _ = Journal.read_dir dir in
      Alcotest.(check bool) "crashed run is not marked complete" false
        (Replay.is_complete entries1);
      (* Appends are serialized, so the crash at the second one left
         exactly the first entry on disk. *)
      Alcotest.(check int) "the crash cut the journal short" 1
        (List.length entries1);
      (* Incarnation 2: same directory; the dedupe budget swallows the
         outputs the first incarnation already journaled. *)
      let outs =
        Replay.run_dist ~dir (fun ~tap ->
            Engine_dist.run ~workers:2 ~tap (Sudoku.Networks.fig2 ())
              (solve_inputs board))
      in
      Alcotest.(check bool) "second incarnation recomputes everything" true
        (multiset_eq reference outs);
      let entries, damage = Journal.read_dir dir in
      Alcotest.(check (option string)) "journal undamaged" None damage;
      Alcotest.(check bool) "completion marked" true
        (Replay.is_complete entries);
      Alcotest.(check bool)
        "across both incarnations: every output journaled exactly once" true
        (List.sort compare (Replay.delivered_frames entries)
        = List.sort compare (List.map Wire.render reference)))

(* --- Engine_dist: the watermark resend regression ------------------ *)

(* The bug this pins down: under [Retry], the coordinator used to
   resend every uncredited in-flight record to the respawned worker.
   A worker that died after flushing an envelope's outputs but before
   its credit was observed ([crash_flush]) then recomputed those
   outputs — duplicates in the global output. The per-worker sequence
   watermark (tag [dist_seq], carried through by flow inheritance)
   drops the already-processed prefix of the resend.

   One puzzle sends a single record across the cut, so the stream is
   24 puzzles and the kill points fall inside worker 1's envelopes,
   where the crashing envelope has outputs to flush. The same kill
   under fail-fast must fail the run: proof that it fired. *)
let test_watermark_no_duplicate_resend () =
  let boards =
    List.init 24 (fun k ->
        (List.nth Sudoku.Puzzles.all (k mod 4)).Sudoku.Puzzles.board)
  in
  let inputs () = List.concat_map solve_inputs boards in
  let reference = Snet.Engine_seq.run (Sudoku.Networks.fig2 ()) (inputs ()) in
  List.iter
    (fun after ->
      let run ?supervision () =
        Engine_dist.run ~workers:2
          ~fault:
            Dist.Fault.[ Crash { part = 1; seam = Flush; crossing = after + 1 } ]
          ?supervision (Sudoku.Networks.fig2 ()) (inputs ())
      in
      (match run () with
      | _ -> Alcotest.failf "kill after %d records never fired" after
      | exception Failure _ -> ());
      Alcotest.(check bool)
        (Printf.sprintf
           "crash-flush after %d records: no duplicates, nothing lost" after)
        true
        (multiset_eq reference
           (run
              ~supervision:
                (Snet.Supervise.make ~policy:(Snet.Supervise.Retry 2) ())
              ())))
    [ 3; 13 ]

let test_watermark_stripped_from_output () =
  let board = Sudoku.Puzzles.easy in
  let outs =
    Engine_dist.run ~workers:2 (Sudoku.Networks.fig2 ()) (solve_inputs board)
  in
  Alcotest.(check bool) "dist_seq never leaks into the output" true
    (List.for_all (fun r -> Record.tag "dist_seq" r = None) outs)

(* --- snet_serve: SIGKILL, restart, resume (gated) ------------------ *)

let find_serve_exe () =
  match Sys.getenv_opt "SNET_SERVE_EXE" with
  | Some p -> Some p
  | None ->
      let dir = Filename.dirname Sys.executable_name in
      List.find_opt Sys.file_exists
        (List.map (Filename.concat dir)
           [ Filename.concat ".." (Filename.concat "bin" "snet_serve.exe") ])

(* Spawn snet_serve with stdout on a pipe and parse the banner's
   ephemeral TCP port. *)
let spawn_serve exe args =
  let out_r, out_w = Unix.pipe () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let deadline = Unix.gettimeofday () +. 15. in
  let rec find_port () =
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "snet_serve banner not seen within 15s"
    else
      match input_line ic with
      | exception End_of_file -> Alcotest.fail "snet_serve exited prematurely"
      | line -> (
          try Scanf.sscanf line "snet_serve: listening tcp=%d" Fun.id
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> find_port ())
  in
  let port = find_port () in
  (* Keep the pipe drained so the daemon can never block on stdout. *)
  ignore
    (Thread.create
       (fun () -> try while true do ignore (input_line ic) done with _ -> ())
       ()
      : Thread.t);
  (pid, port)

let test_sigkill_resume () =
  if not (tcp_enabled ()) then Alcotest.skip ()
  else
    match find_serve_exe () with
    | None -> Alcotest.fail "snet_serve.exe not found; set SNET_SERVE_EXE"
    | Some exe ->
        with_dir (fun dir ->
            let args =
              [ "--spec"; "ping"; "--journal"; dir; "--snapshot-every"; "4";
                "--port"; "0" ]
            in
            let pid, port = spawn_serve exe args in
            let killed = ref false in
            let sid, recv1 =
              Fun.protect
                ~finally:(fun () ->
                  if not !killed then begin
                    (try Unix.kill pid Sys.sigkill
                     with Unix.Unix_error _ -> ());
                    ignore (Unix.waitpid [] pid)
                  end)
                (fun () ->
                  let conn =
                    Transport.erase
                      (module Transport.Tcp)
                      (Transport.Tcp.connect ~host:"127.0.0.1" ~port)
                  in
                  let c = Result.get_ok (Client.connect ~credits:32 conn) in
                  for i = 1 to 12 do
                    match Client.submit c (ping_record i) with
                    | `Ok -> ()
                    | _ -> Alcotest.fail "submit failed"
                  done;
                  (* Receive part of the stream, SIGKILL mid-delivery,
                     then drain what the dead server had already
                     written to the socket. *)
                  let recv1 = ref [] in
                  let rec pull k =
                    if k > 0 then
                      match Client.recv c with
                      | `Record r ->
                          recv1 := Wire.render r :: !recv1;
                          pull (k - 1)
                      | `Done | `Crashed _ -> ()
                  in
                  pull 4;
                  Unix.kill pid Sys.sigkill;
                  killed := true;
                  ignore (Unix.waitpid [] pid);
                  (try pull max_int with _ -> ());
                  (Client.session c, !recv1))
            in
            (* What the journal accepted is what the restarted server
               owes: exactly one response per journaled input. *)
            let entries, _ = Journal.read_dir dir in
            let accepted =
              List.filter_map
                (fun e ->
                  if e.Journal.kind = Journal.Input then
                    match Wire.read e.Journal.payload with
                    | Ok r -> Record.tag "x" r
                    | Error _ -> None
                  else None)
                (Journal.dedupe entries)
            in
            Alcotest.(check bool) "some inputs were journaled" true
              (accepted <> []);
            let expected =
              List.sort compare (List.map (fun x -> x + 1) accepted)
            in
            let pid2, port2 = spawn_serve exe args in
            Fun.protect
              ~finally:(fun () ->
                (try Unix.kill pid2 Sys.sigterm with Unix.Unix_error _ -> ());
                ignore (Unix.waitpid [] pid2))
              (fun () ->
                let conn2 =
                  Transport.erase
                    (module Transport.Tcp)
                    (Transport.Tcp.connect ~host:"127.0.0.1" ~port:port2)
                in
                let c2 =
                  match Client.connect ~credits:32 ~resume:sid conn2 with
                  | Ok c2 -> c2
                  | Error e -> Alcotest.fail ("resume rejected: " ^ e)
                in
                Alcotest.(check int) "same session id" sid (Client.session c2);
                (* Read until the deduped union covers every journaled
                   input — redelivered duplicates (sent by the dead
                   server but never journaled) are dropped by byte
                   equality. *)
                let seen = Hashtbl.create 32 in
                List.iter (fun f -> Hashtbl.replace seen f ()) recv1;
                let union = ref (Hashtbl.fold (fun f () a -> f :: a) seen []) in
                let deadline = Unix.gettimeofday () +. 20. in
                let rec collect () =
                  if
                    List.length !union < List.length expected
                    && Unix.gettimeofday () < deadline
                  then
                    match Client.recv c2 with
                    | `Record r ->
                        let f = Wire.render r in
                        if not (Hashtbl.mem seen f) then begin
                          Hashtbl.add seen f ();
                          union := f :: !union
                        end;
                        collect ()
                    | `Done -> ()
                    | `Crashed e -> Alcotest.fail ("resumed session: " ^ e)
                in
                collect ();
                let ys =
                  List.map
                    (fun f ->
                      match Wire.read f with
                      | Ok r -> y_exn r
                      | Error e -> Alcotest.fail ("bad frame: " ^ e))
                    !union
                in
                Alcotest.check ints
                  "deduped union = one response per journaled input" expected
                  ys;
                Client.close c2))

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "journal round-trip, reopen continues" `Quick
      test_journal_roundtrip;
    Alcotest.test_case "missing journal is empty" `Quick
      test_journal_missing_file;
    Alcotest.test_case "killed writer persists nothing further" `Quick
      test_journal_killed_writer;
    Alcotest.test_case "torn tail repaired on reopen" `Quick
      test_journal_torn_tail_repair;
    Alcotest.test_case "unreadable journal is damage, not emptiness" `Quick
      test_journal_unreadable;
    Seeded.to_alcotest prop_torn_tail;
    Seeded.to_alcotest prop_bit_flip;
    Seeded.to_alcotest prop_duplicate_seqs;
    Alcotest.test_case "snapshot round-trip + corruption" `Quick
      test_snapshot_roundtrip;
    Alcotest.test_case "snapshot crash seams (pre/post)" `Quick
      test_snapshot_crash_seams;
    Alcotest.test_case "run_state: every cut point resumes exactly" `Quick
      test_run_state_cut_points;
    Alcotest.test_case "conc capture/restore at quiescence" `Quick
      test_conc_capture_restore;
    Alcotest.test_case "capture on one engine, restore on the other" `Quick
      test_cross_engine_restore;
    Seeded.to_alcotest (prop_capture_agrees Detcheck.Netgen.Det);
    Seeded.to_alcotest (prop_capture_agrees Detcheck.Netgen.Nondet);
    Alcotest.test_case "crash-point matrix (detcheck, >= 100 schedules)" `Slow
      test_crash_matrix;
    Alcotest.test_case "embedded durable restart" `Quick test_embedded_restart;
    Alcotest.test_case "request idempotency" `Quick test_req_idempotency;
    Alcotest.test_case "recycled id resets idempotency floor" `Quick
      test_id_reuse_fresh_reqs;
    Alcotest.test_case "snapshot bounds recovery replay" `Quick
      test_snapshot_bounds_replay;
    Alcotest.test_case "replay_dist: complete run journaled once" `Quick
      test_replay_dist_complete;
    Alcotest.test_case "replay_dist: crash + resume = exactly once" `Quick
      test_replay_dist_crash_resume;
    Alcotest.test_case "watermark: crash-flush resend deduped" `Quick
      test_watermark_no_duplicate_resend;
    Alcotest.test_case "watermark: seq tag stripped from output" `Quick
      test_watermark_stripped_from_output;
    Alcotest.test_case "snet_serve SIGKILL + journal resume (tcp)" `Quick
      test_sigkill_resume;
  ]
