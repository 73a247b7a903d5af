(* Differential testing on randomly generated networks: every engine
   must agree with the reference interpreter — exactly on fully
   deterministic networks, up to permutation otherwise.

   Generation lives in {!Detcheck.Netgen} (shared with the
   schedule-exploring oracle and the replay CLI), so the grammar here
   includes synchrocells, feedback stars and supervised boxes (error
   records, retry exhaustion with backoff, timeout overruns). These
   properties exercise the REAL actor engine — domain pool, wall
   clock; the same specs run under virtual schedules in
   [test_detcheck]. *)

module Net = Snet.Net
module Box = Snet.Box
module Netgen = Detcheck.Netgen

let arbitrary klass =
  QCheck.make ~print:Netgen.print
    ~shrink:(fun spec yield -> Seq.iter yield (Netgen.shrink spec))
    (Netgen.gen klass)

let run_differential spec =
  let det = Netgen.deterministic spec in
  let net = Netgen.to_net spec in
  let records = Netgen.records spec in
  let reference =
    Netgen.signature_string ~det (Snet.Engine_seq.run net records)
  in
  let pool = Scheduler.Pool.create ~num_domains:2 () in
  Fun.protect
    ~finally:(fun () -> Scheduler.Pool.shutdown pool)
    (fun () ->
      Netgen.signature_string ~det (Snet.Engine_conc.run ~pool net records)
      = reference)

let prop_det =
  QCheck.Test.make ~name:"random det nets: all engines byte-identical"
    ~count:40 (arbitrary Netgen.Det) run_differential

let prop_nondet =
  QCheck.Test.make ~name:"random nondet nets: same multiset on all engines"
    ~count:40 (arbitrary Netgen.Nondet) run_differential

(* The real pool's steal-victim choice routed through a seeded chooser
   ({!Scheduler.Pool.create}'s [steal_choice] hook): same differential
   bar, but the pool's only internal randomness now derives from the
   session seed. *)
let prop_det_steal_fuzz =
  QCheck.Test.make
    ~name:"random det nets: byte-identical under seeded steal fuzzing"
    ~count:15 (arbitrary Netgen.Det)
    (fun spec ->
      let net = Netgen.to_net spec in
      let records = Netgen.records spec in
      let reference =
        Netgen.signature_string ~det:true (Snet.Engine_seq.run net records)
      in
      let pool =
        Scheduler.Pool.create ~num_domains:2
          ~steal_choice:(Detcheck.Strategy.steal_choice ~seed:(Seeded.seed ()))
          ()
      in
      Fun.protect
        ~finally:(fun () -> Scheduler.Pool.shutdown pool)
        (fun () ->
          Netgen.signature_string ~det:true
            (Snet.Engine_conc.run ~pool net records)
          = reference))

(* Soundness of the admission check: if Typecheck.flow accepts a
   record's variant, the reference engine must route it without error;
   if it rejects, the engine must reject too (it runs the same check).
   The grammar below includes a box demanding an extra tag so that
   rejection actually occurs. *)

let needs_y =
  Box.make ~name:"needsY" ~input:[ Box.T "x"; Box.T "y" ]
    ~outputs:[ [ Box.T "x"; Box.T "y" ] ]
    (fun ~emit -> function
      | [ Tag x; Tag y ] -> emit 1 [ Tag (x + y); Tag y ]
      | _ -> assert false)

let rec picky_net_gen depth =
  let open QCheck.Gen in
  if depth = 0 then
    oneofl [ Net.box Netgen.inc; Net.box needs_y; Net.box Netgen.dup ]
  else
    frequency
      [
        (2, oneofl [ Net.box Netgen.inc; Net.box needs_y ]);
        ( 2,
          map2 Net.serial (picky_net_gen (depth - 1)) (picky_net_gen (depth - 1)) );
        ( 1,
          map2 (fun a b -> Net.choice a b) (picky_net_gen (depth - 1))
            (picky_net_gen (depth - 1)) );
        (1, map (fun b -> Net.split b "k") (picky_net_gen (depth - 1)));
      ]

let prop_flow_soundness =
  QCheck.Test.make ~name:"flow acceptance = engine acceptance" ~count:100
    (QCheck.make
       ~print:(fun (n, has_y) ->
         Printf.sprintf "%s on %s" (Net.to_string n)
           (if has_y then "{<x>,<y>,<k>}" else "{<x>,<k>}"))
       QCheck.Gen.(pair (picky_net_gen 3) bool))
    (fun (net, has_y) ->
      let tags = [ ("x", 1); ("k", 0) ] @ (if has_y then [ ("y", 2) ] else []) in
      let record = Snet.record ~tags () in
      let variant = Snet.Rectype.Variant.of_record record in
      let statically_ok =
        match Snet.Typecheck.flow [ variant ] net with
        | _ -> true
        | exception Snet.Typecheck.Type_error _ -> false
      in
      let dynamically_ok =
        match Snet.Engine_seq.run net [ record ] with
        | _ -> true
        | exception
            ( Snet.Typecheck.Type_error _ | Snet.Engine_seq.Route_error _
            | Invalid_argument _ ) ->
            false
      in
      statically_ok = dynamically_ok)

let suite =
  [
    Seeded.to_alcotest prop_det;
    Seeded.to_alcotest prop_nondet;
    Seeded.to_alcotest prop_det_steal_fuzz;
    Seeded.to_alcotest prop_flow_soundness;
  ]
