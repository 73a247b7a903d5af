(* combinators: per-record overhead of each S-Net combinator (Section
   4) on both engines, over a batch of records. *)

open Bechamel
open Bench_core
module Net = Snet.Net
module Box = Snet.Box

let run () =
  let idbox name =
    Box.make ~name ~input:[ Box.T "x" ] ~outputs:[ [ Box.T "x" ] ]
      (fun ~emit -> function
        | [ Tag x ] -> emit 1 [ Tag x ]
        | _ -> assert false)
  in
  let countdown =
    Box.make ~name:"countdown" ~input:[ T "x" ]
      ~outputs:[ [ T "x" ]; [ T "x"; T "done" ] ]
      (fun ~emit -> function
        | [ Tag x ] ->
            if x <= 0 then emit 2 [ Tag 0; Tag 1 ] else emit 1 [ Tag (x - 1) ]
        | _ -> assert false)
  in
  let done_p = Snet.Pattern.make ~fields:[] ~tags:[ "done" ] () in
  let batch = if smoke then 20 else 200 in
  let inputs =
    List.init batch (fun i -> Snet.record ~tags:[ ("x", i); ("k", i mod 8) ] ())
  in
  let star_inputs =
    List.init batch (fun i -> Snet.record ~tags:[ ("x", i mod 10) ] ())
  in
  let nets =
    [
      ("box", Net.box (idbox "id"), inputs);
      ( "chain8",
        Net.serial_list
          (List.init 8 (fun i -> Net.box (idbox (Printf.sprintf "id%d" i)))),
        inputs );
      ( "filter",
        Net.filter
          (Snet.Filter.make
             (Snet.Pattern.make ~fields:[] ~tags:[ "x" ] ())
             [
               [
                 Snet.Filter.Set_tag
                   ("x", Snet.Pattern.(Add (Tag "x", Const 1)));
               ];
             ]),
        inputs );
      ( "choice",
        Net.choice (Net.box (idbox "l")) (Net.box (idbox "r")),
        inputs );
      ( "choice-det",
        Net.choice ~det:true (Net.box (idbox "l")) (Net.box (idbox "r")),
        inputs );
      ("star10", Net.star (Net.box countdown) done_p, star_inputs);
      ( "star10-det",
        Net.star ~det:true (Net.box countdown) done_p,
        star_inputs );
      ("split8", Net.split (Net.box (idbox "s")) "k", inputs);
      ("split8-det", Net.split ~det:true (Net.box (idbox "s")) "k", inputs);
    ]
  in
  let per_engine title ?quota engine run =
    bench (Printf.sprintf "%s (%d-record batch)" title batch) ?quota
      (List.map
         (fun (name, net, ins) ->
           Test.make ~name:(engine ^ "/" ^ name)
             (Staged.stage (fun () -> run net ins)))
         nets)
  in
  per_engine "sequential engine" "seq" (fun net ins ->
      Snet.Engine_seq.run net ins);
  per_engine "concurrent engine, incl. graph build" ~quota:1.0 "conc"
    (fun net ins -> Snet.Engine_conc.run ~pool:(Lazy.force conc_pool) net ins);
  Printf.printf "\n  (divide by %d for per-record cost)\n" batch
