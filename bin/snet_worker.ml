(* Distributed S-Net worker: connect back to a coordinator, receive a
   Hello naming a network spec and a partition index, run that
   partition on the concurrent engine, stream records until told to
   stop. Spawned by [snet_sudoku --workers N] (or any caller of
   [Dist.Engine_dist.run_spawned]); rarely useful to start by hand. *)

open Cmdliner

let parse_endpoint s =
  match String.rindex_opt s ':' with
  | None -> Error (`Msg "expected HOST:PORT")
  | Some i -> (
      let host = String.sub s 0 i
      and port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Ok (host, p)
      | _ -> Error (`Msg ("bad port in " ^ s)))

let endpoint_conv =
  Arg.conv
    (parse_endpoint, fun fmt (h, p) -> Format.fprintf fmt "%s:%d" h p)

let run_worker (host, port) domains journal =
  Sudoku.Netspec.register_codecs ();
  let pool = Scheduler.Pool.create ~num_domains:domains () in
  let tap =
    match journal with
    | None -> None
    | Some dir ->
        let w = Durable.Journal.open_writer dir in
        Some
          (fun ~edge r ->
            try
              ignore
                (Durable.Journal.append w ~kind:Durable.Journal.Input ~edge
                   (Dist.Wire.render r)
                  : int)
            with Durable.Journal.Killed -> ())
  in
  let conn =
    try
      Dist.Transport.erase
        (module Dist.Transport.Tcp)
        (Dist.Transport.Tcp.connect ~host ~port)
    with e ->
      Printf.eprintf "snet_worker: cannot connect to %s:%d: %s\n%!" host port
        (Printexc.to_string e);
      exit 1
  in
  Dist.Engine_dist.serve ~pool ?tap ~conn
    ~resolve:(fun spec -> Sudoku.Netspec.resolve ~pool spec)
    ();
  Scheduler.Pool.shutdown pool

let cmd =
  let connect =
    Arg.(
      required
      & opt (some endpoint_conv) None
      & info [ "connect" ] ~docv:"HOST:PORT"
          ~doc:"Coordinator endpoint to dial.")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains"; "d" ] ~doc:"Worker pool domains.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"DIR"
          ~doc:
            "Journal every consumed input record under $(docv) (one \
             Input entry per record on this worker's cut edge).")
  in
  Cmd.v
    (Cmd.info "snet-worker"
       ~doc:"S-Net partition worker (spawned by the coordinator)")
    Term.(const run_worker $ connect $ domains $ journal)

let () = exit (Cmd.eval cmd)
