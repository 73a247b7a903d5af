type observer = edge:string -> Record.t -> unit

exception Route_error = Errors.Route_error

(* Every node calls its downstream directly: a record emitted by a
   component is carried through the rest of the network before the
   component's next emission is looked at. No merge point buffers, so
   deterministic and nondeterministic combinators coincide. *)
let host : (Record.t -> unit, unit) Node.host =
  {
    Node.leaf = (fun _ step ~down r -> List.iter down (step r));
    route = (fun f -> f ());
    send = (fun t () r -> t r);
    merge = (fun _ ~det:_ ~down -> (Fun.id, down));
  }

let run_state ?observer ?stats ?supervision ?(restore = Netstate.empty) net
    inputs =
  let net =
    match supervision with
    | Some config -> Net.with_supervision config net
    | None -> net
  in
  (* Admission check with the precise variants of the actual inputs;
     see {!Typecheck.flow}. *)
  let variants = List.map Rectype.Variant.of_record inputs in
  if variants <> [] then ignore (Typecheck.flow variants net);
  let stats = match stats with Some s -> s | None -> Stats.create () in
  let ctx = Node.create ?observer ~restore stats in
  let out = ref [] in
  let entry = Node.build ctx host net ~down:(fun o -> out := o :: !out) in
  List.iter entry inputs;
  (List.rev !out, Node.capture ctx)

let run ?observer ?stats ?supervision ?restore net inputs =
  fst (run_state ?observer ?stats ?supervision ?restore net inputs)
