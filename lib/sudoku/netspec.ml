let registered = ref false

let register_codecs () =
  if not !registered then begin
    registered := true;
    Dist.Wire.register_nd_int Boxes.board_field;
    Dist.Wire.register_nd_int Boxes.opts_field
  end

let spec ?(det = false) ?throttle ?cutoff ?side ?shards ?spin name =
  (match name with
  | "fig1" | "fig2" | "fig3" | "ping" | "shard" -> ()
  | _ -> invalid_arg ("Netspec.spec: unknown network " ^ name));
  let b = Buffer.create 32 in
  Buffer.add_string b name;
  if det then Buffer.add_string b ":det";
  let opt k = function
    | None -> ()
    | Some v -> Buffer.add_string b (Printf.sprintf ":%s=%d" k v)
  in
  opt "throttle" throttle;
  opt "cutoff" cutoff;
  opt "side" side;
  opt "shards" shards;
  opt "spin" spin;
  Buffer.contents b

let resolve ?pool s =
  match String.split_on_char ':' s with
  | [] -> failwith "Netspec.resolve: empty spec"
  | name :: opts ->
      let det = ref false in
      let throttle = ref None and cutoff = ref None and side = ref None in
      let shards = ref None and spin = ref None in
      List.iter
        (fun o ->
          match String.index_opt o '=' with
          | None when o = "det" -> det := true
          | None -> failwith (Printf.sprintf "Netspec.resolve: bad option %S" o)
          | Some eq -> (
              let k = String.sub o 0 eq
              and v = String.sub o (eq + 1) (String.length o - eq - 1) in
              let v =
                match int_of_string_opt v with
                | Some v -> v
                | None ->
                    failwith
                      (Printf.sprintf "Netspec.resolve: bad value in %S" o)
              in
              match k with
              | "throttle" -> throttle := Some v
              | "cutoff" -> cutoff := Some v
              | "side" -> side := Some v
              | "shards" -> shards := Some v
              | "spin" -> spin := Some v
              | _ ->
                  failwith (Printf.sprintf "Netspec.resolve: bad option %S" o)))
        opts;
      let det = !det in
      (match (name, !throttle, !cutoff, !side, !shards, !spin) with
      | ("fig1" | "fig2" | "ping"), None, None, None, None, None -> ()
      | ("fig1" | "fig2" | "ping"), _, _, _, _, _ ->
          failwith ("Netspec.resolve: " ^ name ^ " takes no options but det")
      | "fig3", _, _, _, None, None -> ()
      | "fig3", _, _, _, _, _ ->
          failwith "Netspec.resolve: fig3 takes no shards/spin options"
      | "shard", None, None, None, _, _ -> ()
      | "shard", _, _, _, _, _ ->
          failwith "Netspec.resolve: shard takes only shards/spin options"
      | _ -> ());
      (match name with
      | "fig1" -> Networks.fig1 ?pool ~det ()
      | "fig2" -> Networks.fig2 ?pool ~det ()
      | "ping" -> Networks.ping ()
      | "shard" ->
          if det then failwith "Netspec.resolve: shard has no det variant";
          Networks.shard ?shards:!shards ?spin:!spin ()
      | "fig3" ->
          Networks.fig3 ?pool ~det ?throttle:!throttle ?cutoff:!cutoff
            ?side:!side ()
      | other -> failwith ("Netspec.resolve: unknown network " ^ other))
