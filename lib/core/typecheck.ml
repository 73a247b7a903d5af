exception Type_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

let routable input v =
  List.exists (fun w -> Rectype.Variant.subtype v w) input

(* The input variant of [input] that a record of variant [v] would be
   routed to: the accepted variant with the greatest arity (the most
   specific match). *)
let best_input input v =
  List.fold_left
    (fun best w ->
      if Rectype.Variant.subtype v w then
        match best with
        | Some b when Rectype.Variant.arity b >= Rectype.Variant.arity w ->
            best
        | _ -> Some w
      else best)
    None input

(* Output type of feeding a record of variant [v] into a component of
   signature [sg]: B's declared outputs extended by the flow-inherited
   leftover labels of [v]. *)
let feed sg v =
  match best_input sg.Rectype.input v with
  | None -> None
  | Some w ->
      let leftover = Rectype.Variant.diff v w in
      Some
        (List.map
           (fun u -> Rectype.Variant.union u leftover)
           sg.Rectype.output)

(* The variant a synchrocell emits when it fires: union of all its
   pattern variants. *)
let sync_merged patterns =
  List.fold_left
    (fun acc p -> Rectype.Variant.union acc p.Pattern.variant)
    Rectype.Variant.empty patterns

let rec infer net =
  match net with
  | Net.Box b -> Box.signature b
  | Net.Filter f -> Filter.signature f
  | Net.Sync patterns ->
      (* Declared view: accepts any pattern variant; emits either a
         pass-through (spent cell) or the merged record. *)
      let inputs = List.map (fun p -> p.Pattern.variant) patterns in
      {
        Rectype.input = Rectype.normalise inputs;
        output = Rectype.normalise (sync_merged patterns :: inputs);
      }
  | Net.Observe { body; _ } -> infer body
  | Net.Place { hints; body } ->
      (match hints.Net.place with
      | Some n when n < 0 ->
          fail "placement hint %s: @place worker=%d is negative"
            (Net.to_string net) n
      | _ -> ());
      (match hints.Net.weight with
      | Some w when w < 1 ->
          fail "placement hint %s: @weight %d must be >= 1"
            (Net.to_string net) w
      | _ -> ());
      (match hints.Net.shards with
      | Some k when k < 1 ->
          fail "placement hint %s: @shards %d must be >= 1"
            (Net.to_string net) k
      | Some _ -> (
          match Net.unplace body with
          | Net.Split { det = false; _ } -> ()
          | Net.Split { det = true; _ } ->
              fail
                "placement hint %s: @shards cannot apply to a \
                 deterministic split (!) — sharding would break its \
                 causal merge order"
                (Net.to_string net)
          | _ ->
              fail
                "placement hint %s: @shards only applies to a parallel \
                 replication (!!)"
                (Net.to_string net))
      | None -> ());
      infer body
  | Net.Serial (a, b) ->
      let sa = infer a and sb = infer b in
      let outputs =
        List.concat_map
          (fun v ->
            match feed sb v with
            | Some outs -> outs
            | None ->
                fail "serial composition %s: output variant %s of %s matches no input of %s (input type %s)"
                  (Net.to_string net)
                  (Rectype.Variant.to_string v)
                  (Net.to_string a) (Net.to_string b)
                  (Rectype.to_string sb.Rectype.input))
          sa.Rectype.output
      in
      { Rectype.input = sa.Rectype.input; output = Rectype.normalise outputs }
  | Net.Choice { left; right; _ } ->
      let sl = infer left and sr = infer right in
      {
        Rectype.input = Rectype.union sl.Rectype.input sr.Rectype.input;
        output = Rectype.union sl.Rectype.output sr.Rectype.output;
      }
  | Net.Star { body; exit; _ } ->
      let sb = infer body in
      let exit_v = exit.Pattern.variant in
      let guarded = exit.Pattern.guard <> Pattern.True in
      (* Every body output must either leave through the tap or loop
         back into the body; with a guarded exit the loop path must
         also exist, because the guard can evaluate to false. *)
      List.iter
        (fun v ->
          let can_exit = Rectype.Variant.subtype v exit_v in
          let can_loop = routable sb.Rectype.input v in
          if (not can_exit) && not can_loop then
            fail "star %s: body output %s neither matches exit %s nor re-enters the body (input %s)"
              (Net.to_string net)
              (Rectype.Variant.to_string v)
              (Pattern.to_string exit)
              (Rectype.to_string sb.Rectype.input);
          if can_exit && guarded && not can_loop then
            fail "star %s: body output %s may fail the exit guard %s but cannot re-enter the body"
              (Net.to_string net)
              (Rectype.Variant.to_string v)
              (Pattern.to_string exit))
        sb.Rectype.output;
      let exiting =
        List.filter
          (fun v -> Rectype.Variant.subtype v exit_v)
          sb.Rectype.output
      in
      let output = if exiting = [] then [ exit_v ] else exiting in
      {
        (* Incoming records either exit immediately or enter the body. *)
        Rectype.input = Rectype.union sb.Rectype.input [ exit_v ];
        output = Rectype.normalise output;
      }
  | Net.Split { body; tag; _ } ->
      let sb = infer body in
      let with_tag v =
        Rectype.Variant.union v (Rectype.Variant.make ~fields:[] ~tags:[ tag ])
      in
      let inputs = List.map with_tag sb.Rectype.input in
      (* A replica behaves like the body fed records that additionally
         carry the routing tag; the tag flow-inherits through bodies
         that do not consume it. *)
      let outputs =
        List.concat_map
          (fun w ->
            let v = with_tag w in
            match feed sb v with
            | Some outs -> outs
            | None ->
                fail "split %s: internal routing failure on %s"
                  (Net.to_string net)
                  (Rectype.Variant.to_string v))
          sb.Rectype.input
      in
      {
        Rectype.input = Rectype.normalise inputs;
        output = Rectype.normalise outputs;
      }

let check net = ignore (infer net)

let rec input_type = function
  | Net.Box b -> (Box.signature b).Rectype.input
  | Net.Filter f -> (Filter.signature f).Rectype.input
  | Net.Sync patterns ->
      Rectype.normalise (List.map (fun p -> p.Pattern.variant) patterns)
  | Net.Observe { body; _ } | Net.Place { body; _ } -> input_type body
  | Net.Serial (a, _) -> input_type a
  | Net.Choice { left; right; _ } ->
      Rectype.union (input_type left) (input_type right)
  | Net.Star { body; exit; _ } ->
      Rectype.union (input_type body) [ exit.Pattern.variant ]
  | Net.Split { body; tag; _ } ->
      List.map
        (fun v ->
          Rectype.Variant.union v (Rectype.Variant.make ~fields:[] ~tags:[ tag ]))
        (input_type body)
      |> Rectype.normalise

let rec flow given net =
  let out =
    List.concat_map (fun v -> flow_variant v net) (Rectype.normalise given)
  in
  Rectype.normalise out

and flow_variant v net =
  (* Error records bypass every component: the engines forward them
     unchanged (straight to the merge point of a choice or split, out
     through the tap of a star), so at the type level an error-tagged
     variant flows through any net as itself. *)
  if Rectype.Variant.has_tag Supervise.error_tag v then [ v ]
  else
    match net with
  | Net.Box b -> flow_leaf v net (Box.signature b)
  | Net.Filter f -> flow_leaf v net (Filter.signature f)
  | Net.Sync patterns ->
      (* A record may pass through unchanged (spent or non-matching
         cell) or come out merged with the other stored records. *)
      [ v; Rectype.Variant.union v (sync_merged patterns) ]
  | Net.Observe { body; _ } | Net.Place { body; _ } -> flow_variant v body
  | Net.Serial (a, b) -> flow (flow_variant v a) b
  | Net.Choice { left; right; _ } ->
      let score branch =
        Option.map Rectype.Variant.arity (best_input (input_type branch) v)
      in
      let sl = score left and sr = score right in
      (match (sl, sr) with
      | None, None ->
          fail "parallel composition %s: no branch accepts %s"
            (Net.to_string net)
            (Rectype.Variant.to_string v)
      | Some _, None -> flow_variant v left
      | None, Some _ -> flow_variant v right
      | Some a, Some b ->
          if a > b then flow_variant v left
          else if b > a then flow_variant v right
          else
            (* Tie: the nondeterministic choice may take either branch
               (and the deterministic one resolves it left, but the
               sound type is the union). *)
            flow_variant v left @ flow_variant v right)
  | Net.Star { body; exit; _ } ->
      let exit_v = exit.Pattern.variant in
      let guarded = exit.Pattern.guard <> Pattern.True in
      let seen = Hashtbl.create 16 in
      let outputs = ref [] in
      let key u =
        (Rectype.Variant.fields u, Rectype.Variant.tags u)
      in
      let rec visit u =
        if not (Hashtbl.mem seen (key u)) then begin
          Hashtbl.add seen (key u) ();
          let can_exit = Rectype.Variant.subtype u exit_v in
          let can_loop = routable (input_type body) u in
          if can_exit then outputs := u :: !outputs;
          if (not can_exit) || guarded then begin
            if not can_loop then
              if can_exit then
                (* Guarded exit that may fail, with no loop path. *)
                fail "star %s: variant %s may fail the exit guard %s but cannot re-enter the body"
                  (Net.to_string net)
                  (Rectype.Variant.to_string u)
                  (Pattern.to_string exit)
              else
                fail "star %s: variant %s neither matches exit %s nor re-enters the body"
                  (Net.to_string net)
                  (Rectype.Variant.to_string u)
                  (Pattern.to_string exit)
            else List.iter visit (flow_variant u body)
          end
        end
      in
      visit v;
      !outputs
  | Net.Split { body; tag; _ } ->
      if not (List.mem tag (Rectype.Variant.tags v)) then
        fail "split %s: variant %s lacks routing tag <%s>" (Net.to_string net)
          (Rectype.Variant.to_string v)
          tag;
      flow_variant v body

and flow_leaf v net sg =
  match feed sg v with
  | Some outs -> outs
  | None ->
      fail "%s: input %s not accepted (declared input %s)"
        (Net.to_string net)
        (Rectype.Variant.to_string v)
        (Rectype.to_string sg.Rectype.input)

