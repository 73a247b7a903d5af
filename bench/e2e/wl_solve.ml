(* fig2-solve and fig3-solve16: seeded sudoku corpora through the
   paper's networks on Engine_conc, closed loop, one puzzle in flight,
   one Engine_conc.run per puzzle. *)

open Harness
module Board = Sudoku.Board

(* The solved boards of a puzzle as a multiset: how many, and a digest
   of their sorted cell strings. *)
type answer = { solutions : int; digest : Digest.t }

let no_answer = { solutions = 0; digest = "" }

type config = {
  name : string;
  n : int;  (** Box size: 3 for 9×9, 4 for 16×16. *)
  holes : int;
  corpus : int;
  build : Scheduler.Pool.t -> Snet.Net.t;
  reference : Board.t -> answer option;
      (** What the oracle compares against, computed with the corpus;
          [None] leaves the puzzle out of it. *)
  oracle : Board.t -> answer -> Snet.Record.t list -> (unit, string) result;
}

let answer outs =
  let keys =
    List.sort compare
      (List.map
         (fun b -> String.concat "," (List.map (fun (_, _, v) -> string_of_int v) (Board.cells b)))
         (Sudoku.Networks.solved_boards outs))
  in
  { solutions = List.length keys; digest = Digest.string (String.concat ";" keys) }

(* fig2 keeps puzzles with at most this many solutions. A few holes-44
   puzzles have hundreds, and the widest one in a corpus set the child's
   peak RSS: over ten seeds it read 26–30 MB, and 37 MB for a corpus
   holding one with 765 solutions. *)
let max_solutions = 64

(* fig2: per puzzle, the multiset of solved boards equals Engine_seq's. *)
let fig2_net = lazy (Sudoku.Networks.fig2 ())

let fig2_reference p =
  let a = answer (Snet.Engine_seq.run (Lazy.force fig2_net) [ Sudoku.Boxes.inject_board p ]) in
  if a.solutions <= max_solutions then Some a else None

let fig2_oracle _ expected outs =
  let got = answer outs in
  if got = expected then Ok ()
  else
    Error
      (Printf.sprintf "%d solved boards, Engine_seq gives %d%s" got.solutions
         expected.solutions
         (if got.solutions = expected.solutions then ", not the same ones" else ""))

(* fig3-solve16: at least one output, each a solved board extending the
   puzzle's givens. *)
let fig3_oracle puzzle _ outs =
  let givens = Board.filled puzzle in
  let ok r =
    match Sudoku.Boxes.board_of_record r with
    | b -> Board.solved b && List.for_all (fun (x, y, v) -> Board.get b x y = v) givens
    | exception Invalid_argument _ -> false
  in
  if outs = [] then Error "no output"
  else if List.for_all ok outs then Ok ()
  else Error "an output is unsolved or drops a given"

let fig2 =
  {
    name = "fig2-solve";
    n = 3;
    holes = 44;
    corpus = 2000;
    build = (fun pool -> Sudoku.Networks.fig2 ~pool ());
    reference = fig2_reference;
    oracle = fig2_oracle;
  }

let fig3 =
  {
    name = "fig3-solve16";
    n = 4;
    holes = 100;
    corpus = 300;
    build =
      (fun pool ->
        Sudoku.Networks.fig3 ~pool ~throttle:4 ~cutoff:40 ~side:16 ());
    reference = (fun _ -> Some no_answer);
    oracle = fig3_oracle;
  }

(* Set-ups per batch. Set-up here is a pool and a net build, 1–2 µs.
   On the development VM its time flips between two levels about twice
   apart, from one fraction of a second to the next, far more than the
   probe's; one batch before the run caught one level, and ten runs of
   one workload spread 18–37%. So a batch runs before the loop and one
   each second of it, and the median over all of them takes the level
   that held most of the run. *)
let setup_reps = 21

(* [f ()] in a forked process, its result marshalled back: the heap it
   grows stays out of this process's resident high-water mark. Called
   before this process spawns any domain. *)
let in_fork f =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      Marshal.to_channel oc (f ()) [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v = try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None in
      close_in ic;
      match (Unix.waitpid [] pid, v) with
      | (_, Unix.WEXITED 0), Some v -> v
      | _ -> failwith "corpus and reference process failed")

let run cfg ctx tally =
  Sudoku.Netspec.register_codecs ();
  let corpus = if ctx.smoke then min cfg.corpus 20 else cfg.corpus in
  let puzzles, reference =
    in_fork (fun () ->
        let st = rng ctx cfg.name in
        let rec gen acc k =
          if k = corpus then List.rev acc
          else
            let p =
              Sudoku.Generate.puzzle ~seed:(Random.State.bits st) ~n:cfg.n
                ~holes:cfg.holes ()
            in
            match cfg.reference p with
            | Some a -> gen ((p, a) :: acc) (k + 1)
            | None -> gen acc k
        in
        let kept = gen [] 0 in
        ((Array.of_list (List.map fst kept), Array.of_list (List.map snd kept))
          : Board.t array * answer array))
  in
  let check i = cfg.oracle puzzles.(i) reference.(i) in
  (* Set-up: the pool, then the network. The run keeps the last one of
     the first batch. *)
  let build _ =
    let t0 = now () in
    (* No worker domain: every task runs on the caller. With one, both
       workloads ran slower and less steadily on two vCPUs, by whether
       the worker domain got the second one (fig3 ~15 or ~22 ms a
       puzzle), and the probe that scales the times runs on one core. *)
    let pool = Scheduler.Pool.create ~num_domains:0 () in
    let net = cfg.build pool in
    ((pool, net), now () -. t0)
  in
  let discard (pool, _) = Scheduler.Pool.shutdown pool in
  let (pool, net), first = setup_batch ~reps:setup_reps ~discard build in
  let setup_samples = ref first in
  let setup_again () =
    let last, samples = setup_batch ~reps:setup_reps ~discard build in
    discard last;
    setup_samples := samples @ !setup_samples
  in
  let solve ?observer ?stats net i =
    let t0 = now () in
    let outs =
      match
        Snet.Engine_conc.run ~pool ?observer ?stats net
          [ Sudoku.Boxes.inject_board puzzles.(i) ]
      with
      | outs -> Ok outs
      | exception e -> Error (Printexc.to_string e)
    in
    let dt = now () -. t0 in
    attempt tally 1;
    (match Result.bind outs (check i) with
    | Ok () -> ()
    | Error e -> fail tally "%s: puzzle %d: %s" cfg.name i e);
    dt
  in
  let next = ref 0 in
  let step () =
    let i = !next mod corpus in
    incr next;
    i
  in
  let warm_until = now () +. if ctx.smoke then 0.1 else 1.0 in
  while now () < warm_until do
    ignore (solve net (step ()))
  done;
  let e2e, extras =
    if ctx.traced then ([], [])
    else begin
      let loop =
        closed_loop ~seconds:ctx.seconds ~each_second:setup_again (fun () ->
            solve net (step ()))
      in
      let times, lat, probe = loop_metrics loop in
      let setup = setup_metric !setup_samples in
      ( List.map fst times
        @ [
            (* This process holds the corpus and the engine; the corpus
               generator and the reference ran in a fork. *)
            metric "peak_rss_mb" "MB" (peak_rss_mb (Unix.getpid ()));
            fst setup;
          ],
        (* Windows of at least 1,000 puzzles: ten samples beyond p99. *)
        (metric "latency_p99_ms" "ms" (windowed_p99 lat 1000 *. 1e3)
        :: List.map snd (times @ [ setup ]))
        @ [ probe ] )
    end
  in
  let layers =
    if not ctx.traced then []
    else begin
      (* Every step solves one puzzle three ways — untraced, traced
         (box shim, hop observer, counters, spans) and on Engine_seq —
         in rotating order, so all three see the same puzzles. *)
      let spans = Spans.create () in
      let shim = Shim.create spans in
      let traced_net = Shim.net shim (cfg.build pool) in
      let observer, hops = hop_counter () in
      let stats = Snet.Stats.create () in
      let plain_s = ref 0. and traced_s = ref 0. and seq_s = ref 0. in
      let m = ref 0 in
      let t_start = now () in
      while now () -. t_start < ctx.seconds do
        let i = step () in
        let plain () = plain_s := !plain_s +. solve net i in
        let traced () =
          let t0 = now () in
          let dt = solve ~observer ~stats traced_net i in
          Spans.add spans ~cat:"input" ~name:cfg.name ~tid:0 t0 (t0 +. dt);
          traced_s := !traced_s +. dt
        in
        let seq () =
          let t0 = now () in
          ignore (Snet.Engine_seq.run net [ Sudoku.Boxes.inject_board puzzles.(i) ]);
          seq_s := !seq_s +. (now () -. t0)
        in
        (match !m mod 3 with
        | 0 -> plain (); traced (); seq ()
        | 1 -> traced (); seq (); plain ()
        | _ -> seq (); plain (); traced ());
        incr m
      done;
      let m = !m in
      let per_input_s = !plain_s /. float_of_int m in
      let snap = Snet.Stats.snapshot stats in
      write_trace ctx tally spans cfg.name;
      box_and_coord_metrics ~shim ~shim_inputs:m ~per_input_s
        ~seq_per_input_s:(!seq_s /. float_of_int m)
      @ engine_metrics ~stats:snap ~hops:(Atomic.get hops) ~inputs:m
      @ [
          metric "flow.stalls_per_input" "count"
            (float_of_int snap.Snet.Stats.backpressure_stalls /. float_of_int m);
        ]
      @ wire_metrics tally
          (List.init (min corpus 200) (fun i ->
               Sudoku.Boxes.inject_board puzzles.(i)))
      @ [ metric "trace.overhead_ratio" "ratio" (!traced_s /. !plain_s) ]
    end
  in
  Scheduler.Pool.shutdown pool;
  (e2e, layers, extras)
