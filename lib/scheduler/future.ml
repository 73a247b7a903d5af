type 'a state =
  | Pending
  | Resolved of ('a, exn) result

type 'a t = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable state : 'a state;
}

let create () =
  { mutex = Mutex.create (); cond = Condition.create (); state = Pending }

let resolve t result =
  Mutex.lock t.mutex;
  match t.state with
  | Resolved _ ->
      Mutex.unlock t.mutex;
      invalid_arg "Future: already resolved"
  | Pending ->
      t.state <- Resolved result;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex

let fill t v = resolve t (Ok v)
let fill_error t e = resolve t (Error e)

let run t f =
  let result = try Ok (f ()) with e -> Error e in
  resolve t result

let await t =
  Mutex.lock t.mutex;
  let rec wait () =
    match t.state with
    | Resolved r -> r
    | Pending ->
        Condition.wait t.cond t.mutex;
        wait ()
  in
  let r = wait () in
  Mutex.unlock t.mutex;
  match r with Ok v -> v | Error e -> raise e

let peek t =
  Mutex.lock t.mutex;
  let r = match t.state with Pending -> None | Resolved r -> Some r in
  Mutex.unlock t.mutex;
  r

let is_resolved t = peek t <> None
