(* One mailbox per worker, mutex + condvar. Only the coordinator posts,
   and only worker [i] takes from mailbox [i]; the mutex handoff gives
   the happens-before edges the OCaml memory model needs for the
   buffers a job reads and writes. *)

type slot = {
  mu : Mutex.t;
  cv : Condition.t;
  mutable job : (unit -> unit) option;
  mutable outcome : exn option option;  (** [Some None] = done, [Some (Some e)] = raised. *)
  mutable stop : bool;
  mutable dom : unit Domain.t option;
}

type t = { slots : slot array; mutable closed : bool }

let create n =
  if n < 0 then invalid_arg "Workers.create: negative size";
  {
    slots =
      Array.init n (fun _ ->
          {
            mu = Mutex.create ();
            cv = Condition.create ();
            job = None;
            outcome = None;
            stop = false;
            dom = None;
          });
    closed = false;
  }

let size t = Array.length t.slots

let attempt f = match f () with () -> None | exception e -> Some e

let rec loop s =
  Mutex.lock s.mu;
  while s.job = None && not s.stop do
    Condition.wait s.cv s.mu
  done;
  if s.stop then Mutex.unlock s.mu
  else begin
    let f = Option.get s.job in
    Mutex.unlock s.mu;
    let r = attempt f in
    Mutex.lock s.mu;
    s.job <- None;
    s.outcome <- Some r;
    Condition.signal s.cv;
    Mutex.unlock s.mu;
    loop s
  end

let post s f =
  Mutex.lock s.mu;
  s.job <- Some f;
  s.outcome <- None;
  Condition.signal s.cv;
  Mutex.unlock s.mu

let await s =
  Mutex.lock s.mu;
  while s.outcome = None do
    Condition.wait s.cv s.mu
  done;
  let r = Option.get s.outcome in
  s.outcome <- None;
  Mutex.unlock s.mu;
  r

let run t jobs =
  let n = Array.length jobs in
  if n > size t + 1 then
    invalid_arg (Printf.sprintf "Workers.run: %d jobs for %d workers" n (size t));
  if n > 1 && t.closed then invalid_arg "Workers.run: pool is closed";
  (* Spawn every needed domain before posting anything: a failed spawn
     then leaves no job in flight. *)
  for i = 0 to n - 2 do
    let s = t.slots.(i) in
    if s.dom = None then s.dom <- Some (Domain.spawn (fun () -> loop s))
  done;
  for i = 1 to n - 1 do
    post t.slots.(i - 1) jobs.(i)
  done;
  let first = if n = 0 then None else attempt jobs.(0) in
  Array.init n (fun i -> if i = 0 then first else await t.slots.(i - 1))

let close t =
  if not t.closed then begin
    t.closed <- true;
    Array.iter
      (fun s ->
        match s.dom with
        | None -> ()
        | Some d ->
            Mutex.lock s.mu;
            s.stop <- true;
            Condition.signal s.cv;
            Mutex.unlock s.mu;
            Domain.join d;
            s.dom <- None)
      t.slots
  end
