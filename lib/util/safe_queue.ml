(* Mutex/condition-protected bounded FIFO queue (OCaml 5 domains and
   threads).  The bound implements pushback-style negotiated flow:
   [push] blocks on [nonfull] while the queue is at capacity, so a fast
   producer is slowed to the consumers' pace instead of growing the
   queue without bound. *)

type 'a t = {
  q : 'a Queue.t;
  capacity : int;
  mutex : Mutex.t;
  nonempty : Condition.t;
  nonfull : Condition.t;
  mutable closed : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Safe_queue.create: capacity < 1";
  { q = Queue.create (); capacity; mutex = Mutex.create ();
    nonempty = Condition.create (); nonfull = Condition.create ();
    closed = false }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let push t x =
  with_lock t (fun () ->
      let rec wait () =
        if t.closed then false
        else if Queue.length t.q >= t.capacity then begin
          Condition.wait t.nonfull t.mutex;
          wait ()
        end
        else begin
          Queue.push x t.q;
          Condition.signal t.nonempty;
          true
        end
      in
      wait ())

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty;
      Condition.broadcast t.nonfull)

let pop t =
  with_lock t (fun () ->
      let rec wait () =
        match Queue.take_opt t.q with
        | Some x ->
            Condition.signal t.nonfull;
            Some x
        | None ->
            if t.closed then None
            else begin
              Condition.wait t.nonempty t.mutex;
              wait ()
            end
      in
      wait ())

let length t = with_lock t (fun () -> Queue.length t.q)
