(** A small mutex/condition-protected bounded FIFO queue between
    domains or threads (the daemon's per-client response queues).

    The producer pushes items and then {!close}s the queue; consumers
    {!pop} until they receive [None].  All operations are linearisable;
    [pop] blocks while the queue is empty and open.

    The bound gives pushback-style negotiated flow: {!push} blocks on
    an internal [nonfull] condition while the queue holds [capacity]
    items, waking when a consumer pops or the queue is closed.  The
    queue never holds more than [capacity] items at once, so a flooding
    producer is throttled to the consumers' pace rather than growing
    the heap. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] (>= 1) bounds the queue; pushes beyond the bound block
    until space frees up.  @raise Invalid_argument if [capacity < 1]. *)

val push : 'a t -> 'a -> bool
(** [true] if the job was enqueued, [false] if the queue was (or
    became) closed — the job is dropped, so a producer racing {!close}
    observes a rejected push instead of an exception that would kill
    its domain.  Blocks while the queue is at capacity; {!close} wakes
    every blocked pusher, which then returns [false]. *)

val close : 'a t -> unit
(** Idempotent.  Wakes every blocked consumer and blocked pusher. *)

val pop : 'a t -> 'a option
(** Next job in FIFO order, blocking while the queue is empty but open;
    [None] once the queue is closed and drained.  Signals one blocked
    pusher that space is available. *)

val length : 'a t -> int
(** Jobs currently enqueued (racy by nature; for stats only). *)
