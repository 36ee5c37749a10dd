(** Monotonic time, via [clock_gettime(CLOCK_MONOTONIC)].

    Use this — never [Unix.gettimeofday] — for deadlines, backoff,
    latency/queue-wait measurement and trace timestamps: wall time
    steps (NTP, manual clock changes) would make a deadline fire
    spuriously or never, and a trace's spans run backwards. *)

val now_ns : unit -> int64
(** Nanoseconds from an arbitrary fixed origin.  Strictly ordered with
    respect to other [now_ns] calls in the same process; meaningless
    across processes or reboots. *)

val now_s : unit -> float
(** Same instant as {!now_ns}, in seconds. *)

val elapsed_s : float -> float
(** [elapsed_s t] is the seconds elapsed since [t] (a prior {!now_s}). *)
