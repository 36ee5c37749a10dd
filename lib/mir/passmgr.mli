(** The pass manager: the middle-end as a list of named transforms.

    Each pass is a self-describing [Mir.program -> Mir.program] with an
    enable predicate evaluated against the program as it stands when the
    pass is reached.  The runner times every executed pass and feeds an
    observation hook after each one, which is what `mslc --time-passes`
    and `--dump-after` print. *)

type pass = {
  p_name : string;
  p_descr : string;
  p_enabled : Mir.program -> bool;
  p_transform : Mir.program -> Mir.program;
}

val make :
  ?enabled:(Mir.program -> bool) ->
  descr:string ->
  string ->
  (Mir.program -> Mir.program) ->
  pass

type timing = { t_pass : string; t_ms : float }

val run :
  ?observe:(string -> Mir.program -> unit) ->
  pass list ->
  Mir.program ->
  Mir.program * timing list
(** Run the enabled passes in order.  [observe name p'] is called after
    each executed pass with the program it produced; the returned
    timings cover executed passes only, in execution order. *)

val pp_timings : Format.formatter -> timing list -> unit
