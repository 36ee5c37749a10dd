(** Bounded Hoare-logic verification of S* programs (the survey's §2.2.3
    correctness story; Strum's verifier, §2.2.5).

    Weakest preconditions are computed backward through straight-line
    code, if/elif/else, cobegin (simultaneous assignment), cocycle and dur
    (sequential), with loops requiring [inv { ... }] annotations and
    [assert { ... }] acting as cut points.  Each verification condition is
    a 1-bit {!Msl_machine.Symexec} term over *machine arithmetic* —
    fixed-width wrapping bitvectors, exactly the instantiated semantics
    under which the survey modifies the INC rule for overflow — and is
    discharged by {!Msl_machine.Symexec.decide}, the translation
    validator's decision procedure, with an 18-bit budget: proved or
    refuted exhaustively up to 18 live bits; beyond that refuted by a
    sampled or corner-value counterexample, or [Unknown].

    Register variables are named as Symexec names a region's inputs
    ([r:NAME]), so a counterexample replays on the simulator.

    Unsupported constructs (flag tests, stacks, calls, run-time-indexed
    arrays) are reported in [failure], never silently skipped. *)

type report = {
  results : (string * Msl_machine.Symexec.verdict) list;
      (** per verification condition *)
  proved : int;
  unknown : int;  (** neither proved nor refuted: not a proof *)
  refuted : int;
  failure : string option;  (** unsupported-construct message, if any *)
}

val verify : Msl_machine.Desc.t -> Ast.program -> report

val ok : report -> bool
(** No failure and nothing refuted. *)

val pp_report : Format.formatter -> report -> unit
(** One line per verification condition, then the proved, unknown and
    refuted counts. *)
