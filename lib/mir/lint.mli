(** Microlint: independent static analysis of MIR and compacted microcode.

    The pipeline *trusts* its own compactor, allocator and encoder;
    nothing re-checks the emitted control words.  This module audits
    compiled programs after the fact, in the translation-validation
    spirit: every verdict is re-derived from the {!Msl_machine.Desc}
    resource model alone, never from the compactor's
    {!Msl_machine.Conflict} answers, so a bug in the scheduler cannot
    hide from the checker that shares it.

    The analyses, and what each one proves:

    - {!check_uninit}: forward may-assigned dataflow over {!Cfg}; flags
      virtual registers read on a point no execution path has assigned.
    - {!check_bindings}: register-bound programs (SIMPL, EMPL, bound
      YALLL) binding a variable to a register id the machine does not
      have.
    - {!check_races}: intra-instruction hazards re-derived from
      [Desc] resource sets — same-phase double writes, same-phase double
      flag updates, functional-unit clashes, memory-port overcommit, and
      multi-op words on vertical machines.  Two literally identical
      instances are exempt (they request the same control bits), and a
      same-phase read of a written register is deliberately *not* an
      error: transport-delay semantics make it deterministic (reads
      sample at phase start).  [pedantic] reports those as [Info].
    - {!check_encoding}: field-overflow, operand-well-formedness and
      field-clash re-checks, then an [Encode] round-trip consistency
      comparison.
    - {!check_dead}: machine-level reachability — unreachable control
      words carrying operations (empty padding words are inert and
      exempt), branch targets outside the program, falling off the end
      of the control store, control-store capacity.
    - {!check_latency}: worst-case microcycles between interrupt polls
      on any path (a poll is an [Int_pending] branch or an [Int_ack]
      op).  Paths are intraprocedural per call level: a call word's gap
      continues through the longer of the callee entry and the
      continuation, an under-approximation noted in DESIGN.md.

    What the machine checks deliberately do {e not} prove: data
    dependences between words (a dropped RAW edge reorders computation
    without creating any intra-word hazard — only the differential
    simulator oracle sees that), and termination. *)

open Msl_machine

type config = {
  latency_budget : int option;
      (** max microcycles between interrupt polls; [None] disables the
          latency analysis *)
  pedantic : bool;  (** report legal same-phase write/read sharing *)
}

(** {1 MIR-level analyses} *)

val check_uninit : Mir.program -> Diag.finding list
(** Reads of virtual registers no path has assigned.  May-assigned
    union-join keeps this free of false positives: barriers ([Special],
    [Intack]) count as assigning everything, unreachable blocks are not
    checked, and physical registers are machine state — initialized by
    the console, never flagged. *)

val check_bindings : Desc.t -> Mir.program -> Diag.finding list
(** Physical-register ids out of range for the machine ([bad-reg]).
    Nothing subtler: frontends legitimately stage constants through the
    machine's scratch registers, so scratch usage is not a violation. *)

(** {1 Machine-level analyses}

    All take the compacted program and the linker's label table (for
    word→block provenance; pass [[]] when unknown). *)

val check_races :
  ?pedantic:bool -> ?labels:(string * int) list ->
  Desc.t -> Inst.t list -> Diag.finding list

val check_encoding :
  ?labels:(string * int) list -> Desc.t -> Inst.t list -> Diag.finding list

val check_dead :
  ?labels:(string * int) list -> Desc.t -> Inst.t list -> Diag.finding list

val check_latency :
  ?labels:(string * int) list -> budget:int ->
  Desc.t -> Inst.t list -> Diag.finding list

val validate_machine :
  ?labels:(string * int) list -> Desc.t -> Inst.t list -> Diag.finding list
(** The translation-validation core: {!check_races} + {!check_encoding}
    + {!check_dead}.  Empty on every honestly compiled program. *)

(** {1 The full analyzer} *)

val run :
  ?config:config ->
  ?mir:Mir.program ->
  ?labels:(string * int) list ->
  Desc.t ->
  Inst.t list ->
  Diag.finding list
(** Every analysis that applies: the MIR checks when [mir] is given (S*
    has none), {!validate_machine}, and the latency check when the
    config carries a budget.  Findings are sorted by location. *)
