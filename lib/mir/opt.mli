(** Machine-independent MIR optimization passes.

    The survey's compilers perform no classical optimization — §2.1.4
    leaves everything to compaction.  These passes add that missing
    layer above the machine-dependent line; each is an isolated,
    semantics-preserving [Mir.program -> Mir.program] rewrite suitable
    for registration with {!Passmgr}.  Observability contract: physical
    registers and memory at program exit are preserved exactly; virtual
    registers and scratch state are not observable ({!Cfg.liveness}). *)

val constant_fold : Mir.program -> Mir.program
(** Per-block constant folding and constant propagation.  Flag-setting
    operations keep their opcode (the flags are the point) but their
    results still propagate.  [A_adc] and division by a zero constant
    are never folded. *)

val copy_prop : Mir.program -> Mir.program
(** Per-block copy propagation; rewrites reads of a copied register to
    its source and drops the self-copies this exposes.  [Special]
    operands are never substituted (their operand roles are unknown). *)

val branch_simplify : Mir.program -> Mir.program
(** Decide [If]/[Switch] terminators on block-local constants and
    collapse branches whose arms coincide.  [Int_pending] tests are
    never removed. *)

val jump_thread : Mir.program -> Mir.program
(** Retarget jumps through empty forwarding blocks and drop unreachable
    blocks and procedures.  Entry blocks are preserved. *)

val dce : Mir.program -> Mir.program
(** Dead-assignment elimination against whole-program block-level
    liveness.  Deletes only statements {!Cfg.stmt_effects} marks
    removable — never stores, loads, flag writers or barriers. *)
