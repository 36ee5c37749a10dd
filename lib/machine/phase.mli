(** The phase model: what executing one microinstruction means.

    A microinstruction runs in one base cycle, and the cycle is divided
    into the machine's phases ([Desc.d_phases]).  Each op of the word
    belongs to exactly one phase (its template's [t_phase]); the phases
    run in order.  Within a phase:

    - every action of every op is evaluated against the state as it
      stood when the phase began — registers, flags and memory alike;
    - the writes are buffered while the actions are evaluated, so no
      action observes another's write within the phase;
    - then the buffer commits: memory first (a write can still fault,
      leaving the earlier memory writes committed and nothing else),
      then registers, then flags, each class in action order, so a
      later action's write to the same location wins.

    Because writes wait in the buffer until every action has been
    evaluated, reading the live state {e is} reading the phase-start
    state: no engine copies its registers.  This transport-delay model
    is what lets a single horizontal word swap two registers and what
    gives S*'s [cocycle] its phase-by-phase meaning; compaction's
    legality argument rests on it.

    The model is written once, here, over an abstract value domain.
    {!Sim} instantiates it with concrete {!Msl_bitvec.Bitvec} values and
    {!Symexec} with hash-consed terms.  {!Simc} keeps no copy of it: it
    compiles only the phases {!direct} accepts, where running the
    actions in order against the live state is the model, and hands
    every word with any other phase to {!Sim}. *)

val split : Desc.t -> Inst.op list -> Inst.op list array
(** A word's ops grouped by phase: one entry per nonempty phase, in
    phase order, ops in word order within it.  Ops naming a phase the
    machine does not have never execute and are dropped.  Engines split
    each word once, not on every step. *)

val direct : Desc.t -> Inst.op list -> bool
(** [direct d ops] holds when running one phase's actions (one entry of
    {!split}) in order, each writing the state as it goes, cannot be
    told apart from the model: no action reads a register or flag that
    an earlier action of the phase writes, and nothing can raise after
    the first write.  The latter means that only the first action may
    access memory (a fault there raises before anything is written, so
    the model's discard still holds), and that no action of a
    multi-action phase writes an immediate operand or names a register
    id the machine does not have.  A phase of at most one action is
    always direct.  An engine that runs a phase direct must still reject
    RTL the model would reject while evaluating it (mismatched widths,
    out-of-range slices) before it runs. *)

val reg : 'a array -> int -> 'a
(** [reg file id] is register [id] of a register file.
    @raise Msl_util.Diag.Error ([Execution], "microop references unknown
    register id N") when the machine has no such register — a mutated
    or corrupted word, reported the same way by every engine. *)

(** A value domain the phase model can execute over. *)
module type VALUE = sig
  type ctx
  (** Per-execution context: [unit] for concrete values, the
      hash-consing arena for terms. *)

  type word  (** a register, operand or expression value *)

  type bit  (** one condition flag *)

  type flags  (** the five condition codes an ALU operation produces *)

  type mem  (** the memory actions read and write *)

  val const : ctx -> Msl_bitvec.Bitvec.t -> word
  val of_bit : ctx -> bit -> word
  val lsb : ctx -> word -> bit
  val width : word -> int
  val add : ctx -> word -> word -> word
  val sub : ctx -> word -> word -> word
  val logand : ctx -> word -> word -> word
  val logor : ctx -> word -> word -> word
  val logxor : ctx -> word -> word -> word
  val lognot : ctx -> word -> word
  val slice : ctx -> word -> hi:int -> lo:int -> word
  val concat : ctx -> word -> word -> word

  val resize : ctx -> int -> word -> word
  (** Zero-extend or truncate to a width. *)

  val mux : ctx -> word -> word -> word -> word
  (** [mux c a b] is [a] when [c] is nonzero, else [b]. *)

  val alu : ctx -> Rtl.abinop -> word -> word -> carry:bit -> word * flags
  (** {!Rtl.eval_abinop}: the result and the flags of an ALU operation
      on two operands of equal width. *)

  val flag : ctx -> flags -> Rtl.flag -> bit

  val load : ctx -> mem -> word -> word
  (** The memory word at an address (the address value resized to 62
      bits). *)

  val store : ctx -> mem -> word -> word -> unit
  (** [store ctx m addr v] writes [v] at [addr]. *)
end

module Make (V : VALUE) : sig
  val exec_phase :
    V.ctx -> Desc.t -> V.word array -> V.bit array -> V.mem -> Inst.op list ->
    bool
  (** [exec_phase ctx d regs flags mem ops] runs one phase's ops (one
      entry of {!split}) over the register file [regs] (by register id,
      each of its declared width), the flag file [flags] (by
      {!Rtl.flag_index}) and [mem], as described above.  Returns whether
      an [Int_ack] action ran; acknowledging the interrupt is the
      caller's business.  Raises before committing anything on a read
      that faults, a write to an immediate operand or an unknown
      register id. *)
end
