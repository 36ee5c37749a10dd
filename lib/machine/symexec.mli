(** Symbolic bitvector evaluation of microinstruction words.

    The engine under the translation validator ({!Msl_mir.Tv}): hash-consed
    terms mirroring the {!Msl_bitvec.Bitvec} formulas the simulator
    evaluates, normalizing smart constructors, the {!Phase} model
    instantiated over terms as the symbolic word executor, and a layered
    decision procedure (term identity, then exhaustive concrete evaluation
    over the live input bits under a budget, then seeded and corner-value
    stores that can refute but never prove) — the one decision procedure
    of both the translation validator and the S* verifier
    ({!Msl_sstar.Verify}). *)

open Msl_bitvec

type node =
  | Var of string
  | Const of Bitvec.t
  | Add of t * t
  | Sub of t * t
  | And of t * t
  | Or of t * t
  | Xor of t * t
  | Mul of t * t
  | Not of t
  | Slice of t * int * int
  | Concat of t * t
  | Zext of t
  | Mux of t * t * t
  | Alu of Rtl.abinop * t * t
      (** residual shifter family only; carry-in is irrelevant to these *)
  | Alu_flag of Rtl.flag * Rtl.abinop * t * t * t
      (** C/V of add/adc/sub/mul and the shifted-out bit of shl/shr; the
          last operand is the carry-in term (const false except adc) *)
  | Mem_init
  | Mem_var of string
  | Mem_store of t * t * t
  | Mem_sel of t * t

and t = private { id : int; width : int; node : node; has_mem : bool }
(** Hash-consed within one {!ctx}: equal [id] implies semantic equality. *)

type ctx
(** A hash-consing arena.  Create one per validation; contexts are not
    thread-safe and terms from different contexts must not be mixed. *)

val create_ctx : unit -> ctx

(** {1 Term builders (normalizing)} *)

val var : ctx -> string -> int -> t
val const : ctx -> Bitvec.t -> t
val const_int : ctx -> width:int -> int -> t
val true_ : ctx -> t
val add : ctx -> t -> t -> t
val sub : ctx -> t -> t -> t
val mul : ctx -> t -> t -> t
val logand : ctx -> t -> t -> t
val logor : ctx -> t -> t -> t
val logxor : ctx -> t -> t -> t
val lognot : ctx -> t -> t
val mux : ctx -> t -> t -> t -> t
(** [mux c a b]: [a] where [c] is nonzero, else [b]. *)

val slice : ctx -> t -> hi:int -> lo:int -> t
val zext : ctx -> int -> t -> t
(** Resize: zero-extends when growing, slices when shrinking. *)

val alu_flag : ctx -> Rtl.flag -> Rtl.abinop -> t -> t -> carry:t -> t
(** One condition flag of the ALU operation [op a b], as a 1-bit term
    mirroring {!Rtl.eval_abinop}; [carry] is the carry-in, read only by
    adc.  Z and C of a subtraction are equality and unsigned less-than. *)

(** {1 Concrete evaluation} *)

type env = { e_var : string -> Bitvec.t; e_mem : int -> int64 }
(** A concrete valuation of the symbolic inputs: [e_var] maps variable
    names to values (resized to the variable's width), [e_mem] gives the
    initial memory word at an address. *)

val eval : env -> t -> Bitvec.t
(** Evaluate a scalar term.  @raise Invalid_argument on a memory term. *)

(** {1 Decision layer} *)

type assignment = (string * Bitvec.t) list

type verdict = Proved | Refuted of assignment | Unknown

val decide : ?budget_bits:int -> (t * t) list -> verdict
(** Decide whether every pair is semantically equal — the one decision
    procedure behind both {!Msl_mir.Tv} and the S* verifier.  Identical
    terms are equal by construction.  If no term mentions memory and the
    live input bits fit in [budget_bits] (default 16), exhaustive
    enumeration yields a sound [Proved] or [Refuted].  Otherwise 64 seeded
    stores are tried (sample 0 is the all-zeros store with zero memory, so
    most counterexamples replay on a freshly reset simulator), then up to
    4096 combinations of each variable's corner values (0, 1, 2, all-ones,
    all-ones minus one, the sign bit).  A mismatch is a sound [Refuted]
    with the concrete assignment; agreement on every store is only
    [Unknown]. *)

(** {1 Symbolic stores and the word executor} *)

type store = {
  st_regs : t array;
  st_flags : t array;  (** C V Z N U *)
  mutable st_mem : t;
  mutable st_acks : int;  (** [Int_ack] commits observed *)
}

val reg_var_name : string -> string
(** ["r:" ^ name] — the input-variable naming scheme, shared with
    counterexample replay. *)

val flag_var_name : Rtl.flag -> string
(** ["f:C"], ["f:V"], ... *)

val flag_of_index : int -> Rtl.flag

val init_store : ?prefix:string -> ctx -> Desc.t -> store
(** A store of fresh inputs.  With a [prefix] the memory is a fresh
    [Mem_var] (a havocked store); without, it is [Mem_init]. *)

val copy_store : store -> store

val cond_term : ctx -> store -> Desc.cond -> t option
(** A sequencer condition as a 1-bit term over the store, mirroring
    [Sim.eval_cond] — the guard a superoptimizer rewrite is proved under.
    [None] when the condition is not a pure function of the store
    ([C_int_pending] reads the interrupt line). *)

val havoc : prefix:string -> ctx -> Desc.t -> store -> unit
(** Replace every component with fresh [prefix]ed inputs — the effect of a
    microsubroutine call, unmodeled but identical on both sides. *)

val exec_word : ctx -> Desc.t -> store -> Inst.op list -> unit
(** Execute one microinstruction's operations phase by phase under the
    {!Phase} model — the same code {!Sim.step} runs, over terms.
    @raise Msl_util.Diag.Error as [Sim] would (a write to an immediate
    operand, an unknown register id). *)

val store_pairs : store -> store -> (t * t) list
(** The equality goals comparing two stores: registers, flags, memory. *)

(** {1 Printing} *)

val pp_assignment : Format.formatter -> assignment -> unit
