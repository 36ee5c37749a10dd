(** Translation validation: prove compacted microcode equivalent to the
    sequential schedule it was compacted from.

    Each MIR block's emitted word list is symbolically executed
    ({!Msl_machine.Symexec}) alongside its reference — the selected
    microoperations one per word, then the uncompacted sequencing tail —
    from a common store of fresh inputs, and the stores are compared at
    every control exit.  Honest compiles prove by pointer equality of the
    hash-consed terms; rewrites that changed term shape go through the
    layered decision procedure, which refutes with a concrete
    counterexample store or gives up within budget (and can then fall
    back to the differential oracle for just that block). *)

open Msl_machine

(** Captured by {!Pipeline.lower_block} (via its [capture] hook) for each
    block: selected ops before compaction, the sequencing tail, and the
    emitted word list. *)
type artifact = {
  a_label : string;
  a_body : Inst.op list;
  a_tail : Select.tail_inst list;
  a_mis : (Inst.op list * Select.lnext) list;
}

type config = {
  tv_budget_bits : int;
      (** exhaustive-enumeration budget, in live input bits (default 16) *)
  tv_samples : int;  (** sampled stores before giving up (default 64) *)
  tv_seed : int;
  tv_dynamic : bool;
      (** fall back to seeded concrete runs through {!Sim} on UNKNOWN *)
}

val default_config : config

type verdict =
  | Validated  (** proved equal on every exit *)
  | Validated_dynamic
      (** only the dynamic fallback agreed — evidence, not a proof *)
  | Refuted of Symexec.assignment option
      (** provably different; [None] means a structural mismatch (exit
          kinds, word counts, ack counts) with no store to blame *)
  | Unknown  (** decision budget exhausted *)

type result = {
  v_total : int;
  v_validated : int;  (** includes dynamic *)
  v_dynamic : int;
  v_refuted : int;
  v_unknown : int;
  v_findings : Diag.finding list;
      (** one [tv-refuted] error or [tv-unknown] warning per bad block *)
  v_counterexample : (Symexec.assignment * Diag.location) option;
      (** the first concrete counterexample, for replay *)
}

val validate_artifacts : ?config:config -> Desc.t -> artifact list -> result

val validate_words :
  ?config:config ->
  Desc.t ->
  reference:(Inst.op list * Select.lnext) list ->
  candidate:(Inst.op list * Select.lnext) list ->
  verdict
(** The core comparison, on explicit word lists. *)

val validate_rewrite :
  ?config:config ->
  Desc.t ->
  fall_ref:string option ->
  fall_cand:string option ->
  reference:(Inst.op list * Select.lnext) list ->
  candidate:(Inst.op list * Select.lnext) list ->
  verdict
(** The superoptimizer's proof gate: compare two windows by {e guarded
    outcome} — every way control leaves the window (taken branch, goto,
    halt/return, or falling past the end into the [fall_ref]/[fall_cand]
    layout successor) paired by destination, with the path-guard terms
    and the departure stores proved equal.  This admits control rewrites
    [validate_words] rejects structurally: goto-fold into a predecessor
    word, branch inversion that swaps the taken and fall-through paths.
    Windows containing calls, dispatches or interrupt-pending tests are
    [Unknown].  There is no dynamic fallback — only [Validated] is a
    proof, and the superoptimizer accepts nothing less. *)

val validate_program :
  ?config:config ->
  ?labels:(string * int) list ->
  Desc.t ->
  reference:Inst.t list ->
  candidate:Inst.t list ->
  result
(** Region-by-region comparison of two {e linked} programs of equal
    length (e.g. a program against a mutated copy): regions are the runs
    between control-flow leaders over both programs, each validated from
    its own fresh store.  [labels] adds block provenance to findings. *)

val apply_assignment : Desc.t -> Sim.t -> Symexec.assignment -> unit
(** Replay helper: write a counterexample store into a simulator
    ([r:NAME] registers, [f:X] flags; unknown names are skipped). *)

val arch_digest : Desc.t -> Sim.t -> string
(** The architectural state only — registers, flags, nonzero memory —
    excluding the pc/cycle/traffic counters of {!Sim.state_digest}, which
    legitimately differ between a compacted program and its reference. *)

val seeded_assignments : Desc.t -> seed:int -> n:int -> Symexec.assignment list
(** [n] deterministic input stores over the symbolic variable names
    (store 0 all-zeros, store 1 all-ones, the rest seeded random). *)

val pp_summary : Format.formatter -> result -> unit
