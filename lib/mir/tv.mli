(** Translation validation: prove compacted microcode equivalent to the
    sequential schedule it was compacted from.

    Each MIR block's emitted word list is symbolically executed
    ({!Msl_machine.Symexec}) alongside its reference — the selected
    microoperations one per word, then the uncompacted sequencing tail —
    from a common store of fresh inputs, and the stores are compared at
    every control exit.  Honest compiles prove by pointer equality of the
    hash-consed terms; rewrites that changed term shape go through the
    layered decision procedure ({!Msl_machine.Symexec.decide}), which
    proves, refutes with a concrete counterexample store, or gives up
    within budget.  Only a proof validates: [Unknown] fails every gate. *)

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

type verdict =
  | Validated  (** proved equal on every exit *)
  | Refuted of Symexec.assignment option
      (** provably different; [None] means a structural mismatch (exit
          kinds, word counts, ack counts) with no store to blame *)
  | Unknown  (** decision budget exhausted: not a proof *)

type result = {
  v_total : int;
  v_validated : int;
  v_dynamic : int;
      (** always 0: only a proof counts as validated.  The benchmark
          harness ([perfbench/layers.ml]) still reads this field, so it
          stays until that harness is rebuilt on library spans (the
          ROADMAP's library-spans item). *)
  v_refuted : int;
  v_unknown : int;
  v_findings : Diag.finding list;
      (** one [tv-refuted] error or [tv-unknown] warning per bad block;
          a refutation's message carries its counterexample store *)
}

val validate_artifacts : Desc.t -> artifact list -> result

val validate_words :
  Desc.t ->
  reference:(Inst.op list * Select.lnext) list ->
  candidate:(Inst.op list * Select.lnext) list ->
  verdict
(** The core comparison, on explicit word lists. *)

val validate_rewrite :
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
    [Unknown].  Only [Validated] is a proof, and the superoptimizer
    accepts nothing less. *)

val validate_program :
  ?labels:(string * int) list ->
  Desc.t ->
  reference:Inst.t list ->
  candidate:Inst.t list ->
  result
(** Region-by-region comparison of two {e linked} programs of equal
    length (e.g. a program against a mutated copy): regions are the runs
    between control-flow leaders over both programs, each validated from
    its own fresh store.  [labels] adds block provenance to findings. *)

val pp_summary : Format.formatter -> result -> unit
