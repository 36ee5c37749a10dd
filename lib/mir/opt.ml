(* Machine-independent MIR optimization passes.

   The survey's compilers leave everything to microinstruction
   compaction: "none of the systems described performs any of the
   classical machine-independent optimizations" (§2.1.4).  This module
   supplies exactly that missing layer, *above* the machine-dependent
   line: every pass here rewrites MIR into smaller MIR without knowing
   the target word format, so lowering, selection and compaction see
   less work.  Running before Lower matters — folding a constant
   multiply deletes the whole shift-and-add expansion it would have
   become on machines without a native multiplier.

   Each pass is an isolated [Mir.program -> Mir.program] function so the
   pass manager can name, time and dump it independently.  All passes
   are semantics-preserving under the observability contract of
   Cfg.liveness: physical registers and memory are the program's
   observable result, virtual registers are not. *)

open Msl_bitvec
module Rtl = Msl_machine.Rtl

let map_blocks f (p : Mir.program) =
  {
    p with
    Mir.main = List.map f p.Mir.main;
    procs =
      List.map
        (fun pr -> { pr with Mir.p_blocks = List.map f pr.Mir.p_blocks })
        p.Mir.procs;
  }

(* -- constant folding and propagation ----------------------------------------- *)

(* Per-block map from register to known constant value.  Intentionally
   not a cross-block analysis: blocks are short (the frontends cut them
   at every label) and the per-block version cannot be wrong about
   values merging at a join. *)

let fold_rv env (rv : Mir.rvalue) : Bitvec.t option =
  let c r = Hashtbl.find_opt env r in
  match rv with
  | Mir.R_const v -> Some v
  | Mir.R_copy r -> c r
  | Mir.R_not r -> Option.map Bitvec.lognot (c r)
  | Mir.R_neg r -> Option.map Bitvec.neg (c r)
  | Mir.R_inc r -> Option.map Bitvec.succ (c r)
  | Mir.R_dec r -> Option.map Bitvec.pred (c r)
  | Mir.R_binop (Rtl.A_adc, _, _) -> None (* carry-in unknown statically *)
  | Mir.R_binop (op, a, b) -> (
      match (c a, c b) with
      | Some va, Some vb when Bitvec.width va = Bitvec.width vb ->
          Some (fst (Rtl.eval_abinop op va vb ~carry_in:false))
      | _ -> None)
  | Mir.R_div (a, b) -> (
      match (c a, c b) with
      | Some va, Some vb
        when Bitvec.width va = Bitvec.width vb && not (Bitvec.is_zero vb) ->
          Some (Bitvec.udiv va vb)
      | _ -> None)
  | Mir.R_rem (a, b) -> (
      match (c a, c b) with
      | Some va, Some vb
        when Bitvec.width va = Bitvec.width vb && not (Bitvec.is_zero vb) ->
          Some (Bitvec.urem va vb)
      | _ -> None)
  | Mir.R_shift_imm (op, r, n) -> (
      match c r with
      | Some v ->
          let amt = Bitvec.of_int ~width:(Bitvec.width v) (n land 0x3F) in
          Some (fst (Rtl.eval_abinop op v amt ~carry_in:false))
      | None -> None)
  | Mir.R_mem _ | Mir.R_mem_abs _ -> None

(* Rewrite one statement under [env] and advance [env] past it.  Used by
   both constant_fold (keeps the rewrite) and branch_simplify (keeps
   only the env). *)
let fold_stmt env (s : Mir.stmt) : Mir.stmt =
  match s with
  | Mir.Assign { dst; rv; set_flags } ->
      let folded = fold_rv env rv in
      let rv' =
        (* a flag-setting op must stay an op — the flags it produces are
           the point — but its result value is still worth tracking *)
        match folded with
        | Some v when not set_flags -> Mir.R_const v
        | _ -> rv
      in
      (match folded with
      | Some v -> Hashtbl.replace env dst v
      | None -> Hashtbl.remove env dst);
      Mir.Assign { dst; rv = rv'; set_flags }
  | Mir.Special _ ->
      (* may write any register *)
      Hashtbl.reset env;
      s
  | Mir.Store _ | Mir.Store_abs _ | Mir.Test _ | Mir.Intack -> s

let constant_fold p =
  map_blocks
    (fun b ->
      let env = Hashtbl.create 16 in
      { b with Mir.b_stmts = List.map (fold_stmt env) b.Mir.b_stmts })
    p

(* -- copy propagation --------------------------------------------------------- *)

let map_rv_regs f (rv : Mir.rvalue) : Mir.rvalue =
  match rv with
  | Mir.R_const _ | Mir.R_mem_abs _ -> rv
  | Mir.R_copy r -> Mir.R_copy (f r)
  | Mir.R_not r -> Mir.R_not (f r)
  | Mir.R_neg r -> Mir.R_neg (f r)
  | Mir.R_inc r -> Mir.R_inc (f r)
  | Mir.R_dec r -> Mir.R_dec (f r)
  | Mir.R_binop (op, a, b) -> Mir.R_binop (op, f a, f b)
  | Mir.R_div (a, b) -> Mir.R_div (f a, f b)
  | Mir.R_rem (a, b) -> Mir.R_rem (f a, f b)
  | Mir.R_shift_imm (op, r, n) -> Mir.R_shift_imm (op, f r, n)
  | Mir.R_mem r -> Mir.R_mem (f r)

let map_cond_regs f (c : Mir.cond) : Mir.cond =
  match c with
  | Mir.Zero r -> Mir.Zero (f r)
  | Mir.Nonzero r -> Mir.Nonzero (f r)
  | Mir.Mask_match (r, m) -> Mir.Mask_match (f r, m)
  | Mir.Flag_set _ | Mir.Flag_clear _ | Mir.Int_pending -> c

(* Per-block: after [dst := copy src], reads of [dst] can use [src]
   until either is rewritten.  Rewriting reads this way makes the copy
   itself dead, which DCE then collects — together they delete the
   move-then-overwrite chatter the frontends emit for expressions like
   [t := a; t := t - b]. *)
let copy_prop p =
  map_blocks
    (fun b ->
      let env = Hashtbl.create 16 in
      let subst r =
        match Hashtbl.find_opt env r with Some s -> s | None -> r
      in
      let kill w =
        let stale =
          Hashtbl.fold
            (fun k v acc -> if k = w || v = w then k :: acc else acc)
            env []
        in
        List.iter (Hashtbl.remove env) stale
      in
      let prop_stmt (s : Mir.stmt) : Mir.stmt option =
        match s with
        | Mir.Assign { dst; rv; set_flags } -> (
            let rv' = map_rv_regs subst rv in
            kill dst;
            match rv' with
            | Mir.R_copy src when src = dst && not set_flags ->
                None (* now a self-copy: drop it *)
            | Mir.R_copy src ->
                Hashtbl.replace env dst src;
                Some (Mir.Assign { dst; rv = rv'; set_flags })
            | _ -> Some (Mir.Assign { dst; rv = rv'; set_flags }))
        | Mir.Store { addr; src } ->
            Some (Mir.Store { addr = subst addr; src = subst src })
        | Mir.Store_abs { addr; src } ->
            Some (Mir.Store_abs { addr; src = subst src })
        | Mir.Test r -> Some (Mir.Test (subst r))
        | Mir.Intack -> Some s
        | Mir.Special _ ->
            (* unknown operand roles: substituting could redirect a write *)
            Hashtbl.reset env;
            Some s
      in
      let stmts = List.filter_map prop_stmt b.Mir.b_stmts in
      let term =
        match b.Mir.b_term with
        | Mir.If (c, a, e) -> Mir.If (map_cond_regs subst c, a, e)
        | Mir.Switch { sel; hi; lo; targets } ->
            Mir.Switch { sel = subst sel; hi; lo; targets }
        | t -> t
      in
      { b with Mir.b_stmts = stmts; b_term = term })
    p

(* -- branch simplification ---------------------------------------------------- *)

(* Decide conditional terminators whose operands are block-local
   constants, and collapse branches whose arms agree.  Reading a
   register or the flags has no side effect, so dropping the test is
   invisible; [Int_pending] is left alone out of respect for interrupt
   latency (a poll point must keep polling). *)
let branch_simplify p =
  map_blocks
    (fun b ->
      let env = Hashtbl.create 16 in
      List.iter (fun s -> ignore (fold_stmt env s)) b.Mir.b_stmts;
      let c r = Hashtbl.find_opt env r in
      let term =
        match b.Mir.b_term with
        | Mir.If (Mir.Int_pending, _, _) -> b.Mir.b_term
        | Mir.If (_, a, e) when a = e -> Mir.Goto a
        | Mir.If (Mir.Zero r, a, e) -> (
            match c r with
            | Some v -> Mir.Goto (if Bitvec.is_zero v then a else e)
            | None -> b.Mir.b_term)
        | Mir.If (Mir.Nonzero r, a, e) -> (
            match c r with
            | Some v -> Mir.Goto (if Bitvec.is_zero v then e else a)
            | None -> b.Mir.b_term)
        | Mir.Switch { sel; hi; lo; targets } -> (
            match c sel with
            | Some v ->
                let i = Bitvec.to_int (Bitvec.extract ~hi ~lo v) in
                (match List.nth_opt targets i with
                | Some l -> Mir.Goto l
                | None -> b.Mir.b_term)
            | None -> b.Mir.b_term)
        | t -> t
      in
      { b with Mir.b_term = term })
    p

(* -- jump threading and unreachable-block removal ----------------------------- *)

(* Retarget every reference to an empty forwarding block ([l: goto m])
   straight to its destination, then drop whatever became unreachable.
   This is the MIR-level generalization of the link-time [thread_jumps]
   peephole: doing it before lowering means the forwarding blocks never
   cost selection or compaction work, and blocks orphaned by
   branch_simplify disappear with them.  Entry blocks (of [main] and of
   every procedure) keep their identity: execution and [Call]s start
   there. *)
let jump_thread p =
  let entry_labels =
    (match p.Mir.main with b :: _ -> [ b.Mir.b_label ] | [] -> [])
    @ List.filter_map
        (fun pr ->
          match pr.Mir.p_blocks with
          | b :: _ -> Some b.Mir.b_label
          | [] -> None)
        p.Mir.procs
  in
  let forward = Hashtbl.create 16 in
  List.iter
    (fun (b : Mir.block) ->
      match b with
      | { Mir.b_stmts = []; b_term = Mir.Goto l; b_label }
        when l <> b_label && not (List.mem b_label entry_labels) ->
          Hashtbl.replace forward b_label l
      | _ -> ())
    (Mir.all_blocks p);
  let rec chase seen l =
    if List.mem l seen then l (* forwarding cycle: an intentional loop *)
    else
      match Hashtbl.find_opt forward l with
      | Some l' -> chase (l :: seen) l'
      | None -> l
  in
  let resolve l = chase [] l in
  let retarget (t : Mir.term) : Mir.term =
    match t with
    | Mir.Goto l -> Mir.Goto (resolve l)
    | Mir.If (c, a, e) -> Mir.If (c, resolve a, resolve e)
    | Mir.Switch { sel; hi; lo; targets } ->
        Mir.Switch { sel; hi; lo; targets = List.map resolve targets }
    | Mir.Call { proc; cont } -> Mir.Call { proc; cont = resolve cont }
    | Mir.Ret | Mir.Halt -> t
  in
  let p =
    map_blocks (fun b -> { b with Mir.b_term = retarget b.Mir.b_term }) p
  in
  let cfg = Cfg.build p in
  let reach = Cfg.reachable cfg in
  let keep l =
    match Cfg.block_index cfg l with Some i -> reach.(i) | None -> true
  in
  let prune blocks =
    List.filteri (fun i b -> i = 0 || keep b.Mir.b_label) blocks
  in
  {
    p with
    Mir.main = prune p.Mir.main;
    procs =
      List.filter_map
        (fun pr ->
          if List.exists (fun b -> keep b.Mir.b_label) pr.Mir.p_blocks then
            Some { pr with Mir.p_blocks = prune pr.Mir.p_blocks }
          else None)
        p.Mir.procs;
  }

(* -- dead-assignment elimination ---------------------------------------------- *)

(* Delete assignments whose destination is dead, judged against the
   whole-program liveness of Cfg — so a value kept alive only by a loop
   back edge or by a [Store] in a later block survives.  Only
   [e_removable] statements are candidates: stores, flag writers, loads
   and barriers are kept no matter how dead their registers look
   (Cfg.stmt_effects is the single source of truth for that). *)
let dce p =
  let cfg = Cfg.build p in
  let lv = Cfg.liveness cfg in
  let univ = Cfg.universe p in
  let rewrite (b : Mir.block) =
    match Cfg.block_index cfg b.Mir.b_label with
    | None -> b
    | Some i ->
        let live =
          ref
            (List.fold_left
               (fun acc r -> Cfg.RSet.add r acc)
               lv.Cfg.live_out.(i)
               (Mir.term_reads b.Mir.b_term))
        in
        let stmts =
          List.fold_left
            (fun acc s ->
              let e = Cfg.stmt_effects s in
              let dead =
                e.Cfg.e_removable
                && e.Cfg.e_writes <> []
                && List.for_all
                     (fun w -> not (Cfg.RSet.mem w !live))
                     e.Cfg.e_writes
              in
              if dead then acc
              else begin
                live := Cfg.live_before ~univ s !live;
                s :: acc
              end)
            []
            (List.rev b.Mir.b_stmts)
        in
        { b with Mir.b_stmts = stmts }
  in
  map_blocks rewrite p
