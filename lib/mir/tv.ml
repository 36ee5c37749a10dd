(* Translation validation: prove compacted microcode equivalent to the
   sequential schedule it was compacted from.

   The compactor's output for each MIR block is checked against the
   reference semantics — the selected microoperations executed one per
   word, in selection order — by executing both symbolically
   ({!Msl_machine.Symexec}) from a common store of fresh inputs and
   comparing the stores at every control exit.  Honest compiles prove by
   construction: both sides build the identical hash-consed terms, so
   every comparison is settled by pointer equality.  The layered decision
   procedure ([Symexec.decide]) only works when a rewrite changed the term
   shape, and a concrete counterexample falls out whenever it refutes.

   Unlike Microlint, which re-derives the *resource* discipline, this pass
   checks the *dataflow* semantics — the static analogue of the
   differential oracle, and the proof gate the superoptimizer searches
   against.  Only a proof validates:

     VALIDATED          proved equal on every exit
     REFUTED            provably different, usually with a concrete
                        counterexample store
     UNKNOWN            decision budget exhausted; every gate treats it as
                        a failure *)

open Msl_machine
module Udiag = Msl_util.Diag

(* What the pipeline hands the validator for one block, captured inside
   [Pipeline.lower_block]: the selected ops before compaction, the
   sequencing tail, and the emitted word list after compaction and tail
   merging. *)
type artifact = {
  a_label : string;
  a_body : Inst.op list;
  a_tail : Select.tail_inst list;
  a_mis : (Inst.op list * Select.lnext) list;
}

type verdict =
  | Validated
  | Refuted of Symexec.assignment option  (* None: structural mismatch *)
  | Unknown

type result = {
  v_total : int;
  v_validated : int;
  v_dynamic : int;  (* always 0; see tv.mli *)
  v_refuted : int;
  v_unknown : int;
  v_findings : Diag.finding list;
}

let empty_result =
  {
    v_total = 0;
    v_validated = 0;
    v_dynamic = 0;
    v_refuted = 0;
    v_unknown = 0;
    v_findings = [];
  }

(* -- symbolic walk of a word list ----------------------------------------- *)

(* A control exit of the walk: the observable points where the two sides
   must agree.  Falling off the end is an exit ([thread_jumps]: it
   halts); a branch is an exit (the taken path sees the store as of that
   word) *and* execution continues on the fall-through path; a call is an
   exit, after which the store is havocked — the microsubroutine's
   effects are unmodeled but identical on both sides. *)
type exit_point = E_fall | E_ctrl of Select.lnext

let walk ctx d (words : (Inst.op list * Select.lnext) list) =
  let store = Symexec.init_store ctx d in
  let exits = ref [] in
  let calls = ref 0 in
  let push e = exits := (e, Symexec.copy_store store) :: !exits in
  let rec go = function
    | [] -> ()
    | (ops, next) :: rest -> (
        Symexec.exec_word ctx d store ops;
        match next with
        | Select.L_next -> if rest = [] then push E_fall else go rest
        | Select.L_branch _ as n ->
            push (E_ctrl n);
            if rest = [] then push E_fall else go rest
        | Select.L_call _ as n ->
            push (E_ctrl n);
            incr calls;
            Symexec.havoc ~prefix:(Printf.sprintf "call%d:" !calls) ctx d store;
            if rest = [] then push E_fall else go rest
        | (Select.L_goto _ | Select.L_dispatch _ | Select.L_return
          | Select.L_halt) as n ->
            push (E_ctrl n))
  in
  (match words with [] -> push E_fall | ws -> go ws);
  List.rev !exits

(* The reference schedule: each selected op alone in its word, then the
   uncompacted sequencing tail — exactly what [Pipeline.lower_block]
   would emit with a unit-group compactor and no tail merge. *)
let reference_words (a : artifact) =
  List.map (fun op -> ([ op ], Select.L_next)) a.a_body
  @ List.map (fun t -> (t.Select.t_ops, t.Select.t_next)) a.a_tail

let decided goals =
  match Symexec.decide goals with
  | Symexec.Proved -> Validated
  | Symexec.Refuted cx -> Refuted (Some cx)
  | Symexec.Unknown -> Unknown

let compare_exit ((e1, s1), (e2, s2)) =
  if e1 <> e2 || s1.Symexec.st_acks <> s2.Symexec.st_acks then Refuted None
  else decided (Symexec.store_pairs s1 s2)

(* -- per-block validation --------------------------------------------------- *)

let validate_words d ~reference ~candidate =
  let ctx = Symexec.create_ctx () in
  try
    let ref_exits = walk ctx d reference in
    let cand_exits = walk ctx d candidate in
    if List.length ref_exits <> List.length cand_exits then Refuted None
    else begin
      (* the first refutation wins; an undecided exit makes the block
         Unknown only if nothing refutes *)
      let rec cmp unknown = function
        | [] -> if unknown then Unknown else Validated
        | pair :: rest -> (
            match compare_exit pair with
            | Validated -> cmp unknown rest
            | Unknown -> cmp true rest
            | Refuted _ as r -> r)
      in
      cmp false (List.combine ref_exits cand_exits)
    end
  with Udiag.Error _ -> Unknown

(* -- rewrite validation (the superoptimizer's proof gate) -------------------- *)

(* A superoptimizer window rewrite is proved by comparing *guarded
   outcomes* rather than [walk] exits.  Each way control can leave the
   window — a taken branch, a goto, halt/return, or falling past the last
   word into the layout successor ([fall]) — becomes a triple of
   destination, path guard (the conjunction of branch-condition terms
   along the path, as {!Symexec.cond_term}s over the evolving store) and
   the store at departure.  This admits rewrites [validate_words] must
   reject structurally: folding a goto word into its predecessor, or
   inverting a branch so the old fall-through path becomes the taken
   path.  Windows whose control the guard model cannot express — calls,
   dispatches, interrupt-pending tests — are [Unknown], never accepted. *)

type destination = D_label of string | D_halt | D_return

exception Unsupported_window

let outcomes ctx d ~fall (words : (Inst.op list * Select.lnext) list) =
  let store = Symexec.init_store ctx d in
  let guard = ref (Symexec.true_ ctx) in
  let outs = ref [] in
  let emit dst g = outs := (dst, g, Symexec.copy_store store) :: !outs in
  let fall_off () =
    match fall with
    | Some l -> emit (D_label l) !guard
    | None -> emit D_halt !guard
  in
  let rec go = function
    | [] -> fall_off ()
    | (ops, next) :: rest -> (
        Symexec.exec_word ctx d store ops;
        match next with
        | Select.L_next -> if rest = [] then fall_off () else go rest
        | Select.L_goto l -> emit (D_label l) !guard
        | Select.L_halt -> emit D_halt !guard
        | Select.L_return -> emit D_return !guard
        | Select.L_branch (c, l) -> (
            match Symexec.cond_term ctx store c with
            | None -> raise Unsupported_window
            | Some t ->
                emit (D_label l) (Symexec.logand ctx !guard t);
                guard := Symexec.logand ctx !guard (Symexec.lognot ctx t);
                if rest = [] then fall_off () else go rest)
        | Select.L_call _ | Select.L_dispatch _ -> raise Unsupported_window)
  in
  (match words with [] -> fall_off () | ws -> go ws);
  List.rev !outs

let validate_rewrite d ~fall_ref ~fall_cand ~reference ~candidate =
  let ctx = Symexec.create_ctx () in
  try
    let ro = outcomes ctx d ~fall:fall_ref reference in
    let co = outcomes ctx d ~fall:fall_cand candidate in
    let dests os = List.map (fun (dst, _, _) -> dst) os in
    let rd = List.sort_uniq compare (dests ro) in
    let cd = List.sort_uniq compare (dests co) in
    (* destinations must match as sets, each reached along exactly one
       path per side — the guards then pair up unambiguously *)
    if
      rd <> cd
      || List.length rd <> List.length ro
      || List.length cd <> List.length co
    then Refuted None
    else begin
      let paired =
        List.map
          (fun (dst, g1, s1) ->
            let _, g2, s2 = List.find (fun (d2, _, _) -> d2 = dst) co in
            ((g1, s1), (g2, s2)))
          ro
      in
      if
        List.exists
          (fun ((_, s1), (_, s2)) ->
            s1.Symexec.st_acks <> s2.Symexec.st_acks)
          paired
      then Refuted None
      else begin
        (* guards must agree, and the stores must agree unconditionally —
           stronger than equality-under-guard, which is exactly what makes
           the obligations a flat list of term pairs [decide] can settle *)
        let goals =
          List.concat_map
            (fun ((g1, s1), (g2, s2)) ->
              (g1, g2) :: Symexec.store_pairs s1 s2)
            paired
        in
        decided goals
      end
    end
  with Unsupported_window | Udiag.Error _ -> Unknown

(* -- findings and aggregation ------------------------------------------------ *)

let cx_suffix = function
  | None -> " (structural mismatch)"
  | Some cx ->
      Format.asprintf "; counterexample %a" Symexec.pp_assignment cx

let tally verdict loc what (acc : result) =
  let acc = { acc with v_total = acc.v_total + 1 } in
  match verdict with
  | Validated -> { acc with v_validated = acc.v_validated + 1 }
  | Refuted cx ->
      let f =
        Diag.finding ~severity:Diag.Error ~loc ~code:"tv-refuted"
          "%s is not equivalent to its reference schedule%s" what
          (cx_suffix cx)
      in
      {
        acc with
        v_refuted = acc.v_refuted + 1;
        v_findings = f :: acc.v_findings;
      }
  | Unknown ->
      let f =
        Diag.finding ~severity:Diag.Warning ~loc ~code:"tv-unknown"
          "%s: equivalence not decided within budget" what
      in
      {
        acc with
        v_unknown = acc.v_unknown + 1;
        v_findings = f :: acc.v_findings;
      }

let finish acc = { acc with v_findings = List.rev acc.v_findings }

let validate_artifacts d (artifacts : artifact list) =
  finish
    (List.fold_left
       (fun acc a ->
         let loc = Diag.L_block { block = a.a_label; stmt = None } in
         tally
           (validate_words d ~reference:(reference_words a) ~candidate:a.a_mis)
           loc
           (Printf.sprintf "compacted block %S" a.a_label)
           acc)
       empty_result artifacts)

(* -- whole-program validation (linked word lists) --------------------------- *)

(* For mutants of a *linked* program — where no artifact exists — the two
   instruction lists are compared region by region: leaders are address 0,
   every control-flow target and every post-control address, over *both*
   programs; a region is the run between consecutive leaders, and by
   construction every word before a region's last is fall-through on both
   sides.  Each region is validated from its own fresh store, which
   composes: if every region is equivalent, the programs are. *)

let targets_of = function
  | Inst.Next -> []
  | Inst.Jump a -> [ a ]
  | Inst.Branch (_, a) -> [ a ]
  | Inst.Dispatch { hi; lo; base; _ } ->
      List.init (1 lsl (hi - lo + 1)) (fun k -> base + k)
  | Inst.Call a -> [ a ]
  | Inst.Return | Inst.Halt -> []

let region_bounds (progs : Inst.t array list) n =
  let leaders = Hashtbl.create 64 in
  Hashtbl.replace leaders 0 ();
  List.iter
    (fun arr ->
      Array.iteri
        (fun i (w : Inst.t) ->
          match w.Inst.next with
          | Inst.Next -> ()
          | nx ->
              if i + 1 < n then Hashtbl.replace leaders (i + 1) ();
              List.iter
                (fun t -> if t >= 0 && t < n then Hashtbl.replace leaders t ())
                (targets_of nx))
        arr)
    progs;
  let ls = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) leaders []) in
  let rec pair = function
    | [] -> []
    | [ l ] -> [ (l, n - 1) ]
    | l :: (l2 :: _ as rest) -> (l, l2 - 1) :: pair rest
  in
  pair ls

(* One region, symbolically.  The last words' sequencing must agree
   structurally; everything before it is fall-through on both sides. *)
let validate_region d (ra : Inst.t array) (ca : Inst.t array) (s, e) =
  let ctx = Symexec.create_ctx () in
  let sr = Symexec.init_store ctx d in
  let sc = Symexec.init_store ctx d in
  match
    for i = s to e do
      Symexec.exec_word ctx d sr ra.(i).Inst.ops;
      Symexec.exec_word ctx d sc ca.(i).Inst.ops
    done
  with
  | () ->
      if
        ra.(e).Inst.next <> ca.(e).Inst.next
        || sr.Symexec.st_acks <> sc.Symexec.st_acks
      then Refuted None
      else decided (Symexec.store_pairs sr sc)
  | exception Udiag.Error _ -> Unknown

let validate_program ?(labels = []) d ~reference ~candidate =
  let ra = Array.of_list reference and ca = Array.of_list candidate in
  if Array.length ra <> Array.length ca then
    finish
      (tally (Refuted None) Diag.L_none
         (Printf.sprintf "program of %d words vs %d" (Array.length ra)
            (Array.length ca))
         empty_result)
  else if Array.length ra = 0 then finish empty_result
  else begin
    (* word -> owning block label, as in Lint: greatest address not
       beyond the word *)
    let owner addr =
      List.fold_left
        (fun best (l, a) ->
          if a <= addr then
            match best with
            | Some (_, ba) when ba >= a -> best
            | _ -> Some (l, a)
          else best)
        None labels
      |> Option.map fst
    in
    let regions = region_bounds [ ra; ca ] (Array.length ra) in
    finish
      (List.fold_left
         (fun acc (s, e) ->
           let loc = Diag.L_word { addr = s; owner = owner s } in
           tally
             (validate_region d ra ca (s, e))
             loc
             (Printf.sprintf "words %d..%d" s e)
             acc)
         empty_result regions)
  end

let pp_summary ppf r =
  Format.fprintf ppf
    "%d block%s: %d validated, %d refuted, %d unknown" r.v_total
    (if r.v_total = 1 then "" else "s")
    r.v_validated r.v_refuted r.v_unknown
