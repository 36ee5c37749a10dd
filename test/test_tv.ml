(* Tests for the translation validator: the Symexec term and decision
   layers (normalizer soundness against concrete simulation, exhaustive
   proof, sampled refutation, budget exhaustion) and the Tv validation
   passes (honest blocks validate; every injected miscompile kind is
   refuted and its witness store replays to divergent architectural
   state through the interpreter). *)

open Msl_bitvec
open Msl_machine
module Core = Msl_core
module Tv = Msl_mir.Tv
module Select = Msl_mir.Select
module Compaction = Msl_mir.Compaction

let check_bool = Alcotest.(check bool)
let hp3 = Machines.hp3

(* A concrete environment over a seeded assignment; memory starts zero,
   matching a freshly created simulator. *)
let env_of a =
  {
    Symexec.e_var =
      (fun n ->
        match List.assoc_opt n a with
        | Some v -> v
        | None -> Alcotest.failf "unbound symbolic variable %s" n);
    e_mem = (fun _ -> 0L);
  }

(* -- the decision layer -------------------------------------------------- *)

(* x - y and x + (lnot y) + 1 build different terms; 16 live bits fit the
   default exhaustive budget, so the equality is proved, not sampled. *)
let test_decide_proved () =
  let ctx = Symexec.create_ctx () in
  let x = Symexec.var ctx "x" 8 and y = Symexec.var ctx "y" 8 in
  let lhs = Symexec.sub ctx x y in
  let rhs =
    Symexec.add ctx
      (Symexec.add ctx x (Symexec.lognot ctx y))
      (Symexec.const_int ctx ~width:8 1)
  in
  check_bool "terms differ structurally" true (lhs.Symexec.id <> rhs.Symexec.id);
  match Symexec.decide [ (lhs, rhs) ] with
  | Symexec.Proved -> ()
  | Symexec.Refuted _ -> Alcotest.fail "refuted a true equality"
  | Symexec.Unknown -> Alcotest.fail "budget should cover 16 live bits"

(* The same goal under a starved budget (no enumeration): no sample or
   corner store can refute a true equality, so the honest answer is
   Unknown. *)
let test_decide_unknown () =
  let ctx = Symexec.create_ctx () in
  let x = Symexec.var ctx "x" 8 and y = Symexec.var ctx "y" 8 in
  let lhs = Symexec.sub ctx x y in
  let rhs =
    Symexec.add ctx
      (Symexec.add ctx x (Symexec.lognot ctx y))
      (Symexec.const_int ctx ~width:8 1)
  in
  match Symexec.decide ~budget_bits:0 [ (lhs, rhs) ] with
  | Symexec.Unknown -> ()
  | _ -> Alcotest.fail "a starved budget must answer Unknown"

(* x + 1 vs x + 2: refuted, and the counterexample actually separates the
   two terms under concrete evaluation. *)
let test_decide_refuted () =
  let ctx = Symexec.create_ctx () in
  let x = Symexec.var ctx "x" 8 in
  let lhs = Symexec.add ctx x (Symexec.const_int ctx ~width:8 1) in
  let rhs = Symexec.add ctx x (Symexec.const_int ctx ~width:8 2) in
  match Symexec.decide [ (lhs, rhs) ] with
  | Symexec.Refuted cx ->
      let env = env_of cx in
      check_bool "counterexample separates the terms" false
        (Bitvec.equal (Symexec.eval env lhs) (Symexec.eval env rhs))
  | _ -> Alcotest.fail "expected a refutation"

(* A 32-bit goal that fails only at the sign-bit corner x = 0x80000000:
   too wide to enumerate and missed by the random samples, it is refuted
   by the corner-value layer. *)
let test_decide_corner () =
  let ctx = Symexec.create_ctx () in
  let x = Symexec.var ctx "x" 32 in
  let is_min =
    Symexec.alu_flag ctx Rtl.Z Rtl.A_sub x
      (Symexec.const_int ctx ~width:32 0x80000000)
      ~carry:(Symexec.const_int ctx ~width:1 0)
  in
  match Symexec.decide [ (is_min, Symexec.const_int ctx ~width:1 0) ] with
  | Symexec.Refuted [ ("x", v) ] ->
      check_bool "the counterexample is the sign bit" true
        (Bitvec.to_int v = 0x80000000)
  | _ -> Alcotest.fail "expected a corner-value refutation"

(* -- normalizer soundness: symbolic execution vs the interpreter --------- *)

(* Compact a generated block, execute the words symbolically, then check
   that every register and flag term evaluates — under seeded concrete
   stores — to exactly what the interpreter computes.  This holds every
   smart-constructor rewrite (constant folding, ALU lowering, flag
   reduction, slice/zext normalization) to Sim's concrete semantics. *)
let block_words ?(p_dep = 40) d ~seed ~n =
  let ops = Core.Workloads.compaction_block d ~seed ~n ~p_dep in
  let r =
    Compaction.compact ~chain:true ~algo:Compaction.Critical_path d ops
  in
  List.map (fun g -> { Inst.ops = g; next = Inst.Next }) r.Compaction.groups
  @ [ { Inst.ops = []; next = Inst.Halt } ]

let test_symexec_matches_sim () =
  List.iter
    (fun seed ->
      let words = block_words hp3 ~seed ~n:10 in
      let ctx = Symexec.create_ctx () in
      let store = Symexec.init_store ctx hp3 in
      List.iter
        (fun (w : Inst.t) -> Symexec.exec_word ctx hp3 store w.Inst.ops)
        words;
      List.iter
        (fun a ->
          let env = env_of a in
          let sim = Sim.create hp3 in
          Sim.load_store sim words;
          Core.Workloads.apply_assignment hp3 sim a;
          (match Sim.run ~fuel:256 sim with
          | Sim.Halted -> ()
          | Sim.Out_of_fuel -> Alcotest.fail "block did not halt");
          Array.iteri
            (fun i (r : Desc.reg) ->
              let want = Sim.get_reg sim r.Desc.r_name in
              let got = Symexec.eval env store.Symexec.st_regs.(i) in
              if not (Bitvec.equal want got) then
                Alcotest.failf "seed %d, %s: sim %s vs symexec %s" seed
                  r.Desc.r_name (Bitvec.to_string want) (Bitvec.to_string got))
            hp3.Desc.d_regs;
          Array.iteri
            (fun i t ->
              let fl = Symexec.flag_of_index i in
              let want = Sim.get_flag sim fl in
              let got = not (Bitvec.is_zero (Symexec.eval env t)) in
              if want <> got then
                Alcotest.failf "seed %d, flag %s: sim %b vs symexec %b" seed
                  (Rtl.flag_name fl) want got)
            store.Symexec.st_flags)
        (Core.Workloads.seeded_assignments hp3 ~seed ~n:3))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* -- hash-consing normalizations ----------------------------------------- *)

let test_normalizer_identities () =
  let ctx = Symexec.create_ctx () in
  let x = Symexec.var ctx "x" 8 and y = Symexec.var ctx "y" 8 in
  check_bool "add commutes to one term" true
    ((Symexec.add ctx x y).Symexec.id = (Symexec.add ctx y x).Symexec.id);
  check_bool "x - x folds to zero" true
    (match (Symexec.sub ctx x x).Symexec.node with
    | Symexec.Const v -> Bitvec.is_zero v
    | _ -> false);
  check_bool "double negation cancels" true
    ((Symexec.lognot ctx (Symexec.lognot ctx x)).Symexec.id = x.Symexec.id);
  check_bool "slice of zext re-canonicalizes" true
    ((Symexec.slice ctx (Symexec.zext ctx 16 x) ~hi:7 ~lo:0).Symexec.id
    = x.Symexec.id)

(* -- block-level validation: the layered verdicts ------------------------ *)

let to_words insts =
  List.map
    (fun (w : Inst.t) ->
      ( w.Inst.ops,
        match w.Inst.next with
        | Inst.Halt -> Select.L_halt
        | _ -> Select.L_next ))
    insts

let parse_words src = to_words (Masm.parse_program hp3 src)

(* R1 + R1 vs R1 shl 1: equal on all 2^16 inputs but structurally
   different (shifts stay opaque), so the verdict comes from the layers:
   an exhaustive proof under the default budget; with R2 added in, 32 live
   bits exceed the budget and the answer is Unknown — a failure at every
   gate, never a pass. *)
let test_validate_words_layers () =
  let add1 = parse_words "[ add R0, R1, R1 ] -> halt\n" in
  let shl1 = parse_words "[ shl R0, R1, #1 ] -> halt\n" in
  (match Tv.validate_words hp3 ~reference:add1 ~candidate:shl1 with
  | Tv.Validated -> ()
  | _ -> Alcotest.fail "expected an exhaustive proof");
  let wide_ref = parse_words "[ add R0, R1, R1 ]\n[ add R0, R0, R2 ]\n" in
  let wide_cand = parse_words "[ shl R0, R1, #1 ]\n[ add R0, R0, R2 ]\n" in
  (match Tv.validate_words hp3 ~reference:wide_ref ~candidate:wide_cand with
  | Tv.Unknown -> ()
  | _ -> Alcotest.fail "32 live bits must answer Unknown");
  let artifact =
    {
      Tv.a_label = "wide";
      a_body = List.concat_map fst wide_ref;
      a_tail = [];
      a_mis = wide_cand;
    }
  in
  let r = Tv.validate_artifacts hp3 [ artifact ] in
  check_bool "counted unknown, not validated" true
    (r.Tv.v_unknown = 1 && r.Tv.v_validated = 0);
  check_bool "a tv-unknown finding" true
    (List.map (fun f -> f.Msl_mir.Diag.f_code) r.Tv.v_findings
    = [ "tv-unknown" ]);
  (* R1 shl 2 computes something else: refuted with a counterexample *)
  let shl2 = parse_words "[ shl R0, R1, #2 ] -> halt\n" in
  match Tv.validate_words hp3 ~reference:add1 ~candidate:shl2 with
  | Tv.Refuted (Some _) -> ()
  | _ -> Alcotest.fail "expected a counterexample refutation"

let test_validate_honest_block () =
  List.iter
    (fun seed ->
      let ops = Core.Workloads.compaction_block hp3 ~seed ~n:12 ~p_dep:50 in
      let reference =
        List.map (fun o -> ([ o ], Select.L_next)) ops @ [ ([], Select.L_halt) ]
      in
      let candidate = to_words (block_words ~p_dep:50 hp3 ~seed ~n:12) in
      (* same n/p_dep: candidate is the compaction of the same op list *)
      match Tv.validate_words hp3 ~reference ~candidate with
      | Tv.Validated -> ()
      | Tv.Refuted _ -> Alcotest.failf "honest compaction refuted (seed %d)" seed
      | Tv.Unknown -> Alcotest.failf "honest compaction unknown (seed %d)" seed)
    [ 1; 2; 3; 4; 5 ]

(* Different p_dep: a genuinely different op list must not validate. *)
let test_validate_different_blocks () =
  let ops = Core.Workloads.compaction_block hp3 ~seed:1 ~n:12 ~p_dep:50 in
  let reference =
    List.map (fun o -> ([ o ], Select.L_next)) ops @ [ ([], Select.L_halt) ]
  in
  let candidate = to_words (block_words hp3 ~seed:2 ~n:12) in
  match Tv.validate_words hp3 ~reference ~candidate with
  | Tv.Refuted _ -> ()
  | Tv.Validated -> Alcotest.fail "validated two different blocks"
  | Tv.Unknown -> Alcotest.fail "expected a refutation, got Unknown"

(* -- program-level validation: miscompiles refuted and replayed ---------- *)

let read_example name =
  let dir = if Sys.file_exists "../examples" then "../examples" else "examples" in
  let ic = open_in_bin (Filename.concat dir name) in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_miscompiles_refuted () =
  let d = hp3 in
  let c = Core.Toolkit.compile Core.Toolkit.Yalll d (read_example "gcd.yll") in
  let insts = c.Core.Toolkit.c_insts in
  List.iter
    (fun kind ->
      let name = Core.Workloads.miscompile_name kind in
      let found = ref false in
      List.iter
        (fun seed ->
          match Core.Workloads.inject_miscompile d ~seed kind insts with
          | None -> ()
          | Some (mutant, witness) ->
              found := true;
              let r =
                Tv.validate_program d ~labels:c.Core.Toolkit.c_labels
                  ~reference:insts ~candidate:mutant
              in
              check_bool (name ^ " refuted") true (r.Tv.v_refuted > 0);
              check_bool
                (name ^ " witness replays to divergent state")
                true
                (Core.Workloads.observe d insts witness
                <> Core.Workloads.observe d mutant witness))
        [ 0; 1; 2; 3; 4 ];
      check_bool (name ^ " found an injectable site") true !found)
    Core.Workloads.all_miscompiles

(* An honest program validates against itself at the program level — the
   trivial but load-bearing false-alarm floor. *)
let test_program_self_validates () =
  let d = hp3 in
  let c = Core.Toolkit.compile Core.Toolkit.Yalll d (read_example "gcd.yll") in
  let insts = c.Core.Toolkit.c_insts in
  let r = Tv.validate_program d ~reference:insts ~candidate:insts in
  check_bool "no refutations" true (r.Tv.v_refuted = 0);
  check_bool "no unknowns" true (r.Tv.v_unknown = 0);
  check_bool "all validated" true (r.Tv.v_validated = r.Tv.v_total)

let () =
  Alcotest.run "tv"
    [
      ( "decide",
        [
          Alcotest.test_case "proved within budget" `Quick test_decide_proved;
          Alcotest.test_case "unknown when starved" `Quick test_decide_unknown;
          Alcotest.test_case "refuted with counterexample" `Quick
            test_decide_refuted;
          Alcotest.test_case "refuted at a corner value" `Quick
            test_decide_corner;
        ] );
      ( "symexec",
        [
          Alcotest.test_case "matches the interpreter" `Quick
            test_symexec_matches_sim;
          Alcotest.test_case "normalizer identities" `Quick
            test_normalizer_identities;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "verdict layers (add vs shl)" `Quick
            test_validate_words_layers;
          Alcotest.test_case "honest compaction validates" `Quick
            test_validate_honest_block;
          Alcotest.test_case "different blocks refuted" `Quick
            test_validate_different_blocks;
        ] );
      ( "programs",
        [
          Alcotest.test_case "miscompiles refuted and replayed" `Quick
            test_miscompiles_refuted;
          Alcotest.test_case "honest program self-validates" `Quick
            test_program_self_validates;
        ] );
    ]
