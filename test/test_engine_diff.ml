(* The engine differential oracle.

   The compiled closure engine (Simc) claims to be observationally
   identical to the cycle-accurate interpreter (Sim.step): same final
   pc, halt flag, cycle and instruction counts, trap and interrupt
   accounting, memory traffic, registers, flags and memory image — the
   whole [Sim.state_digest] — and the same diagnostics on the same
   inputs.  This oracle holds it to that over the entire corpus:

   - every examples/* program on every machine its language targets,
     at -O0 and -O1;
   - the S* benchmark kernels with live data (registers and memory),
     including an out-of-fuel stop mid-kernel;
   - hand-assembled microcode (the Handcoded reference programs);
   - seeded Workloads generators (YALLL corpus, EMPL pressure
     programs) across machines;
   - fuzzed mutants of every example source (the same Workloads.mutate
     corpus the robustness fuzzer runs) — whatever compiles must agree;
   - interrupt schedules against poll-point code (the Int_ack fallback
     boundary), and microtrap schedules in both trap modes.

   Agreement means byte-identical outcome strings: status + digest on a
   completed run, the diagnostic message on a raising one. *)

open Msl_machine
module Core = Msl_core
module Diag = Msl_util.Diag
module Toolkit = Core.Toolkit
module Workloads = Core.Workloads
module Handcoded = Core.Handcoded
module Pipeline = Msl_mir.Pipeline

let opt_options level =
  { Pipeline.default_options with Pipeline.opt_level = level }

(* -- the oracle ---------------------------------------------------------- *)

(* One engine's complete observable outcome, as a comparable string: the
   run status and full state digest when the program ran to a stop, the
   structured diagnostic when it raised.  [Toolkit.capture] is the same
   exception firewall the drivers use, so an engine that crashed with
   anything but a [Diag.Error] shows up as an [Internal] mismatch rather
   than killing the oracle. *)
let outcome ~engine ?setup ?trap_mode ?(fuel = 100_000)
    (c : Toolkit.compiled) =
  match
    Toolkit.capture (fun () ->
        let sim = Toolkit.load ?trap_mode c in
        (match setup with Some f -> f sim | None -> ());
        let status = Toolkit.exec ~engine ~fuel sim in
        let s =
          match status with
          | Sim.Halted -> "halted"
          | Sim.Out_of_fuel -> "out-of-fuel"
        in
        s ^ "\n" ^ Sim.state_digest sim)
  with
  | Ok s -> s
  | Error d -> "error: " ^ d.Diag.message

let engines_agree ?setup ?trap_mode ?fuel what c =
  let interp = outcome ~engine:Toolkit.Interp ?setup ?trap_mode ?fuel c in
  let compiled = outcome ~engine:Toolkit.Compiled ?setup ?trap_mode ?fuel c in
  Alcotest.(check string) what interp compiled

(* Every word of the corpus compiles natively: each of its phases is one
   [Phase.direct] accepts, and its RTL fits the int fast path.  The one
   exception is cascade.simpl on H1, whose 64-bit [shlf] is wider than
   the 62-bit int path.  A narrower [Phase.direct] (say, without its
   memory-first case, which V11's [rd | add] word needs) shows here as
   fallback words the parent did not have. *)
let int_path_exceptions = [ ("cascade.simpl", "H1", 1) ]

let check_native what ?(name = "") (d : Desc.t) c =
  let expect =
    List.fold_left
      (fun acc (n, m, k) -> if n = name && m = d.Desc.d_name then k else acc)
      0 int_path_exceptions
  in
  Alcotest.(check int)
    (what ^ ": fallback words") expect
    (Simc.fallback_words (Simc.translate (Toolkit.load c)))

(* -- the example corpus -------------------------------------------------- *)

let machines_of = function
  | Toolkit.Yalll -> [ Machines.hp3; Machines.v11; Machines.b17 ]
  | Toolkit.Simpl -> [ Machines.hp3; Machines.h1; Machines.b17 ]
  | Toolkit.Empl -> [ Machines.hp3; Machines.b17 ]
  | Toolkit.Sstar -> [ Machines.hp3 ]

let example_corpus =
  let dir =
    if Sys.file_exists "../examples" then "../examples" else "examples"
  in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f ->
         let lang =
           if Filename.check_suffix f ".yll" then Some Toolkit.Yalll
           else if Filename.check_suffix f ".simpl" then Some Toolkit.Simpl
           else if Filename.check_suffix f ".empl" then Some Toolkit.Empl
           else None
         in
         match lang with
         | None -> None
         | Some lang ->
             let ic = open_in_bin (Filename.concat dir f) in
             let src = really_input_string ic (in_channel_length ic) in
             close_in ic;
             Some (f, lang, src))

let test_examples () =
  Alcotest.(check bool)
    "corpus populated" true
    (List.length example_corpus >= 6);
  List.iter
    (fun (name, lang, src) ->
      List.iter
        (fun (d : Desc.t) ->
          List.iter
            (fun level ->
              let c =
                Toolkit.compile ~options:(opt_options level) lang d src
              in
              let what =
                Printf.sprintf "examples/%s on %s -O%d" name d.Desc.d_name
                  level
              in
              check_native what ~name d c;
              engines_agree what c)
            [ 0; 1 ])
        (machines_of lang))
    example_corpus

(* -- the S* kernels with live data --------------------------------------- *)

let mpy_setup sim =
  Sim.set_reg_int sim "R1" 300;
  Sim.set_reg_int sim "R2" 9

let dot_setup sim =
  let mem = Sim.memory sim in
  Memory.load_ints mem ~base:1024 (List.init 16 (fun i -> (i * 37) land 255));
  Memory.load_ints mem ~base:2048 (List.init 16 (fun i -> (i * 11) land 255));
  Sim.set_reg_int sim "R1" 1024;
  Sim.set_reg_int sim "R2" 2048;
  Sim.set_reg_int sim "R3" 16

let kernels =
  [
    ("simpl_mpy", Toolkit.Simpl, Handcoded.simpl_mpy, mpy_setup);
    ("yalll_dot", Toolkit.Yalll, Handcoded.yalll_dot, dot_setup);
  ]

let test_kernels () =
  List.iter
    (fun (name, lang, src, setup) ->
      List.iter
        (fun (d : Desc.t) ->
          let c = Toolkit.compile lang d src in
          let what = Printf.sprintf "%s on %s" name d.Desc.d_name in
          check_native what d c;
          engines_agree what ~setup c;
          (* stopping mid-kernel must leave both engines in the same
             place: fuel accounting is part of the contract (the drivers
             turn Out_of_fuel into an exit code) *)
          engines_agree
            (Printf.sprintf "%s on %s, out of fuel" name d.Desc.d_name)
            ~setup ~fuel:50 c)
        (machines_of lang))
    kernels

let test_handcoded () =
  List.iter
    (fun (name, d, src, setup) ->
      let c = Toolkit.assemble d src in
      engines_agree ("assembled " ^ name) ?setup c)
    [
      ("translit_hp3", Machines.hp3, Handcoded.translit_hp3, None);
      ("translit_v11", Machines.v11, Handcoded.translit_v11, None);
      ("fpmul_h1", Machines.h1, Handcoded.fpmul_h1, None);
      ("mpy_h1", Machines.h1, Handcoded.mpy_h1, Some mpy_setup);
      ("dot_hp3", Machines.hp3, Handcoded.dot_hp3, Some dot_setup);
    ]

(* A single HP3 word that swaps two registers: [mov] and [or] both run
   in phase 0, each reading what the other writes.  [Phase.direct]
   rejects that phase, so Simc hands the word to the interpreter's phase
   model; both engines must still swap. *)
let test_swap_word () =
  let c =
    Toolkit.assemble Machines.hp3
      "  [ mov R1, R2 | or R2, R1, R1 ]\n  [ ] -> halt\n"
  in
  let e = Simc.translate (Toolkit.load c) in
  Alcotest.(check int) "the swap word falls back" 1 (Simc.fallback_words e);
  Alcotest.(check int) "the halt word is native" 1 (Simc.native_words e);
  let setup sim =
    Sim.set_reg_int sim "R1" 5;
    Sim.set_reg_int sim "R2" 9
  in
  engines_agree "swap word" ~setup c;
  let sim = Toolkit.load c in
  setup sim;
  ignore (Toolkit.exec ~engine:Toolkit.Compiled ~fuel:10 sim);
  Alcotest.(check (pair int int))
    "R1 and R2 swapped" (9, 5)
    ( Msl_bitvec.Bitvec.to_int (Sim.get_reg sim "R1"),
      Msl_bitvec.Bitvec.to_int (Sim.get_reg sim "R2") )

(* One action whose high half reads the destination's low half: on the
   64-bit H1, R1 := R1 + 1 finds the carry into bit 62 by recomputing
   the low sum.  An action reads the state before it writes it, so
   R1 = 2^62 - 1 must become 2^62 on both engines. *)
let test_wide_self_update () =
  let d = Machines.h1 in
  let r1 = (Desc.get_reg d "R1").Desc.r_id in
  let mov = Inst.make d "mov" [ Inst.A_reg r1; Inst.A_reg r1 ] in
  let one = Msl_bitvec.Bitvec.of_int ~width:64 1 in
  let inc =
    {
      mov with
      Inst.op_t =
        {
          mov.Inst.op_t with
          Desc.t_actions =
            [ Rtl.Assign (Rtl.D_opnd 0, Rtl.Add (Rtl.Opnd 1, Rtl.Const one)) ];
        };
    }
  in
  let run engine =
    let sim = Sim.create d in
    Sim.load_store sim [ { Inst.ops = [ inc ]; next = Inst.Halt } ];
    Sim.set_reg_int sim "R1" ((1 lsl 62) - 1);
    ignore (Toolkit.exec ~engine ~fuel:10 sim);
    sim
  in
  let interp = run Toolkit.Interp and compiled = run Toolkit.Compiled in
  Alcotest.(check int64)
    "R1 = 2^62" (Int64.shift_left 1L 62)
    (Msl_bitvec.Bitvec.to_int64 (Sim.get_reg compiled "R1"));
  Alcotest.(check string)
    "same state" (Sim.state_digest interp) (Sim.state_digest compiled)

(* -- seeded generator corpus --------------------------------------------- *)

let test_generated_yalll () =
  List.iter
    (fun seed ->
      let src = Workloads.yalll_program ~seed ~len:(20 + (seed mod 4 * 15)) in
      List.iter
        (fun (d : Desc.t) ->
          let c = Toolkit.compile Toolkit.Yalll d src in
          engines_agree
            (Printf.sprintf "yalll_program seed %d on %s" seed d.Desc.d_name)
            c)
        (machines_of Toolkit.Yalll))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_generated_empl () =
  List.iter
    (fun seed ->
      let src = Workloads.pressure_program ~seed ~nvars:6 ~nops:24 in
      List.iter
        (fun (d : Desc.t) ->
          let c = Toolkit.compile Toolkit.Empl d src in
          engines_agree
            (Printf.sprintf "pressure_program seed %d on %s" seed
               d.Desc.d_name)
            c)
        (machines_of Toolkit.Empl))
    [ 11; 12; 13; 14 ]

(* -- fuzzed mutants (the robustness fuzzer's own corpus) ----------------- *)

let fuzz_example (name, lang, src) =
  QCheck.Test.make ~count:60
    ~name:(Printf.sprintf "examples/%s mutants agree" name)
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; String.length src; 131 |] in
      let src = Workloads.mutate rng src in
      match
        Toolkit.capture (fun () -> Toolkit.compile lang Machines.hp3 src)
      with
      | Error _ -> true (* a mutant the frontend rejects is out of scope *)
      | Ok c ->
          outcome ~engine:Toolkit.Interp ~fuel:20_000 c
          = outcome ~engine:Toolkit.Compiled ~fuel:20_000 c)

(* -- interrupts and microtraps ------------------------------------------- *)

(* Poll-point code contains Int_ack words — the compiled engine's
   interpreter-fallback boundary.  The oracle pins the whole
   acknowledgement story: polls counted, latency accounted, pending
   state cleared identically on both sides of the boundary. *)
let test_interrupts () =
  let options = { (opt_options 1) with Pipeline.poll = true } in
  List.iter
    (fun (name, lang, src, setup, d) ->
      let c = Toolkit.compile ~options lang d src in
      (* the poll-compiled program must actually contain fallback words,
         or this test would never cross the engine boundary it's about *)
      let probe = Simc.translate (Toolkit.load c) in
      Alcotest.(check bool)
        (name ^ " has Int_ack fallback words")
        true
        (Simc.fallback_words probe > 0);
      List.iter
        (fun sched ->
          engines_agree
            (Printf.sprintf "%s on %s, interrupts at [%s]" name
               d.Desc.d_name
               (String.concat ";" (List.map string_of_int sched)))
            ~setup:(fun sim ->
              setup sim;
              Sim.schedule_interrupts sim sched)
            c)
        [
          [ 5 ]; [ 1; 2; 3 ]; [ 100; 200; 300; 1000 ];
          Workloads.interrupt_schedule ~seed:42 ~n:12 ~max_cycle:4000;
        ])
    [
      ("simpl_mpy", Toolkit.Simpl, Handcoded.simpl_mpy, mpy_setup,
       Machines.hp3);
      ("yalll_dot", Toolkit.Yalll, Handcoded.yalll_dot, dot_setup,
       Machines.b17);
    ]

let test_microtraps () =
  let c = Toolkit.compile Toolkit.Yalll Machines.hp3 Handcoded.yalll_dot in
  let absent_setup sim =
    dot_setup sim;
    let mem = Sim.memory sim in
    Memory.mark_absent mem ~page:(Memory.page_of mem 1024);
    Memory.mark_absent mem ~page:(Memory.page_of mem 2048)
  in
  (* Restart mode: both engines take the trap, pay the fault penalty,
     service the page and restart at the same pc *)
  engines_agree "dot with absent pages, Restart" ~trap_mode:Sim.Restart
    ~setup:absent_setup c;
  (* Fault_is_error: both engines surface the same located diagnostic *)
  engines_agree "dot with absent pages, Fault_is_error"
    ~trap_mode:Sim.Fault_is_error ~setup:absent_setup c;
  (* V11's dot kernel reads memory in a word that also adds into ACC:
     [rd | add R1, R12], one phase, the read first.  The fault at [rd]
     must discard the phase, so neither engine may leave the add's ACC
     or flags behind. *)
  let d = Machines.v11 in
  let c = Toolkit.compile Toolkit.Yalll d Handcoded.yalll_dot in
  let acc_flags sim =
    Printf.sprintf "ACC=%d flags=%s"
      (Msl_bitvec.Bitvec.to_int (Sim.get_reg sim "ACC"))
      (String.concat ""
         (List.map
            (fun f -> if Sim.get_flag sim f then "1" else "0")
            Rtl.all_flags))
  in
  (* the interpreter, stepped up to the faulting word: how many steps
     that takes, and ACC and the flags before it *)
  let k =
    match
      List.find_index
        (fun (w : Inst.t) ->
          List.exists Inst.op_touches_memory w.Inst.ops
          && List.exists
               (fun (o : Inst.op) ->
                 Inst.op_writes d o = [ (Desc.get_reg d "ACC").Desc.r_id ])
               w.Inst.ops)
        c.Toolkit.c_insts
    with
    | Some k -> k
    | None -> Alcotest.fail "V11 dot has no memory word writing ACC"
  in
  let ref_sim = Toolkit.load c in
  absent_setup ref_sim;
  let steps = ref 0 in
  while Sim.pc ref_sim <> k && !steps < 1000 do
    Sim.step ref_sim;
    incr steps
  done;
  Alcotest.(check int) "the run reaches the word" k (Sim.pc ref_sim);
  Alcotest.(check int) "no trap before the word" 0 (Sim.traps_taken ref_sim);
  let before = acc_flags ref_sim in
  (* the add alone would change ACC: R1 + R12 is not what ACC holds *)
  Alcotest.(check bool)
    "the add would write ACC" true
    (Msl_bitvec.Bitvec.to_int (Sim.get_reg ref_sim "R1")
     + Msl_bitvec.Bitvec.to_int (Sim.get_reg ref_sim "R12")
    <> Msl_bitvec.Bitvec.to_int (Sim.get_reg ref_sim "ACC"));
  List.iter
    (fun (mode, mname) ->
      engines_agree ("V11 dot with absent pages, " ^ mname) ~trap_mode:mode
        ~setup:absent_setup c;
      List.iter
        (fun engine ->
          let sim = Toolkit.load ~trap_mode:mode c in
          absent_setup sim;
          (match Toolkit.exec ~engine ~fuel:(!steps + 1) sim with
          | _ -> ()
          | exception Diag.Error _ -> ());
          Alcotest.(check string)
            (Printf.sprintf "V11 dot, %s: ACC and flags after the fault" mname)
            before (acc_flags sim))
        [ Toolkit.Interp; Toolkit.Compiled ])
    [ (Sim.Restart, "Restart"); (Sim.Fault_is_error, "Fault_is_error") ]

(* -- one translation, many runs (the Sim.reset contract) ------------------ *)

let test_reset_reuses_translation () =
  let c = Toolkit.compile Toolkit.Yalll Machines.hp3 Handcoded.yalll_dot in
  let sim = Toolkit.load c in
  let engine = Simc.translate sim in
  let once () =
    dot_setup sim;
    match Simc.run engine with
    | Sim.Halted -> Sim.state_digest sim
    | Sim.Out_of_fuel -> Alcotest.fail "kernel ran out of fuel"
  in
  let first = once () in
  Sim.reset sim;
  let second = once () in
  Alcotest.(check string)
    "two runs from one translation are byte-identical" first second;
  (* and both match a fresh interpreter run *)
  let sim_i = Toolkit.load c in
  dot_setup sim_i;
  ignore (Sim.run sim_i);
  Alcotest.(check string)
    "and match the interpreter" (Sim.state_digest sim_i) second

(* -- corrupted words --------------------------------------------------- *)

(* A word naming a register the machine does not have (id = the register
   count, as a mutated or corrupted program can) must stop both engines
   with the same located diagnostic and leave the same state behind —
   whether the id is an operand, a branch condition's register or a
   dispatch register. *)
let test_unknown_register () =
  let d = Machines.hp3 in
  let bad = Array.length d.Desc.d_regs in
  let c = Toolkit.compile Toolkit.Yalll d Handcoded.yalll_dot in
  let is_reg = function Inst.A_reg _ -> true | Inst.A_imm _ -> false in
  let has_reg (op : Inst.op) = Array.exists is_reg op.Inst.op_args in
  let k =
    match
      List.find_index
        (fun (w : Inst.t) -> List.exists has_reg w.Inst.ops)
        c.Toolkit.c_insts
    with
    | Some k -> k
    | None -> Alcotest.fail "no word with a register operand"
  in
  let with_word f =
    List.mapi (fun i w -> if i = k then f w else w) c.Toolkit.c_insts
  in
  let corrupt_operand (w : Inst.t) =
    let op = List.find has_reg w.Inst.ops in
    let args = Array.copy op.Inst.op_args in
    args.(Option.get (Array.find_index is_reg args)) <- Inst.A_reg bad;
    let op' = { op with Inst.op_args = args } in
    { w with Inst.ops = List.map (fun o -> if o == op then op' else o) w.ops }
  in
  let variants =
    [
      ("operand", with_word corrupt_operand);
      ( "branch condition",
        with_word (fun w ->
            { w with Inst.next = Inst.Branch (Desc.C_reg_zero (bad, true), 0) })
      );
      ( "dispatch register",
        with_word (fun w ->
            {
              w with
              Inst.next =
                Inst.Dispatch { dreg = bad; hi = 1; lo = 0; base = 0 };
            }) );
    ]
  in
  List.iter
    (fun (what, insts) ->
      let run engine =
        let sim = Sim.create d in
        Sim.load_store sim insts;
        dot_setup sim;
        match Toolkit.exec ~engine ~fuel:100_000 sim with
        | _ -> Alcotest.failf "%s: the run went past the corrupted word" what
        | exception Diag.Error di -> (di.Diag.message, Sim.state_digest sim)
      in
      let msg_i, digest_i = run Toolkit.Interp in
      let msg_c, digest_c = run Toolkit.Compiled in
      Alcotest.(check string)
        (what ^ ": interpreter diagnostic")
        (Printf.sprintf "microop references unknown register id %d" bad)
        msg_i;
      Alcotest.(check string) (what ^ ": same diagnostic") msg_i msg_c;
      Alcotest.(check string) (what ^ ": same state") digest_i digest_c)
    variants

let () =
  Alcotest.run "engine_diff"
    [
      ( "corpus",
        [
          Alcotest.test_case "every examples/* on every machine, -O0/-O1"
            `Quick test_examples;
          Alcotest.test_case "S* kernels with live data (+ out-of-fuel)"
            `Quick test_kernels;
          Alcotest.test_case "hand-assembled reference microcode" `Quick
            test_handcoded;
          Alcotest.test_case "a one-phase register swap falls back" `Quick
            test_swap_word;
          Alcotest.test_case "a 64-bit action reading its own destination"
            `Quick test_wide_self_update;
        ] );
      ( "generated",
        [
          Alcotest.test_case "seeded YALLL corpus x 3 machines" `Quick
            test_generated_yalll;
          Alcotest.test_case "EMPL pressure programs x 2 machines" `Quick
            test_generated_empl;
        ] );
      ( "fuzzed",
        List.map
          (fun e -> QCheck_alcotest.to_alcotest (fuzz_example e))
          example_corpus );
      ( "boundaries",
        [
          Alcotest.test_case "interrupt schedules at poll points" `Quick
            test_interrupts;
          Alcotest.test_case "microtraps in both trap modes" `Quick
            test_microtraps;
          Alcotest.test_case "Sim.reset reuses a translation" `Quick
            test_reset_reuses_translation;
          Alcotest.test_case "unknown register ids fail alike" `Quick
            test_unknown_register;
        ] );
    ]
