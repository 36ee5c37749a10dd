(* Tests for the S* frontend (survey §2.2.3): the paper's MPY example with
   its cocycle/cobegin composition, the datatype constructors, and the
   Hoare-style verifier. *)

open Msl_bitvec
open Msl_machine
module Sstar = Msl_sstar
module Diag = Msl_util.Diag

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let compile_run ?(setup = fun _ -> ()) d src =
  let prog = Sstar.Parser.parse src in
  let sim, _ = Sstar.Compile.load d prog in
  setup sim;
  (match Sim.run sim with
  | Sim.Halted -> ()
  | Sim.Out_of_fuel -> Alcotest.fail "program did not halt");
  sim

(* The survey's example: multiplication by repeated addition, with the
   microinstructions composed by the programmer (cocycle / cobegin),
   instantiated for the 3-phase H1. *)
let mpy_src =
  "program MPY;\n\
   var left_alu_in : seq [63..0] bit at R4;\n\
   var right_alu_in : seq [63..0] bit at R5;\n\
   var aluout : seq [63..0] bit at R6;\n\
   var localstore : array [0..2] of seq [63..0] bit at regs R1, R2, R3;\n\
   const minus1 = dec (64) -1 at R8;\n\
   syn mpr = localstore[0], mpnd = localstore[1], product = localstore[2];\n\
   begin\n\
  \  repeat\n\
  \    cocycle\n\
  \      cobegin left_alu_in := product; right_alu_in := mpnd coend;\n\
  \      aluout := left_alu_in + right_alu_in;\n\
  \      product := aluout\n\
  \    end;\n\
  \    cocycle\n\
  \      cobegin left_alu_in := mpr; right_alu_in := minus1 coend;\n\
  \      aluout := left_alu_in + right_alu_in;\n\
  \      mpr := aluout\n\
  \    end\n\
  \  until aluout = 0\n\
   end\n"

let run_mpy mpr mpnd =
  let d = Machines.h1 in
  let sim =
    compile_run d mpy_src ~setup:(fun sim ->
        Sim.set_reg_int sim "R1" mpr;
        Sim.set_reg_int sim "R2" mpnd;
        Sim.set_reg_int sim "R3" 0)
  in
  (Bitvec.to_int (Sim.get_reg sim "R3"), sim)

let test_mpy () =
  List.iter
    (fun (a, b) ->
      let got, _ = run_mpy a b in
      check_int (Printf.sprintf "%d * %d" a b) (a * b) got)
    [ (1, 9); (2, 21); (7, 13); (12, 12); (30, 1) ]

let test_mpy_composition_density () =
  (* the whole loop body is two hand-composed microinstructions: per
     iteration the simulator must execute exactly 2 *)
  let _, sim = run_mpy 10 3 in
  (* 2 constant-prologue words (the 64-bit -1 needs ldc+orh), 2 words per
     iteration * 10 iterations, and the final halt word *)
  check_int "microinstructions executed" (2 + (2 * 10) + 1)
    (Sim.insts_executed sim)

(* The same algorithm instantiated for a different machine: S(HP3) at the
   16-bit width, sequential (HP3 has no three ascending transfer phases).
   "S* is described as a language schema, rather than a complete
   language" — this is the second instantiation. *)
let test_mpy_second_instantiation () =
  let d = Machines.hp3 in
  let src =
    "program MPY16;\n\
     var mpr : seq [15..0] bit at R1;\n\
     var mpnd : seq [15..0] bit at R2;\n\
     var product : seq [15..0] bit at R3;\n\
     begin\n\
    \  product := 0;\n\
    \  while mpr <> 0 inv { true } do\n\
    \    product := product + mpnd;\n\
    \    mpr := mpr - 1\n\
    \  od\n\
     end\n"
  in
  let sim =
    compile_run d src ~setup:(fun sim ->
        Sim.set_reg_int sim "R1" 23;
        Sim.set_reg_int sim "R2" 19)
  in
  check_int "S(HP3) 23*19" (23 * 19) (Bitvec.to_int (Sim.get_reg sim "R3"))

(* region: a hand-optimised section compiles as written, one word per
   statement, in order *)
let test_region () =
  let d = Machines.hp3 in
  let src =
    "program RGN;\n\
     var a : seq [15..0] bit at R1;\n\
     var b : seq [15..0] bit at R2;\n\
     begin\n\
    \  region\n\
    \    a := 7;\n\
    \    b := a + a;\n\
    \    a := b + a\n\
    \  end\n\
     end\n"
  in
  let sim = compile_run d src in
  check_int "region result" 21 (Bitvec.to_int (Sim.get_reg sim "R1"))

(* -- data structuring --------------------------------------------------------- *)

let test_tuple_fields () =
  (* the survey's instruction-register example: opcode and address fields
     of one register, plus the whole-tuple concatenation view *)
  let d = Machines.hp3 in
  let src =
    "program IRDEMO;\n\
     var ir : tuple opcode : seq [15..12] bit; addr : seq [11..0] bit end at R1;\n\
     var op : seq [3..0] bit at R2;\n\
     var ad : seq [11..0] bit at R3;\n\
     begin\n\
    \  op := ir.opcode;\n\
    \  ad := ir.addr;\n\
    \  ir.opcode := op + 1\n\
     end\n"
  in
  let sim =
    compile_run d src ~setup:(fun sim -> Sim.set_reg_int sim "R1" 0xA123)
  in
  check_int "opcode extracted" 0xA (Bitvec.to_int (Sim.get_reg sim "R2"));
  check_int "addr extracted" 0x123 (Bitvec.to_int (Sim.get_reg sim "R3"));
  check_int "field insert" 0xB123 (Bitvec.to_int (Sim.get_reg sim "R1"))

let test_memory_array_and_syn () =
  let d = Machines.hp3 in
  let src =
    "program ARR;\n\
     var buf : array [0..7] of seq [15..0] bit at mem 600;\n\
     var i : seq [15..0] bit at R1;\n\
     var x : seq [15..0] bit at R2;\n\
     syn first = buf[0];\n\
     begin\n\
    \  first := 41;\n\
    \  x := first;\n\
    \  x := x + 1;\n\
    \  buf[i] := x;\n\
    \  x := buf[7]\n\
     end\n"
  in
  let sim =
    compile_run d src ~setup:(fun sim -> Sim.set_reg_int sim "R1" 7)
  in
  check_int "const-index write" 41
    (Bitvec.to_int (Memory.peek (Sim.memory sim) 600));
  check_int "var-index write" 42
    (Bitvec.to_int (Memory.peek (Sim.memory sim) 607));
  check_int "read back" 42 (Bitvec.to_int (Sim.get_reg sim "R2"))

let test_stack () =
  let d = Machines.hp3 in
  let src =
    "program STK;\n\
     var sp : seq [15..0] bit at R7;\n\
     var s : stack [8] of seq [15..0] bit with sp at mem 700;\n\
     var x : seq [15..0] bit at R1;\n\
     var y : seq [15..0] bit at R2;\n\
     begin\n\
    \  sp := 0;\n\
    \  x := 11;\n\
    \  push(s, x);\n\
    \  x := 22;\n\
    \  push(s, x);\n\
    \  pop(s, y);\n\
    \  pop(s, x);\n\
    \  y := y - x\n\
     end\n"
  in
  let sim = compile_run d src in
  (* y = 22 - 11 = 11 *)
  check_int "stack LIFO" 11 (Bitvec.to_int (Sim.get_reg sim "R2"))

let test_if_elif_while_proc () =
  let d = Machines.hp3 in
  let src =
    "program CTRL;\n\
     var x : seq [15..0] bit at R1;\n\
     var y : seq [15..0] bit at R2;\n\
     proc bump (uses y);\n\
     begin y := y + 1 end;\n\
     begin\n\
    \  y := 0;\n\
    \  while x <> 0 inv { true } do\n\
    \    call bump;\n\
    \    x := x - 1\n\
    \  od;\n\
    \  if y = 0 then y := 100\n\
    \  elif x = 0 then y := y + 50\n\
    \  else y := 7 fi\n\
     end\n"
  in
  let sim =
    compile_run d src ~setup:(fun sim -> Sim.set_reg_int sim "R1" 4)
  in
  check_int "4 bumps then +50" 54 (Bitvec.to_int (Sim.get_reg sim "R2"))

let test_dur_overlap () =
  (* dur: H1's multi-cycle multiply overlapping a transfer *)
  let d = Machines.h1 in
  let src =
    "program OVERLAP;\n\
     var a : seq [63..0] bit at R1;\n\
     var b : seq [63..0] bit at R2;\n\
     var p : seq [63..0] bit at R3;\n\
     var x : seq [63..0] bit at R4;\n\
     begin\n\
    \  dur p := a * b do\n\
    \    x := a\n\
    \  end\n\
     end\n"
  in
  let prog = Sstar.Parser.parse src in
  let insts, _ = Sstar.Compile.compile d prog in
  (* one word: the merged MI, which also carries the halt *)
  check_int "dur merged into one word" 1 (List.length insts);
  let sim = compile_run d src ~setup:(fun sim ->
      Sim.set_reg_int sim "R1" 6;
      Sim.set_reg_int sim "R2" 7) in
  check_int "product" 42 (Bitvec.to_int (Sim.get_reg sim "R3"));
  check_int "overlapped transfer" 6 (Bitvec.to_int (Sim.get_reg sim "R4"))

let expect_diag phase f =
  match f () with
  | exception Diag.Error dg when dg.Diag.phase = phase -> ()
  | exception Diag.Error dg ->
      Alcotest.failf "wrong phase: %s" (Diag.to_string dg)
  | _ -> Alcotest.fail "expected a diagnostic"

let test_composition_errors () =
  let d = Machines.hp3 in
  (* two ALU operations cannot share a microinstruction *)
  expect_diag Diag.Compaction (fun () ->
      Sstar.Compile.parse_compile d
        "program BAD;\n\
         var a : seq [15..0] bit at R1;\n\
         var b : seq [15..0] bit at R2;\n\
         begin cobegin a := a + b; b := b + a coend end\n");
  (* multi-op statement inside cobegin *)
  expect_diag Diag.Instantiation (fun () ->
      Sstar.Compile.parse_compile d
        "program BAD2;\n\
         var m : seq [15..0] bit at mem 100;\n\
         var a : seq [15..0] bit at R1;\n\
         begin cobegin m := a; a := a coend end\n");
  (* unknown binding register *)
  expect_diag Diag.Instantiation (fun () ->
      Sstar.Compile.parse_compile d
        "program BAD3;\nvar a : seq [15..0] bit at ZORK;\nbegin a := a end\n");
  (* V11 cannot test register-zero: S* refuses *)
  expect_diag Diag.Instantiation (fun () ->
      Sstar.Compile.parse_compile Machines.v11
        "program BAD4;\nvar a : seq [15..0] bit at R1;\n\
         begin while a <> 0 inv { true } do a := a - 1 od end\n")

(* -- verification --------------------------------------------------------------- *)

let verify d src = Sstar.Verify.verify d (Sstar.Parser.parse src)

(* Each VC's verdict, pinned: [P]roved, [U]nknown or [R]efuted. *)
let check_verdicts expected (r : Sstar.Verify.report) =
  Alcotest.(check (list (pair string string)))
    "verdicts" expected
    (List.map
       (fun (name, v) ->
         ( name,
           match v with
           | Symexec.Proved -> "P"
           | Symexec.Unknown -> "U"
           | Symexec.Refuted _ -> "R" ))
       r.Sstar.Verify.results)

(* The survey's INC semantics in an instantiation: wraparound at the
   declared width is part of the machine-level meaning. *)
let test_verify_inc_wraps () =
  let d = Machines.hp3 in
  let r =
    verify d
      "program INC1;\n\
       var x : seq [15..0] bit at R1;\n\
       pre { x = 65535 };\n\
       post { x = 0 };\n\
       begin x := x + 1 end\n"
  in
  check_bool "wrap proved" true (Sstar.Verify.ok r);
  check_verdicts [ ("pre-entry#1", "P") ] r

let test_verify_refutes () =
  let d = Machines.hp3 in
  let src =
    "program INC2;\n\
     var x : seq [15..0] bit at R1;\n\
     pre { true };\n\
     post { x > 0 };\n\
     begin x := x + 1 end\n"
  in
  let r = verify d src in
  (* x = 65535 wraps to 0: the claim is false *)
  check_verdicts [ ("pre-entry#1", "R") ] r;
  check_bool "not ok" false (Sstar.Verify.ok r);
  (* the counterexample names the register as Symexec does, so it replays
     on the simulator — and the compiled program breaks x > 0 there *)
  match r.Sstar.Verify.results with
  | [ (_, Symexec.Refuted cx) ] ->
      let sim =
        compile_run
          ~setup:(fun sim -> Msl_core.Workloads.apply_assignment d sim cx)
          d src
      in
      check_int "x wrapped to 0" 0 (Bitvec.to_int (Sim.get_reg sim "R1"))
  | _ -> Alcotest.fail "expected one refuted VC"

let test_verify_guarded_inc () =
  (* the paper's modified rule: {x+1 = v and v < 32768} INC x {x = v},
     phrased without ghosts: below 32768 the increment is exact *)
  let d = Machines.hp3 in
  let r =
    verify d
      "program INC3;\n\
       var x : seq [15..0] bit at R1;\n\
       var y : seq [15..0] bit at R2;\n\
       pre { x < 32768 };\n\
       post { y = x + 1 and y > x };\n\
       begin y := x + 1 end\n"
  in
  check_bool "guarded increment proved" true (Sstar.Verify.ok r);
  check_verdicts [ ("pre-entry#1", "P") ] r

let test_verify_while_invariant () =
  let d = Machines.hp3 in
  let r =
    verify d
      "program ZERO;\n\
       var x : seq [7..0] bit at R1;\n\
       pre { x < 100 };\n\
       post { x = 0 };\n\
       begin\n\
      \  while x <> 0 inv { x < 100 } do x := x - 1 od\n\
       end\n"
  in
  check_bool "loop proved" true (Sstar.Verify.ok r);
  check_verdicts
    [ ("while-preserve#1", "P"); ("while-exit#2", "P"); ("pre-entry#3", "P") ]
    r

let test_verify_bad_invariant () =
  let d = Machines.hp3 in
  let r =
    verify d
      "program ZERO2;\n\
       var x : seq [7..0] bit at R1;\n\
       pre { x < 100 };\n\
       post { x = 1 };\n\
       begin\n\
      \  while x <> 0 inv { x < 100 } do x := x - 1 od\n\
       end\n"
  in
  (* exit gives x = 0, not 1 *)
  check_verdicts
    [ ("while-preserve#1", "P"); ("while-exit#2", "R"); ("pre-entry#3", "P") ]
    r

let test_verify_cobegin_simultaneous () =
  (* swap via cobegin: simultaneous substitution semantics *)
  let d = Machines.hp3 in
  let r =
    verify d
      "program SWAP;\n\
       var a : seq [7..0] bit at R1;\n\
       var b : seq [7..0] bit at R2;\n\
       pre { a = 3 and b = 9 };\n\
       post { a = 9 and b = 3 };\n\
       begin cobegin a := b; b := a coend end\n"
  in
  check_bool "parallel swap proved" true (Sstar.Verify.ok r);
  check_verdicts [ ("pre-entry#1", "P") ] r

let test_verify_unsupported_reported () =
  let d = Machines.hp3 in
  let r =
    verify d
      "program NOINV;\n\
       var x : seq [7..0] bit at R1;\n\
       begin while x <> 0 do x := x - 1 od end\n"
  in
  check_bool "missing invariant reported" true (r.Sstar.Verify.failure <> None)

(* The multiply loop's functional-correctness VCs: n0 is a register the
   loop never writes, standing for the initial multiplier (the ghost the
   classical proof needs).  Four 16-bit variables are beyond the
   exhaustive budget, so the right invariant is Unknown — never refuted —
   while a wrong one is refuted. *)
let test_verify_mpy_correct () =
  let d = Machines.hp3 in
  let r =
    verify d
      "program MPYPROOF;\n\
       var mpr : seq [15..0] bit at R1;\n\
       var mpnd : seq [15..0] bit at R2;\n\
       var product : seq [15..0] bit at R3;\n\
       var n0 : seq [15..0] bit at R4;\n\
       pre { mpr = n0 and product = 0 };\n\
       post { product = n0 * mpnd };\n\
       begin\n\
      \  while mpr <> 0 inv { product = (n0 - mpr) * mpnd } do\n\
      \    product := product + mpnd;\n\
      \    mpr := mpr - 1\n\
      \  od\n\
       end\n"
  in
  (* 64 live bits: nothing refutes it, but nothing proves it either *)
  check_bool "multiply loop not refuted" true (Sstar.Verify.ok r);
  check_verdicts
    [ ("while-preserve#1", "U"); ("while-exit#2", "U"); ("pre-entry#3", "U") ]
    r;
  (* and a wrong invariant is caught *)
  let bad =
    verify d
      "program MPYBAD;\n\
       var mpr : seq [15..0] bit at R1;\n\
       var mpnd : seq [15..0] bit at R2;\n\
       var product : seq [15..0] bit at R3;\n\
       var n0 : seq [15..0] bit at R4;\n\
       pre { mpr = n0 and product = 0 };\n\
       post { product = n0 * mpnd };\n\
       begin\n\
      \  while mpr <> 0 inv { product = (n0 - mpr) * mpnd } do\n\
      \    product := product + mpnd;\n\
      \    mpr := mpr - 1;\n\
      \    product := product + 1\n\
      \  od\n\
       end\n"
  in
  check_verdicts
    [ ("while-preserve#1", "R"); ("while-exit#2", "U"); ("pre-entry#3", "U") ]
    bad

let test_verify_assert_cut () =
  let d = Machines.hp3 in
  let r =
    verify d
      "program CUT;\n\
       var x : seq [7..0] bit at R1;\n\
       pre { x = 1 };\n\
       post { x = 4 };\n\
       begin\n\
      \  x := x + 1;\n\
      \  assert { x = 2 };\n\
      \  x := x + x\n\
       end\n"
  in
  check_bool "assert cut proved" true (Sstar.Verify.ok r);
  check_verdicts [ ("assert#1", "P"); ("pre-entry#2", "P") ] r

let () =
  Alcotest.run "sstar"
    [
      ( "paper example",
        [
          Alcotest.test_case "MPY multiply" `Quick test_mpy;
          Alcotest.test_case "MPY composition density" `Quick
            test_mpy_composition_density;
          Alcotest.test_case "MPY second instantiation" `Quick
            test_mpy_second_instantiation;
          Alcotest.test_case "region" `Quick test_region;
        ] );
      ( "language",
        [
          Alcotest.test_case "tuple fields" `Quick test_tuple_fields;
          Alcotest.test_case "memory arrays and syn" `Quick
            test_memory_array_and_syn;
          Alcotest.test_case "stack" `Quick test_stack;
          Alcotest.test_case "control structure" `Quick
            test_if_elif_while_proc;
          Alcotest.test_case "dur overlap" `Quick test_dur_overlap;
          Alcotest.test_case "composition errors" `Quick
            test_composition_errors;
        ] );
      ( "verification",
        [
          Alcotest.test_case "INC wraps" `Quick test_verify_inc_wraps;
          Alcotest.test_case "refutation" `Quick test_verify_refutes;
          Alcotest.test_case "guarded increment" `Quick
            test_verify_guarded_inc;
          Alcotest.test_case "while invariant" `Quick
            test_verify_while_invariant;
          Alcotest.test_case "bad invariant" `Quick test_verify_bad_invariant;
          Alcotest.test_case "cobegin simultaneity" `Quick
            test_verify_cobegin_simultaneous;
          Alcotest.test_case "unsupported reported" `Quick
            test_verify_unsupported_reported;
          Alcotest.test_case "assert cut" `Quick test_verify_assert_cut;
          Alcotest.test_case "MPY proved correct" `Quick
            test_verify_mpy_correct;
        ] );
    ]
