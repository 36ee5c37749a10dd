(* S* with verification (§2.2.3): the paper's MPY program running on H1
   with programmer-composed microinstructions, plus a small annotated
   program whose proof obligations are checked over machine arithmetic
   (including the survey's INC-overflow subtlety), with the proved,
   unknown and refuted counts reported as they are.

     dune exec examples/verified_multiply.exe *)

open Msl_bitvec
open Msl_machine
module Sstar = Msl_sstar

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

let verified_src =
  "program GAUSS;\n\
   var x : seq [7..0] bit at R1;\n\
   var sum : seq [15..0] bit at R2;\n\
   pre { x = 10 and sum = 0 };\n\
   post { sum = 55 and x = 0 };\n\
   begin\n\
  \  while x <> 0 inv { sum + (x * x + x) ^ -1 = 55 and x <= 10 } do\n\
  \    sum := sum + x;\n\
  \    x := x - 1\n\
  \  od\n\
   end\n"

let () =
  let d = Machines.h1 in
  Fmt.pr "== The survey's MPY program (explicit cocycle composition) ==@.";
  let prog = Sstar.Parser.parse mpy_src in
  let sim, _ = Sstar.Compile.load d prog in
  Sim.set_reg_int sim "R1" 12;
  Sim.set_reg_int sim "R2" 34;
  (match Sim.run sim with
  | Sim.Halted -> ()
  | Sim.Out_of_fuel -> failwith "did not halt");
  Fmt.pr "12 * 34 = %d, computed in %d microinstructions (%d cycles)@.@."
    (Bitvec.to_int (Sim.get_reg sim "R3"))
    (Sim.insts_executed sim) (Sim.cycles sim);
  Fmt.pr "== Annotated summation (Hoare-style, machine arithmetic) ==@.";
  let vd = Machines.hp3 in
  let report = Sstar.Verify.verify vd (Sstar.Parser.parse verified_src) in
  (* 24 live bits exceed the 18-bit exhaustive budget: the obligations
     survive every sampled and corner-value store, which is not a proof *)
  Fmt.pr "%a@." Sstar.Verify.pp_report report;
  Fmt.pr "verdict: %s@."
    (if not (Sstar.Verify.ok report) then "verification FAILED"
     else if report.Sstar.Verify.unknown = 0 then "every obligation proved"
     else "nothing refuted, but the unknown obligations are not proved");
  (* and the survey's wraparound point: an unguarded increment claim is
     refutable in 16-bit machine arithmetic *)
  let bogus =
    "program INC;\nvar x : seq [15..0] bit at R1;\npre { true };\n\
     post { x > 0 };\nbegin x := x + 1 end\n"
  in
  let r2 = Sstar.Verify.verify vd (Sstar.Parser.parse bogus) in
  Fmt.pr "@.%a@." Sstar.Verify.pp_report r2;
  Fmt.pr "unguarded INC claim (x+1 > 0): %s@."
    (if Sstar.Verify.ok r2 then "proved (unexpected!)"
     else "refuted, as the survey's modified INC rule predicts")
