(* Constructors for common microoperation templates.

   Machine models differ in fields, units, phases and operand shapes, but
   the RTL semantics of an "add" is the same everywhere; these helpers keep
   the four machine description files free of repeated action lists. *)

open Desc

let fs name v = { fs_field = name; fs_value = Fv_const v }
let fso name i = { fs_field = name; fs_value = Fv_opnd i }

(* Three-operand ALU op: dst, a, b.  Most horizontal machines gate the
   condition-code update, so the default is a quiet (flag-preserving)
   operation; [~set_flags:true] builds the flag-setting variant, which by
   convention is named with an "f" suffix and carries a special sem so
   instruction selection finds it only when flags are wanted. *)
let alu3 ?(extra = 0) ?(cls = "gpr") ?(set_flags = false) ~phase ~unit_
    ~fields name op =
  {
    t_name = name;
    t_sem = (if set_flags then S_special name else S_binop op);
    t_operands = [| opwrite cls; opread ~name:"a" cls; opread ~name:"b" cls |];
    t_result = R_operands;
    t_phase = phase;
    t_units = [ unit_ ];
    t_fields = fields;
    t_actions =
      [
        (if set_flags then Rtl.Arith (Rtl.D_opnd 0, op, Rtl.Opnd 1, Rtl.Opnd 2)
         else Rtl.Arith_nf (Rtl.D_opnd 0, op, Rtl.Opnd 1, Rtl.Opnd 2));
      ];
    t_extra_cycles = extra;
  }

(* Shift by an immediate amount: dst, src, #amount.  Plain shifts leave the
   flags alone so a shift and an ALU op can share a microinstruction; the
   [~set_flags:true] variants update them (needed when the shifted-out "UF"
   bit is tested, as in the survey's SIMPL multiply). *)
let shift_imm ?(cls = "gpr") ?(amt_width = 6) ?(set_flags = false) ~phase
    ~unit_ ~fields name op =
  {
    t_name = name;
    t_sem = (if set_flags then S_special ("f" ^ name) else S_binop op);
    t_operands =
      [| opwrite cls; opread ~name:"src" cls; opimm ~name:"amount" amt_width |];
    t_result = R_operands;
    t_phase = phase;
    t_units = [ unit_ ];
    t_fields = fields;
    t_actions =
      [
        (if set_flags then Rtl.Arith (Rtl.D_opnd 0, op, Rtl.Opnd 1, Rtl.Opnd 2)
         else Rtl.Arith_nf (Rtl.D_opnd 0, op, Rtl.Opnd 1, Rtl.Opnd 2));
      ];
    t_extra_cycles = 0;
  }

(* Register-to-register transfer. *)
let mov ?(cls = "gpr") ~phase ~unit_ ~fields name =
  {
    t_name = name;
    t_sem = S_move;
    t_operands = [| opwrite cls; opread ~name:"src" cls |];
    t_result = R_operands;
    t_phase = phase;
    t_units = [ unit_ ];
    t_fields = fields;
    t_actions = [ Rtl.Assign (Rtl.D_opnd 0, Rtl.Opnd 1) ];
    t_extra_cycles = 0;
  }

(* Load an immediate constant. *)
let ldc ?(cls = "gpr") ~width ~phase ~unit_ ~fields name =
  {
    t_name = name;
    t_sem = S_const;
    t_operands = [| opwrite cls; opimm width |];
    t_result = R_operands;
    t_phase = phase;
    t_units = [ unit_ ];
    t_fields = fields;
    t_actions = [ Rtl.Assign (Rtl.D_opnd 0, Rtl.Zext (64, Rtl.Opnd 1)) ];
    t_extra_cycles = 0;
  }

let unop ?(cls = "gpr") ~sem ~phase ~unit_ ~fields name action =
  {
    t_name = name;
    t_sem = sem;
    t_operands = [| opwrite cls; opread ~name:"src" cls |];
    t_result = R_operands;
    t_phase = phase;
    t_units = [ unit_ ];
    t_fields = fields;
    t_actions = [ action ];
    t_extra_cycles = 0;
  }

let not_ ?cls ~phase ~unit_ ~fields name =
  unop ?cls ~sem:S_not ~phase ~unit_ ~fields name
    (Rtl.Arith_nf (Rtl.D_opnd 0, Rtl.A_xor, Rtl.Not (Rtl.Opnd 1),
       Rtl.Const (Msl_bitvec.Bitvec.zero 64)))

(* neg dst, src: two's complement via 0 - src. *)
let neg ?cls ~phase ~unit_ ~fields name =
  unop ?cls ~sem:S_neg ~phase ~unit_ ~fields name
    (Rtl.Arith_nf (Rtl.D_opnd 0, Rtl.A_sub,
       Rtl.Const (Msl_bitvec.Bitvec.zero 64), Rtl.Opnd 1))

(* Increment/decrement on the counter unit: quiet, so a loop-control
   bump can share a word with an ALU operation. *)
let inc ?cls ~phase ~unit_ ~fields name =
  unop ?cls ~sem:S_inc ~phase ~unit_ ~fields name
    (Rtl.Arith_nf (Rtl.D_opnd 0, Rtl.A_add, Rtl.Opnd 1,
       Rtl.Const (Msl_bitvec.Bitvec.of_int ~width:64 1)))

let dec ?cls ~phase ~unit_ ~fields name =
  unop ?cls ~sem:S_dec ~phase ~unit_ ~fields name
    (Rtl.Arith_nf (Rtl.D_opnd 0, Rtl.A_sub, Rtl.Opnd 1,
       Rtl.Const (Msl_bitvec.Bitvec.of_int ~width:64 1)))

(* test src: flags := flags of (src OR 0); no register written. *)
let test ?(cls = "gpr") ~phase ~unit_ ~fields name =
  {
    t_name = name;
    t_sem = S_test;
    t_operands = [| opread ~name:"src" cls |];
    t_result = R_none;
    t_phase = phase;
    t_units = [ unit_ ];
    t_fields = fields;
    t_actions =
      [ Rtl.Arith_flags (Rtl.A_or, Rtl.Opnd 0,
          Rtl.Const (Msl_bitvec.Bitvec.zero 64)) ];
    t_extra_cycles = 0;
  }

(* MBR := mem[MAR] with fixed register names. *)
let rd ~mar ~mbr ~phase ~unit_ ~fields ~extra name =
  {
    t_name = name;
    t_sem = S_mem_read;
    t_operands = [||];
    t_result = R_reg mbr;
    t_phase = phase;
    t_units = [ unit_ ];
    t_fields = fields;
    t_actions = [ Rtl.Mem_read (Rtl.D_reg mbr, Rtl.Reg mar) ];
    t_extra_cycles = extra;
  }

let wr ~mar ~mbr ~phase ~unit_ ~fields ~extra name =
  {
    t_name = name;
    t_sem = S_mem_write;
    t_operands = [||];
    t_result = R_none;
    t_phase = phase;
    t_units = [ unit_ ];
    t_fields = fields;
    t_actions = [ Rtl.Mem_write (Rtl.Reg mar, Rtl.Reg mbr) ];
    t_extra_cycles = extra;
  }

(* Register-addressed memory access: dst := mem[addr] / mem[addr] := src. *)
let rdr ?(cls = "gpr") ~phase ~unit_ ~fields ~extra name =
  {
    t_name = name;
    t_sem = S_mem_read;
    t_operands = [| opwrite cls; opread ~name:"addr" cls |];
    t_result = R_operands;
    t_phase = phase;
    t_units = [ unit_ ];
    t_fields = fields;
    t_actions = [ Rtl.Mem_read (Rtl.D_opnd 0, Rtl.Opnd 1) ];
    t_extra_cycles = extra;
  }

let wrr ?(cls = "gpr") ~phase ~unit_ ~fields ~extra name =
  {
    t_name = name;
    t_sem = S_mem_write;
    t_operands = [| opread ~name:"addr" cls; opread ~name:"src" cls |];
    t_result = R_none;
    t_phase = phase;
    t_units = [ unit_ ];
    t_fields = fields;
    t_actions = [ Rtl.Mem_write (Rtl.Opnd 0, Rtl.Opnd 1) ];
    t_extra_cycles = extra;
  }

let nop name =
  {
    t_name = name;
    t_sem = S_nop;
    t_operands = [||];
    t_result = R_none;
    t_phase = 0;
    t_units = [];
    t_fields = [];
    t_actions = [];
    t_extra_cycles = 0;
  }

(* Acknowledge a pending interrupt (survey §2.1.5). *)
let intack ~phase ~fields name =
  {
    t_name = name;
    t_sem = S_special "intack";
    t_operands = [||];
    t_result = R_none;
    t_phase = phase;
    t_units = [];
    t_fields = fields;
    t_actions = [ Rtl.Int_ack ];
    t_extra_cycles = 0;
  }
