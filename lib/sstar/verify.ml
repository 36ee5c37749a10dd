(* Bounded Hoare-logic verification of S* programs.

   S* attaches pre- and postconditions to statements so that "program
   correctness can be determined and understood without reference to any
   control store organization" (survey §2.2.3); Strum (§2.2.5) built a
   development system around machine-checked verification conditions.

   This verifier:
   - computes weakest preconditions backward through straight-line code,
     if/elif/else, cobegin (simultaneous assignment), cocycle and dur
     (sequential semantics), begin/region groups;
   - requires an [inv { ... }] annotation on every loop and emits the
     classical invariant VCs;
   - treats [assert { A }] as a cut point;
   - builds each VC as a 1-bit {!Symexec} term over *machine arithmetic*
     (fixed-width, wrapping bitvectors — exactly the "allowance for the
     possibility of overflow" the survey describes for instantiated
     semantics) and discharges it with [Symexec.decide], the decision
     procedure the translation validator uses: a proof by exhaustive
     enumeration when the live variables span at most [budget_bits] bits,
     otherwise a refutation or an honest Unknown.

   Limitations (reported, never silently ignored): flag tests, stacks,
   procedure calls and run-time-indexed arrays are outside the assertion
   language. *)

open Msl_bitvec
open Msl_machine
module Diag = Msl_util.Diag
module Loc = Msl_util.Loc

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun m -> raise (Unsupported m)) fmt

(* -- terms over a store --------------------------------------------------- *)

(* The store maps each storage location assigned so far to its value.
   Program variables are storage locations, so syn aliases of one
   register meet in one variable; a location never assigned reads as its
   initial value, a free variable named as [Symexec] names a region's
   inputs, so a register counterexample replays on the simulator. *)
module Store = Map.Make (struct
  type t = Compile.storage

  let compare = compare
end)

(* An expression or a formula (a 1-bit term) as a function of the store
   it is read in: the weakest precondition of an assignment is the
   postcondition read in the updated store, so there is no substitution
   pass. *)
type term = Symexec.t Store.t -> Symexec.t

type wpctx = {
  env : Compile.env;
  tm : Symexec.ctx;
  mutable vcs : (string * term) list;
  mutable count : int;
}

let emit_vc c name f =
  c.count <- c.count + 1;
  c.vcs <- (Printf.sprintf "%s#%d" name c.count, f) :: c.vcs

let var_name (d : Desc.t) = function
  | Compile.Sreg r -> Symexec.reg_var_name d.Desc.d_regs.(r).Desc.r_name
  | Compile.Sregfield (r, hi, lo) ->
      Printf.sprintf "%s[%d:%d]"
        (Symexec.reg_var_name d.Desc.d_regs.(r).Desc.r_name)
        hi lo
  | Compile.Smem a -> Printf.sprintf "m:%d" a
  | Compile.Smem_dyn _ ->
      unsupported "run-time-indexed array element in an assertion"

(* A program variable: its storage location, its declared width, and its
   value in a store. *)
let location c loc r =
  let st, w = Compile.resolve c.env loc r in
  let name = var_name c.env.Compile.d st in
  ( st,
    w,
    fun s ->
      match Store.find_opt st s with
      | Some t -> t
      | None -> Symexec.var c.tm name w )

let value c loc r =
  let _, _, v = location c loc r in
  v

let constant c v : term =
  let t = Symexec.const c.tm v in
  fun _ -> t

let const64 c v = constant c (Bitvec.of_int64 ~width:64 v)

(* Constants fold to their values; other refs read the store. *)
let read c loc r : term =
  match Compile.const_value c.env r with
  | Some v -> constant c v
  | None -> value c loc r

(* The left operand's width wins; the right operand (often a 64-bit
   literal) is resized to it. *)
let binop c f (a : term) (b : term) : term =
 fun s ->
  let a = a s in
  f c.tm a (Symexec.zext c.tm a.Symexec.width (b s))

let arith c ~adc (op : Ast.sbinop) a b =
  match op with
  | Ast.Sadd -> binop c Symexec.add a b
  | Ast.Ssub -> binop c Symexec.sub a b
  | Ast.Smul -> binop c Symexec.mul a b
  | Ast.Sand -> binop c Symexec.logand a b
  | Ast.Sor -> binop c Symexec.logor a b
  | Ast.Sxor -> binop c Symexec.logxor a b
  | Ast.Sadc -> unsupported "%s" adc

(* Shifts and rotates by a constant, exact at the operand's width as
   [Bitvec.shift_left]/[shift_right]/[rotate_left] compute them: a shift
   by the width or more clears the word. *)
let shift tm ~left (a : Symexec.t) n =
  let w = a.Symexec.width in
  if n <= 0 then a
  else if n >= w then Symexec.const tm (Bitvec.zero w)
  else if left then
    Symexec.mul tm a
      (Symexec.const tm (Bitvec.shift_left (Bitvec.of_int ~width:w 1) n))
  else Symexec.zext tm w (Symexec.slice tm a ~hi:(w - 1) ~lo:n)

let rol tm (a : Symexec.t) n =
  let w = a.Symexec.width in
  let n = ((n mod w) + w) mod w in
  if n = 0 then a
  else
    Symexec.logor tm (shift tm ~left:true a n) (shift tm ~left:false a (w - n))

let unary c f (a : term) : term = fun s -> f c.tm (a s)
let shifted c ~left n (a : term) : term = fun s -> shift c.tm ~left (a s) n

let rec fexpr c loc (e : Ast.fexpr) : term =
  match e with
  | Ast.Fref r -> read c loc r
  | Ast.Fnum v -> const64 c v
  | Ast.Fbin (op, a, b) ->
      arith c ~adc:"carry arithmetic in assertions" op (fexpr c loc a)
        (fexpr c loc b)
  | Ast.Fmul (a, b) -> binop c Symexec.mul (fexpr c loc a) (fexpr c loc b)
  | Ast.Fshl (a, n) -> shifted c ~left:true n (fexpr c loc a)
  | Ast.Fshr (a, n) -> shifted c ~left:false n (fexpr c loc a)
  | Ast.Fnotb a -> unary c Symexec.lognot (fexpr c loc a)

let operand c loc (o : Ast.operand) =
  match o with Ast.Onum v -> const64 c v | Ast.Oref r -> read c loc r

let expr c loc (e : Ast.expr) : term =
  match e with
  | Ast.Eop o -> operand c loc o
  | Ast.Ebin (op, a, b) ->
      arith c ~adc:"adc in verified code" op (operand c loc a)
        (operand c loc b)
  | Ast.Enot a -> unary c Symexec.lognot (operand c loc a)
  | Ast.Eshift (a, n) -> shifted c ~left:(n >= 0) (abs n) (operand c loc a)
  | Ast.Erotate (a, n) -> unary c (fun tm a -> rol tm a n) (operand c loc a)

(* -- formulas: 1-bit terms ------------------------------------------------- *)

let true_ c = constant c (Bitvec.of_bool true)

(* The connectives are multiplexers, so evaluation short-circuits: a
   false antecedent never evaluates its consequent. *)
let not_ c (a : term) : term = unary c Symexec.lognot a
let false_ c = not_ c (true_ c)
let if_ c (a : term) b e : term = fun s -> Symexec.mux c.tm (a s) (b s) (e s)
let and_ c a b = if_ c a b (false_ c)
let or_ c a b = if_ c a (true_ c) b
let imp c a b = if_ c a b (true_ c)

(* Unsigned comparisons are the flags of a subtraction: Z is equality,
   C the borrow, i.e. less-than. *)
let rel c (r : Ast.frel) (a : term) (b : term) : term =
 fun s ->
  let tm = c.tm in
  let a = a s in
  let b = Symexec.zext tm a.Symexec.width (b s) in
  let no_carry = Symexec.const_int tm ~width:1 0 in
  let flag fl = Symexec.alu_flag tm fl Rtl.A_sub a b ~carry:no_carry in
  let le () = Symexec.logor tm (flag Rtl.C) (flag Rtl.Z) in
  match r with
  | Ast.FReq -> flag Rtl.Z
  | Ast.FRne -> Symexec.lognot tm (flag Rtl.Z)
  | Ast.FRlt -> flag Rtl.C
  | Ast.FRge -> Symexec.lognot tm (flag Rtl.C)
  | Ast.FRle -> le ()
  | Ast.FRgt -> Symexec.lognot tm (le ())

let rec formula c loc (f : Ast.formula) : term =
  match f with
  | Ast.Ftrue -> true_ c
  | Ast.Ffalse -> false_ c
  | Ast.Frel (r, a, b) -> rel c r (fexpr c loc a) (fexpr c loc b)
  | Ast.Fand (a, b) -> and_ c (formula c loc a) (formula c loc b)
  | Ast.For (a, b) -> or_ c (formula c loc a) (formula c loc b)
  | Ast.Fnot a -> not_ c (formula c loc a)
  | Ast.Fimp (a, b) -> imp c (formula c loc a) (formula c loc b)

let test c loc (t : Ast.test) =
  match t with
  | Ast.Tzero r -> rel c Ast.FReq (value c loc r) (const64 c 0L)
  | Ast.Tnonzero r -> rel c Ast.FRne (value c loc r) (const64 c 0L)
  | Ast.Tflag (f, _) ->
      unsupported "flag test %s (the verifier models registers, not flags)" f

(* -- weakest preconditions --------------------------------------------------------- *)

(* One assignment as a (location, value) binding; the value wraps to the
   destination's declared width, which is where the instantiated overflow
   semantics (the survey's modified INC rule) comes from. *)
let binding c loc r e =
  let st, w, _ = location c loc r in
  let v = expr c loc e in
  (st, fun s -> Symexec.zext c.tm w (v s))

(* Simultaneous assignment: every value is read in the old store; on a
   repeated destination the first binding wins. *)
let assign bindings (q : term) : term =
 fun s ->
  q (List.fold_right (fun (st, v) s' -> Store.add st (v s) s') bindings s)

let rec wp c (s : Ast.stmt) (q : term) : term =
  match s with
  | Ast.Sassign (r, e, loc) -> assign [ binding c loc r e ] q
  | Ast.Scobegin (arms, _) ->
      assign
        (List.map
           (function
             | Ast.Sassign (r, e, l2) -> binding c l2 r e
             | _ -> unsupported "non-assignment inside cobegin")
           arms)
        q
  | Ast.Scocycle (arms, _) -> wp_seq c arms q
  | Ast.Sdur (s0, seq, _) -> wp c s0 (wp_seq c seq q)
  | Ast.Sseq stmts | Ast.Sregion (stmts, _) -> wp_seq c stmts q
  | Ast.Sif (arms, else_, loc) ->
      (* (t1 -> wp S1 Q) and (!t1 and t2 -> wp S2 Q) and ... *)
      let guard first negs =
        List.fold_left (fun acc n -> and_ c acc (not_ c n)) first negs
      in
      let rec build negs = function
        | [] ->
            (* the else path, guarded by the negation of every test *)
            let body_wp =
              match else_ with Some stmts -> wp_seq c stmts q | None -> q
            in
            imp c (guard (true_ c) negs) body_wp
        | (t, body) :: rest ->
            let tv = test c loc t in
            let rest_wp = build (tv :: negs) rest in
            and_ c (imp c (guard tv negs) (wp_seq c body q)) rest_wp
      in
      build [] arms
  | Ast.Swhile (t, inv, body, loc) -> (
      match inv with
      | None ->
          unsupported "while loop without an invariant annotation (inv {...})"
      | Some i ->
          let iv = formula c loc i in
          let tv = test c loc t in
          emit_vc c "while-preserve" (imp c (and_ c iv tv) (wp_seq c body iv));
          emit_vc c "while-exit" (imp c (and_ c iv (not_ c tv)) q);
          iv)
  | Ast.Srepeat (body, t, inv, loc) -> (
      match inv with
      | None ->
          unsupported "repeat loop without an invariant annotation (inv {...})"
      | Some i ->
          let iv = formula c loc i in
          let tv = test c loc t in
          (* I holds after each body execution *)
          let body_wp = wp_seq c body iv in
          emit_vc c "repeat-preserve" (imp c (and_ c iv (not_ c tv)) body_wp);
          emit_vc c "repeat-exit" (imp c (and_ c iv tv) q);
          body_wp)
  | Ast.Sassert (a, loc) ->
      let av = formula c loc a in
      emit_vc c "assert" (imp c av q);
      av
  | Ast.Scall (n, _) -> unsupported "procedure call %S in verified code" n
  | Ast.Sreturn _ -> unsupported "return in verified code"
  | Ast.Spush _ | Ast.Spop _ -> unsupported "stack operation in verified code"

and wp_seq c stmts q = List.fold_right (fun s acc -> wp c s acc) stmts q

(* -- entry point ------------------------------------------------------------------------- *)

let budget_bits = 18

type report = {
  results : (string * Symexec.verdict) list;
  proved : int;
  unknown : int;
  refuted : int;
  failure : string option;  (* unsupported-construct message, if any *)
}

let failed msg =
  { results = []; proved = 0; unknown = 0; refuted = 0; failure = Some msg }

let verify (d : Desc.t) (p : Ast.program) : report =
  let env = Compile.instantiate d p in
  let loc = Loc.dummy in
  try
    let c = { env; tm = Symexec.create_ctx (); vcs = []; count = 0 } in
    let assertion = function Some f -> formula c loc f | None -> true_ c in
    let post = assertion p.Ast.post in
    let pre = assertion p.Ast.pre in
    let entry = wp_seq c p.Ast.body post in
    emit_vc c "pre-entry" (imp c pre entry);
    let results =
      List.rev_map
        (fun (name, vc) ->
          ( name,
            Symexec.decide ~budget_bits
              [ (vc Store.empty, Symexec.true_ c.tm) ] ))
        c.vcs
    in
    let count v = List.length (List.filter (fun (_, v') -> v' = v) results) in
    let proved = count Symexec.Proved and unknown = count Symexec.Unknown in
    let refuted = List.length results - proved - unknown in
    { results; proved; unknown; refuted; failure = None }
  with
  | Unsupported msg -> failed msg
  | Diag.Error dg -> failed (Diag.to_string dg)

let ok report = report.failure = None && report.refuted = 0

let pp_verdict ppf = function
  | Symexec.Proved -> Fmt.string ppf "proved (exhaustive)"
  | Symexec.Unknown ->
      Fmt.pf ppf "unknown (over %d free bits; no counterexample found)"
        budget_bits
  | Symexec.Refuted cx ->
      Fmt.pf ppf "REFUTED, counterexample @[<h>%a@]" Symexec.pp_assignment cx

let pp_report ppf r =
  match r.failure with
  | Some m -> Fmt.pf ppf "verification not applicable: %s" m
  | None ->
      Fmt.pf ppf "@[<v>%a@,%d proved, %d unknown, %d refuted@]"
        (Fmt.list ~sep:Fmt.cut (fun ppf (n, v) ->
             Fmt.pf ppf "%-20s %a" n pp_verdict v))
        r.results r.proved r.unknown r.refuted
