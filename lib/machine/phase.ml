(* The phase model, written once over an abstract value domain; see
   phase.mli for the semantics. *)

module Diag = Msl_util.Diag

let split (d : Desc.t) ops =
  let buckets = Array.make d.Desc.d_phases [] in
  List.iter
    (fun op ->
      let p = Inst.op_phase op in
      if p >= 0 && p < d.Desc.d_phases then buckets.(p) <- op :: buckets.(p))
    (List.rev ops);
  Array.of_list
    (List.filter (function [] -> false | _ :: _ -> true)
       (Array.to_list buckets))

let reg file id =
  if id < 0 || id >= Array.length file then
    Diag.error Diag.Execution "microop references unknown register id %d" id;
  Array.unsafe_get file id

(* What one action of a phase touches: the register ids and flag indices
   it reads and writes, whether it accesses memory, and whether it can
   raise for a reason the word itself names (an immediate destination or
   an unknown register id). *)
type access = {
  reads : int list;
  writes : int list;
  rflags : int list;
  wflags : int list;
  mem : bool;
  raises : bool;
}

let access (d : Desc.t) ((args : Inst.arg array), a) =
  let ids names opnds =
    List.map (fun n -> (Desc.get_reg d n).Desc.r_id) names
    @ List.filter_map
        (fun i ->
          match args.(i) with Inst.A_reg r -> Some r | Inst.A_imm _ -> None)
        opnds
  in
  let wr_names, wr_opnds = Rtl.action_writes a in
  let reads = ids (Rtl.action_reads a) (Rtl.action_read_opnds a) in
  let writes = ids wr_names wr_opnds in
  let unknown r = r < 0 || r >= Array.length d.Desc.d_regs in
  {
    reads;
    writes;
    rflags = List.map Rtl.flag_index (Rtl.action_reads_flags a);
    wflags = List.map Rtl.flag_index (Rtl.action_sets_flags a);
    mem = Rtl.action_touches_memory a;
    raises =
      List.exists
        (fun i ->
          match args.(i) with Inst.A_imm _ -> true | Inst.A_reg _ -> false)
        wr_opnds
      || List.exists unknown reads
      || List.exists unknown writes;
  }

let direct d ops =
  let acts =
    List.concat_map
      (fun (op : Inst.op) ->
        List.map (fun a -> (op.Inst.op_args, a)) op.Inst.op_t.Desc.t_actions)
      ops
  in
  match List.map (access d) acts with
  | [] | [ _ ] -> true
  | _ :: rest as all ->
      let disjoint xs ys = not (List.exists (fun x -> List.mem x ys) xs) in
      let rec unobserved = function
        | [] -> true
        | a :: later ->
            List.for_all
              (fun b -> disjoint a.writes b.reads && disjoint a.wflags b.rflags)
              later
            && unobserved later
      in
      List.for_all (fun a -> not a.raises) all
      && List.for_all (fun a -> not a.mem) rest
      && unobserved all

module type VALUE = sig
  type ctx
  type word
  type bit
  type flags
  type mem

  val const : ctx -> Msl_bitvec.Bitvec.t -> word
  val of_bit : ctx -> bit -> word
  val lsb : ctx -> word -> bit
  val width : word -> int
  val add : ctx -> word -> word -> word
  val sub : ctx -> word -> word -> word
  val logand : ctx -> word -> word -> word
  val logor : ctx -> word -> word -> word
  val logxor : ctx -> word -> word -> word
  val lognot : ctx -> word -> word
  val slice : ctx -> word -> hi:int -> lo:int -> word
  val concat : ctx -> word -> word -> word
  val resize : ctx -> int -> word -> word
  val mux : ctx -> word -> word -> word -> word
  val alu : ctx -> Rtl.abinop -> word -> word -> carry:bit -> word * flags
  val flag : ctx -> flags -> Rtl.flag -> bit
  val load : ctx -> mem -> word -> word
  val store : ctx -> mem -> word -> word -> unit
end

module Make (V : VALUE) = struct
  (* One phase in flight: where it reads, and the writes it has buffered
     so far (newest first). *)
  type state = {
    ctx : V.ctx;
    d : Desc.t;
    regs : V.word array;
    flags : V.bit array;
    mem : V.mem;
    mutable w_regs : (int * V.word) list;
    mutable w_flags : (int * V.bit) list;
    mutable w_mem : (V.word * V.word) list;
    mutable ack : bool;
  }

  let rec eval st (args : Inst.arg array) e =
    let ctx = st.ctx in
    match e with
    | Rtl.Opnd i -> (
        match args.(i) with
        | Inst.A_reg r -> reg st.regs r
        | Inst.A_imm v -> V.const ctx v)
    | Rtl.Reg name -> st.regs.((Desc.get_reg st.d name).Desc.r_id)
    | Rtl.Const v -> V.const ctx v
    | Rtl.Flag f -> V.of_bit ctx st.flags.(Rtl.flag_index f)
    | Rtl.Add (a, b) -> V.add ctx (eval st args a) (eval st args b)
    | Rtl.Sub (a, b) -> V.sub ctx (eval st args a) (eval st args b)
    | Rtl.And (a, b) -> V.logand ctx (eval st args a) (eval st args b)
    | Rtl.Or (a, b) -> V.logor ctx (eval st args a) (eval st args b)
    | Rtl.Xor (a, b) -> V.logxor ctx (eval st args a) (eval st args b)
    | Rtl.Not a -> V.lognot ctx (eval st args a)
    | Rtl.Slice (a, hi, lo) -> V.slice ctx (eval st args a) ~hi ~lo
    | Rtl.Concat (a, b) -> V.concat ctx (eval st args a) (eval st args b)
    | Rtl.Zext (w, a) -> V.resize ctx w (eval st args a)
    | Rtl.Mux (c, a, b) ->
        V.mux ctx (eval st args c) (eval st args a) (eval st args b)

  (* A destination's register id, checked against the register file. *)
  let dest st (args : Inst.arg array) = function
    | Rtl.D_reg name -> (Desc.get_reg st.d name).Desc.r_id
    | Rtl.D_opnd i -> (
        match args.(i) with
        | Inst.A_reg r ->
            ignore (reg st.regs r);
            r
        | Inst.A_imm _ ->
            Diag.error Diag.Execution "microop writes to an immediate operand")

  let width st id = st.d.Desc.d_regs.(id).Desc.r_width
  let push_reg st id v = st.w_regs <- (id, v) :: st.w_regs

  let push_flags st fs =
    List.iter
      (fun f ->
        st.w_flags <- (Rtl.flag_index f, V.flag st.ctx fs f) :: st.w_flags)
      Rtl.all_flags

  let exec_action st args (a : Rtl.action) =
    let ctx = st.ctx in
    match a with
    | Rtl.Assign (dst, e) ->
        let id = dest st args dst in
        push_reg st id (V.resize ctx (width st id) (eval st args e))
    | Rtl.Arith (dst, op, e1, e2) ->
        let id = dest st args dst in
        let v1 = V.resize ctx (width st id) (eval st args e1) in
        let v2 = V.resize ctx (width st id) (eval st args e2) in
        let r, fs = V.alu ctx op v1 v2 ~carry:st.flags.(0) in
        push_reg st id r;
        push_flags st fs
    | Rtl.Arith_nf (dst, op, e1, e2) ->
        let id = dest st args dst in
        let v1 = V.resize ctx (width st id) (eval st args e1) in
        let v2 = V.resize ctx (width st id) (eval st args e2) in
        push_reg st id (fst (V.alu ctx op v1 v2 ~carry:st.flags.(0)))
    | Rtl.Arith_flags (op, e1, e2) ->
        let v1 = eval st args e1 in
        let v2 = V.resize ctx (V.width v1) (eval st args e2) in
        push_flags st (snd (V.alu ctx op v1 v2 ~carry:st.flags.(0)))
    | Rtl.Mem_read (dst, addr) ->
        let id = dest st args dst in
        let v = V.load ctx st.mem (eval st args addr) in
        push_reg st id (V.resize ctx (width st id) v)
    | Rtl.Mem_write (addr, value) ->
        let a = eval st args addr in
        st.w_mem <- (a, eval st args value) :: st.w_mem
    | Rtl.Set_flag (f, e) ->
        let b = V.lsb ctx (eval st args e) in
        st.w_flags <- (Rtl.flag_index f, b) :: st.w_flags
    | Rtl.Int_ack -> st.ack <- true

  let exec_phase ctx d regs flags mem ops =
    let st =
      { ctx; d; regs; flags; mem; w_regs = []; w_flags = []; w_mem = [];
        ack = false }
    in
    List.iter
      (fun (op : Inst.op) ->
        List.iter (exec_action st op.Inst.op_args) op.Inst.op_t.Desc.t_actions)
      ops;
    List.iter (fun (a, v) -> V.store ctx mem a v) (List.rev st.w_mem);
    List.iter (fun (id, v) -> regs.(id) <- v) (List.rev st.w_regs);
    List.iter (fun (i, b) -> flags.(i) <- b) (List.rev st.w_flags);
    st.ack
end
