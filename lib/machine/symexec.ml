(* Symbolic bitvector evaluation of microinstruction words.

   The translation validator (Msl_mir.Tv) needs to prove that a compacted,
   reordered, packed word sequence computes the same final register, flag
   and memory state as the sequential schedule it came from.  This module
   supplies the machinery: hash-consed terms mirroring the [Bitvec]
   formulas the simulator evaluates, smart constructors that normalize as
   they build (constant folding through [Rtl.eval_abinop], ALU results
   rewritten to pure add/sub/logic nodes, flag extraction reduced to
   zero-tests and sign slices), the shared phase model ([Phase])
   instantiated over terms as the symbolic word executor, and a layered
   decision procedure: identical hash-consed terms are equal
   by construction; small memory-free goals are settled by exhaustive
   concrete evaluation over the live input bits; everything else is
   tried under seeded and corner-value stores, which can refute with a
   concrete counterexample but never prove — that residue is [Unknown].
   The S* verifier poses its verification conditions to the same
   procedure.

   Hash-consing is per-[ctx], not global: validation runs inside the batch
   service's worker domains, and a shared table would be a data race. *)

open Msl_bitvec

type node =
  | Var of string  (* a symbolic register/flag input of the region *)
  | Const of Bitvec.t
  | Add of t * t
  | Sub of t * t
  | And of t * t
  | Or of t * t
  | Xor of t * t
  | Mul of t * t
  | Not of t
  | Slice of t * int * int  (* bits hi..lo *)
  | Concat of t * t
  | Zext of t  (* zero-extend to [width]; never truncates (that is a Slice) *)
  | Mux of t * t * t  (* if t1 <> 0 then t2 else t3 *)
  | Alu of Rtl.abinop * t * t  (* residual shifter ops (shl/shr/sra/rol/ror) *)
  | Alu_flag of Rtl.flag * Rtl.abinop * t * t * t  (* flag of op a b, carry-in *)
  | Mem_init  (* the unconstrained initial memory *)
  | Mem_var of string  (* havocked memory (after a microsubroutine call) *)
  | Mem_store of t * t * t  (* memory, 62-bit address, word-width value *)
  | Mem_sel of t * t  (* memory, 62-bit address *)

and t = { id : int; width : int; node : node; has_mem : bool }

(* Structural keys: two smart-constructor calls with identical children
   always return the same term, so term identity is semantic identity up
   to the normalizations below. *)
type key =
  | Kvar of string * int
  | Kmemvar of string
  | Kconst of int * int64
  | K1 of int * int
  | K2 of int * int * int
  | K3 of int * int * int * int
  | Kslice of int * int * int
  | Kzext of int * int

type ctx = { tbl : (key, t) Hashtbl.t; mutable next : int }

let create_ctx () = { tbl = Hashtbl.create 1024; next = 0 }

let mk ctx ~width ~has_mem node key =
  match Hashtbl.find_opt ctx.tbl key with
  | Some t -> t
  | None ->
      let t = { id = ctx.next; width; node; has_mem } in
      ctx.next <- ctx.next + 1;
      Hashtbl.add ctx.tbl key t;
      t

let abinop_index = function
  | Rtl.A_add -> 0 | Rtl.A_adc -> 1 | Rtl.A_sub -> 2 | Rtl.A_and -> 3
  | Rtl.A_or -> 4 | Rtl.A_xor -> 5 | Rtl.A_mul -> 6 | Rtl.A_shl -> 7
  | Rtl.A_shr -> 8 | Rtl.A_sra -> 9 | Rtl.A_rol -> 10 | Rtl.A_ror -> 11

let flag_of_index = function
  | 0 -> Rtl.C | 1 -> Rtl.V | 2 -> Rtl.Z | 3 -> Rtl.N | _ -> Rtl.U

(* node tags for keys *)
let t_add = 0 and t_sub = 1 and t_and = 2 and t_or = 3 and t_xor = 4
and t_mul = 5 and t_not = 6 and t_concat = 7 and t_mux = 8
and t_store = 9 and t_sel = 10

let t_alu op = 20 + abinop_index op
let t_aluf fl op = 40 + (Rtl.flag_index fl * 12) + abinop_index op

(* -- smart constructors -------------------------------------------------- *)

let var ctx name width = mk ctx ~width ~has_mem:false (Var name) (Kvar (name, width))
let const ctx v =
  mk ctx ~width:(Bitvec.width v) ~has_mem:false (Const v)
    (Kconst (Bitvec.width v, Bitvec.to_int64 v))

let const_int ctx ~width n = const ctx (Bitvec.of_int ~width n)
let false_ ctx = const ctx (Bitvec.of_bool false)
let true_ ctx = const ctx (Bitvec.of_bool true)

let as_const t = match t.node with Const v -> Some v | _ -> None
let is_mem t =
  match t.node with Mem_init | Mem_var _ | Mem_store _ -> true | _ -> false

let chk name a b =
  if a.width <> b.width then
    invalid_arg (Printf.sprintf "Symexec.%s: width mismatch (%d vs %d)" name
                   a.width b.width)

let bin2 ctx tag ~commute a b =
  (* shared shape for the binary operators; commutative ones order their
     children by id so both association orders meet in one term *)
  let a, b = if commute && a.id > b.id then (b, a) else (a, b) in
  mk ctx ~width:a.width ~has_mem:(a.has_mem || b.has_mem) tag
    (K2 ((match tag with
          | Add _ -> t_add | Sub _ -> t_sub | And _ -> t_and
          | Or _ -> t_or | Xor _ -> t_xor | Mul _ -> t_mul
          | _ -> assert false), a.id, b.id))

let add ctx a b =
  chk "add" a b;
  match (as_const a, as_const b) with
  | Some x, Some y -> const ctx (Bitvec.add x y)
  | Some x, None when Bitvec.is_zero x -> b
  | None, Some y when Bitvec.is_zero y -> a
  | _ -> bin2 ctx (Add (a, b)) ~commute:true a b

let sub ctx a b =
  chk "sub" a b;
  if a.id = b.id then const ctx (Bitvec.zero a.width)
  else
    match (as_const a, as_const b) with
    | Some x, Some y -> const ctx (Bitvec.sub x y)
    | None, Some y when Bitvec.is_zero y -> a
    | _ -> bin2 ctx (Sub (a, b)) ~commute:false a b

let logand ctx a b =
  chk "and" a b;
  if a.id = b.id then a
  else
    match (as_const a, as_const b) with
    | Some x, Some y -> const ctx (Bitvec.logand x y)
    | Some x, None when Bitvec.is_zero x -> a
    | None, Some y when Bitvec.is_zero y -> b
    | Some x, None when Bitvec.equal x (Bitvec.ones a.width) -> b
    | None, Some y when Bitvec.equal y (Bitvec.ones a.width) -> a
    | _ -> bin2 ctx (And (a, b)) ~commute:true a b

let logor ctx a b =
  chk "or" a b;
  if a.id = b.id then a
  else
    match (as_const a, as_const b) with
    | Some x, Some y -> const ctx (Bitvec.logor x y)
    | Some x, None when Bitvec.is_zero x -> b
    | None, Some y when Bitvec.is_zero y -> a
    | Some x, None when Bitvec.equal x (Bitvec.ones a.width) -> a
    | None, Some y when Bitvec.equal y (Bitvec.ones a.width) -> b
    | _ -> bin2 ctx (Or (a, b)) ~commute:true a b

let logxor ctx a b =
  chk "xor" a b;
  if a.id = b.id then const ctx (Bitvec.zero a.width)
  else
    match (as_const a, as_const b) with
    | Some x, Some y -> const ctx (Bitvec.logxor x y)
    | Some x, None when Bitvec.is_zero x -> b
    | None, Some y when Bitvec.is_zero y -> a
    | _ -> bin2 ctx (Xor (a, b)) ~commute:true a b

let mul ctx a b =
  chk "mul" a b;
  match (as_const a, as_const b) with
  | Some x, Some y -> const ctx (Bitvec.mul x y)
  | Some x, None when Bitvec.is_zero x -> a
  | None, Some y when Bitvec.is_zero y -> b
  | Some x, None when Bitvec.equal x (Bitvec.of_int ~width:a.width 1) -> b
  | None, Some y when Bitvec.equal y (Bitvec.of_int ~width:a.width 1) -> a
  | _ -> bin2 ctx (Mul (a, b)) ~commute:true a b

let lognot ctx a =
  match a.node with
  | Const v -> const ctx (Bitvec.lognot v)
  | Not x -> x
  | _ -> mk ctx ~width:a.width ~has_mem:a.has_mem (Not a) (K1 (t_not, a.id))

let rec slice ctx a ~hi ~lo =
  if not (a.width > hi && hi >= lo && lo >= 0) then
    invalid_arg
      (Printf.sprintf "Symexec.slice: bits %d..%d of a %d-bit term" hi lo
         a.width);
  if lo = 0 && hi = a.width - 1 then a
  else
    match a.node with
    | Const v -> const ctx (Bitvec.extract ~hi ~lo v)
    | Slice (x, _, l2) -> slice ctx x ~hi:(l2 + hi) ~lo:(l2 + lo)
    | Zext x when hi < x.width -> slice ctx x ~hi ~lo
    | Zext x when lo >= x.width -> const ctx (Bitvec.zero (hi - lo + 1))
    | _ ->
        mk ctx ~width:(hi - lo + 1) ~has_mem:a.has_mem (Slice (a, hi, lo))
          (Kslice (a.id, hi, lo))

(* [zext] doubles as [Bitvec.resize]: truncation is canonicalized to a
   slice so the two spellings of "low w bits" meet in one term. *)
and zext ctx w a =
  if w = a.width then a
  else if w < a.width then slice ctx a ~hi:(w - 1) ~lo:0
  else
    match a.node with
    | Const v -> const ctx (Bitvec.resize ~width:w v)
    | Zext x -> zext ctx w x
    | _ -> mk ctx ~width:w ~has_mem:a.has_mem (Zext a) (Kzext (w, a.id))

let concat ctx a b =
  if a.width + b.width > 64 then
    invalid_arg "Symexec.concat: combined width exceeds 64";
  match (as_const a, as_const b) with
  | Some x, Some y -> const ctx (Bitvec.concat x y)
  | _ ->
      mk ctx ~width:(a.width + b.width) ~has_mem:(a.has_mem || b.has_mem)
        (Concat (a, b)) (K2 (t_concat, a.id, b.id))

let mux ctx c a b =
  chk "mux" a b;
  match as_const c with
  | Some v -> if Bitvec.is_zero v then b else a
  | None ->
      if a.id = b.id then a
      else
        mk ctx ~width:a.width
          ~has_mem:(c.has_mem || a.has_mem || b.has_mem)
          (Mux (c, a, b)) (K3 (t_mux, c.id, a.id, b.id))

(* The ALU result, normalized: the ring/lattice operators become pure
   nodes (so any dataflow-equal schedule rebuilds the identical term),
   adc becomes two adds of the carry, and only the shifter family — whose
   amount operand is data — survives as an opaque [Alu] node. *)
let alu ctx op a b ~carry =
  chk "alu" a b;
  match op with
  | Rtl.A_add -> add ctx a b
  | Rtl.A_adc -> add ctx (add ctx a b) (zext ctx a.width carry)
  | Rtl.A_sub -> sub ctx a b
  | Rtl.A_and -> logand ctx a b
  | Rtl.A_or -> logor ctx a b
  | Rtl.A_xor -> logxor ctx a b
  | Rtl.A_mul -> mul ctx a b
  | Rtl.A_shl | Rtl.A_shr | Rtl.A_sra | Rtl.A_rol | Rtl.A_ror -> (
      match (as_const a, as_const b) with
      | Some x, Some y ->
          const ctx (fst (Rtl.eval_abinop op x y ~carry_in:false))
      | _ ->
          mk ctx ~width:a.width ~has_mem:(a.has_mem || b.has_mem)
            (Alu (op, a, b)) (K2 (t_alu op, a.id, b.id)))

let is_zero_term ctx r = mux ctx r (false_ ctx) (true_ ctx)

(* One condition flag of [op a b], mirroring [Rtl.eval_abinop] +
   [Bitvec.flags_of]: Z and N are functions of the result alone; the ops
   whose flag base is [no_flags] pin C/V/U to false; shl/shr report the
   same shifted-out bit in both C and U, so C canonicalizes onto U. *)
let alu_flag ctx fl op a b ~carry =
  chk "alu_flag" a b;
  match (as_const a, as_const b, as_const carry) with
  | Some x, Some y, Some c ->
      let _, f = Rtl.eval_abinop op x y ~carry_in:(Bitvec.lsb c) in
      const ctx
        (Bitvec.of_bool
           (match fl with
           | Rtl.C -> f.Bitvec.carry
           | Rtl.V -> f.Bitvec.overflow
           | Rtl.Z -> f.Bitvec.zero
           | Rtl.N -> f.Bitvec.negative
           | Rtl.U -> f.Bitvec.shifted_out))
  | _ -> (
      match fl with
      | Rtl.Z -> is_zero_term ctx (alu ctx op a b ~carry)
      | Rtl.N ->
          let r = alu ctx op a b ~carry in
          slice ctx r ~hi:(r.width - 1) ~lo:(r.width - 1)
      | Rtl.C | Rtl.V | Rtl.U -> (
          match op with
          | Rtl.A_and | Rtl.A_or | Rtl.A_xor | Rtl.A_sra | Rtl.A_rol
          | Rtl.A_ror ->
              false_ ctx
          | Rtl.A_add | Rtl.A_sub | Rtl.A_mul | Rtl.A_adc ->
              if fl = Rtl.U then false_ ctx
              else
                let carry =
                  if op = Rtl.A_adc then carry else false_ ctx
                in
                mk ctx ~width:1
                  ~has_mem:(a.has_mem || b.has_mem || carry.has_mem)
                  (Alu_flag (fl, op, a, b, carry))
                  (K3 (t_aluf fl op, a.id, b.id, carry.id))
          | Rtl.A_shl | Rtl.A_shr ->
              if fl = Rtl.V then false_ ctx
              else
                (* C = U = the shifted-out bit *)
                let fl = Rtl.U in
                mk ctx ~width:1 ~has_mem:(a.has_mem || b.has_mem)
                  (Alu_flag (fl, op, a, b, false_ ctx))
                  (K3 (t_aluf fl op, a.id, b.id, (false_ ctx).id))))

(* -- memory terms --------------------------------------------------------- *)

(* A memory term's [width] is the memory word width; addresses are 62-bit
   (mirroring [Sim]'s resize-then-[to_int]). *)
let mem_init ctx ~word =
  mk ctx ~width:word ~has_mem:true Mem_init (Kconst (-1, Int64.of_int word))

let mem_var ctx name ~word =
  mk ctx ~width:word ~has_mem:true (Mem_var name) (Kmemvar name)

let mem_store ctx m addr v =
  if addr.width <> 62 then invalid_arg "Symexec.mem_store: address width";
  let v = zext ctx m.width v in
  mk ctx ~width:m.width ~has_mem:true (Mem_store (m, addr, v))
    (K3 (t_store, m.id, addr.id, v.id))

let mem_sel ctx m addr =
  if addr.width <> 62 then invalid_arg "Symexec.mem_sel: address width";
  match m.node with
  | Mem_store (_, a2, v) when a2.id = addr.id -> v  (* read of the last store *)
  | _ -> mk ctx ~width:m.width ~has_mem:true (Mem_sel (m, addr))
           (K2 (t_sel, m.id, addr.id))

(* -- concrete evaluation --------------------------------------------------- *)

type env = {
  e_var : string -> Bitvec.t;  (* resized to the variable's width *)
  e_mem : int -> int64;  (* initial memory, by word address *)
}

let iter_children f t =
  match t.node with
  | Var _ | Const _ | Mem_init | Mem_var _ -> ()
  | Not a | Zext a | Slice (a, _, _) -> f a
  | Add (a, b) | Sub (a, b) | And (a, b) | Or (a, b) | Xor (a, b)
  | Mul (a, b) | Concat (a, b) | Alu (_, a, b) | Mem_sel (a, b) ->
      f a; f b
  | Mux (a, b, c) | Alu_flag (_, _, a, b, c) | Mem_store (a, b, c) ->
      f a; f b; f c

(* Terms prepared for repeated evaluation: the variable nodes reachable
   from the roots, and one value slot per term id, valid while its stamp
   is the current generation.  Evaluation is on demand, so the untaken arm
   of a [Mux] is never computed. *)
type prepared = {
  var_nodes : (t * string) list;
  vals : Bitvec.t array;
  stamp : int array;
  mutable gen : int;
}

let prepare roots =
  let seen = Hashtbl.create 64 and vars = ref [] and size = ref 0 in
  let rec visit t =
    if not (Hashtbl.mem seen t.id) then begin
      Hashtbl.add seen t.id ();
      (match t.node with
      | Var n -> vars := (t, n) :: !vars
      | _ -> iter_children visit t);
      size := max !size (t.id + 1)
    end
  in
  List.iter visit roots;
  { var_nodes = !vars; vals = Array.make !size (Bitvec.zero 1);
    stamp = Array.make !size (-1); gen = 0 }

(* The value of [t] in the current generation, reading each variable
   node (and its name) through [var] and the initial memory from [mem]. *)
let rec value f var mem t =
  if f.stamp.(t.id) = f.gen then f.vals.(t.id)
  else begin
    let go = value f var mem in
    let v =
      match t.node with
      | Var n -> Bitvec.resize ~width:t.width (var t n)
      | Const v -> v
      | Add (a, b) -> Bitvec.add (go a) (go b)
      | Sub (a, b) -> Bitvec.sub (go a) (go b)
      | And (a, b) -> Bitvec.logand (go a) (go b)
      | Or (a, b) -> Bitvec.logor (go a) (go b)
      | Xor (a, b) -> Bitvec.logxor (go a) (go b)
      | Mul (a, b) -> Bitvec.mul (go a) (go b)
      | Not a -> Bitvec.lognot (go a)
      | Slice (a, hi, lo) -> Bitvec.extract ~hi ~lo (go a)
      | Concat (a, b) -> Bitvec.concat (go a) (go b)
      | Zext a -> Bitvec.resize ~width:t.width (go a)
      | Mux (c, a, b) -> if Bitvec.is_zero (go c) then go b else go a
      | Alu (op, a, b) ->
          fst (Rtl.eval_abinop op (go a) (go b) ~carry_in:false)
      | Alu_flag (fl, op, a, b, cin) ->
          let _, f =
            Rtl.eval_abinop op (go a) (go b) ~carry_in:(Bitvec.lsb (go cin))
          in
          Bitvec.of_bool
            (match fl with
            | Rtl.C -> f.Bitvec.carry
            | Rtl.V -> f.Bitvec.overflow
            | Rtl.Z -> f.Bitvec.zero
            | Rtl.N -> f.Bitvec.negative
            | Rtl.U -> f.Bitvec.shifted_out)
      | Mem_sel (m, a) -> mem_at f var mem m (Bitvec.to_int (go a))
      | Mem_init | Mem_var _ | Mem_store _ ->
          invalid_arg "Symexec.eval: memory term has no scalar value"
    in
    f.vals.(t.id) <- v;
    f.stamp.(t.id) <- f.gen;
    v
  end

(* Memory [m] at word address [addr], through its store chain. *)
and mem_at f var mem m addr =
  match m.node with
  | Mem_store (m', a, v) ->
      if Bitvec.to_int (value f var mem a) = addr then value f var mem v
      else mem_at f var mem m' addr
  | _ -> Bitvec.resize ~width:m.width (Bitvec.of_int64 ~width:64 (mem addr))

(* Equality of two terms in the current generation: memory terms compare
   at every address either side writes (elsewhere both fall through to
   the same initial memory, except across distinct havoc variables — those
   only ever arise as the *same* variable on both sides). *)
let equal_in f var mem a b =
  if is_mem a || is_mem b then begin
    let rec base m =
      match m.node with Mem_store (m', _, _) -> base m' | _ -> m
    in
    let rec addrs acc m =
      match m.node with
      | Mem_store (m', a, _) ->
          addrs (Bitvec.to_int (value f var mem a) :: acc) m'
      | _ -> acc
    in
    is_mem a && is_mem b
    && (match ((base a).node, (base b).node) with
       | Mem_init, Mem_init -> true
       | Mem_var x, Mem_var y -> x = y
       | _ -> false)
    && List.for_all
         (fun addr ->
           Bitvec.equal (mem_at f var mem a addr) (mem_at f var mem b addr))
         (List.sort_uniq compare (addrs (addrs [] a) b))
  end
  else a.width = b.width && Bitvec.equal (value f var mem a) (value f var mem b)

let eval env t = value (prepare [ t ]) (fun _ n -> env.e_var n) env.e_mem t

(* -- the decision layer ---------------------------------------------------- *)

type assignment = (string * Bitvec.t) list

type verdict = Proved | Refuted of assignment | Unknown

(* xorshift64*, plus a splitmix-style hash for sampled initial memory;
   both deterministic so refutations replay. *)
let rng_next st =
  let x = !st in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  st := x;
  x

let hash_mem ~sample addr =
  let z =
    Int64.add
      (Int64.mul (Int64.of_int ((sample * 31) + addr)) 0x9E3779B97F4A7C15L)
      0xBF58476D1CE4E5B9L
  in
  let z = Int64.logxor z (Int64.shift_right_logical z 30) in
  Int64.mul z 0x94D049BB133111EBL

(* The extreme values of a [w]-bit input — where wraparound, sign and
   carry behaviour change — which random samples almost never hit. *)
let corner_values w =
  let bv = Bitvec.of_int64 ~width:w in
  List.sort_uniq compare
    [ Bitvec.zero w; Bitvec.ones w; bv 1L; bv 2L; Bitvec.pred (Bitvec.ones w);
      Bitvec.shift_left (bv 1L) (w - 1) ]

let samples = 64
let max_corners = 4096

let decide ?(budget_bits = 16) pairs =
  let pairs = List.filter (fun (a, b) -> a.id <> b.id) pairs in
  if pairs = [] then Proved
  else begin
    let f = prepare (List.concat_map (fun (a, b) -> [ a; b ]) pairs) in
    let vars =
      List.map (fun (t, n) -> (n, t.width)) f.var_nodes
      |> List.sort_uniq compare |> Array.of_list
    in
    (* each variable node's index into [vars]; a name bound at two widths
       reads its last (widest) entry *)
    let slot = Array.make (Array.length f.vals) 0 in
    Array.iteri
      (fun i (n, _) ->
        List.iter (fun (t, m) -> if m = n then slot.(t.id) <- i) f.var_nodes)
      vars;
    (* a candidate store: one value per variable, and the initial memory;
       the pairs are compared in order and the first difference stops *)
    let agree (values, mem) =
      f.gen <- f.gen + 1;
      List.for_all
        (fun (a, b) -> equal_in f (fun t _ -> values.(slot.(t.id))) mem a b)
        pairs
    in
    let counterexample stores =
      Seq.find (fun s -> not (agree s)) stores
      |> Option.map (fun (values, _) ->
             Array.to_list (Array.mapi (fun i (n, _) -> (n, values.(i))) vars))
    in
    let zero_mem _ = 0L in
    let any_mem = List.exists (fun (a, b) -> a.has_mem || b.has_mem) pairs in
    let total_bits = Array.fold_left (fun n (_, w) -> n + w) 0 vars in
    if (not any_mem) && total_bits <= budget_bits then begin
      (* exhaustive: a genuine proof over every live input bit, store [i]
         packing the variables' values at consecutive bit offsets *)
      let store i =
        let bit = ref 0 in
        ( Array.map
            (fun (_, w) ->
              let v = (i lsr !bit) land ((1 lsl w) - 1) in
              bit := !bit + w;
              Bitvec.of_int ~width:w v)
            vars,
          zero_mem )
      in
      match counterexample (Seq.init (1 lsl total_bits) store) with
      | None -> Proved
      | Some cx -> Refuted cx
    end
    else begin
      (* sound for refutation only.  Seeded samples first: sample 0 is the
         all-zeros store and even samples keep memory zeroed, so most
         counterexamples replay directly on a freshly reset simulator.
         Then combinations of corner values over zeroed memory, the last
         variable varying fastest. *)
      let st = ref 1L in
      let sample k =
        ( Array.map
            (fun (_, w) ->
              if k = 0 then Bitvec.zero w
              else if k = 1 then Bitvec.ones w
              else Bitvec.of_int64 ~width:w (rng_next st))
            vars,
          if k land 1 = 0 then zero_mem else hash_mem ~sample:k )
      in
      let rec combos i =
        if i = Array.length vars then Seq.return []
        else
          Seq.flat_map
            (fun v -> Seq.map (fun rest -> v :: rest) (combos (i + 1)))
            (List.to_seq (corner_values (snd vars.(i))))
      in
      let corners =
        Seq.take max_corners
          (Seq.map (fun vs -> (Array.of_list vs, zero_mem)) (combos 0))
      in
      match counterexample (Seq.append (Seq.init samples sample) corners) with
      | None -> Unknown
      | Some cx -> Refuted cx
    end
  end

(* -- the symbolic store and word executor ----------------------------------- *)

type store = {
  st_regs : t array;  (* by register id, each of its declared width *)
  st_flags : t array;  (* C V Z N U, 1-bit each *)
  mutable st_mem : t;
  mutable st_acks : int;  (* Int_ack commits observed *)
}

let reg_var_name name = "r:" ^ name
let flag_var_name fl = "f:" ^ Rtl.flag_name fl

let init_store ?(prefix = "") ctx (d : Desc.t) =
  {
    st_regs =
      Array.map
        (fun (r : Desc.reg) ->
          var ctx (prefix ^ reg_var_name r.Desc.r_name) r.Desc.r_width)
        d.Desc.d_regs;
    st_flags =
      Array.init 5 (fun i ->
          var ctx (prefix ^ flag_var_name (flag_of_index i)) 1);
    st_mem =
      (if prefix = "" then mem_init ctx ~word:d.Desc.d_word
       else mem_var ctx (prefix ^ "mem") ~word:d.Desc.d_word);
    st_acks = 0;
  }

let copy_store s =
  {
    st_regs = Array.copy s.st_regs;
    st_flags = Array.copy s.st_flags;
    st_mem = s.st_mem;
    st_acks = s.st_acks;
  }

(* A sequencer condition as a 1-bit term over the store, mirroring
   [Sim.eval_cond].  [C_int_pending] is not a function of the store (it
   reads the interrupt line), so it has no term. *)
let cond_term ctx (s : store) = function
  | Desc.C_flag (f, v) ->
      let t = s.st_flags.(Rtl.flag_index f) in
      Some (if v then t else lognot ctx t)
  | Desc.C_reg_zero (r, v) ->
      if r < 0 || r >= Array.length s.st_regs then None
      else
        let z = is_zero_term ctx s.st_regs.(r) in
        Some (if v then z else lognot ctx z)
  | Desc.C_reg_mask (r, mask) ->
      if r < 0 || r >= Array.length s.st_regs then None
      else begin
        let v = s.st_regs.(r) in
        let n = min (Array.length mask) v.width in
        let acc = ref (true_ ctx) in
        for i = 0 to n - 1 do
          match mask.(i) with
          | Desc.Mx -> ()
          | Desc.Mt -> acc := logand ctx !acc (slice ctx v ~hi:i ~lo:i)
          | Desc.Mf ->
              acc := logand ctx !acc (lognot ctx (slice ctx v ~hi:i ~lo:i))
        done;
        Some !acc
      end
  | Desc.C_int_pending -> None

(* Replace every component with fresh inputs (used after a microsubroutine
   call, whose effects are unmodeled but identical on both sides). *)
let havoc ~prefix ctx (d : Desc.t) s =
  let fresh = init_store ~prefix ctx d in
  Array.blit fresh.st_regs 0 s.st_regs 0 (Array.length s.st_regs);
  Array.blit fresh.st_flags 0 s.st_flags 0 (Array.length s.st_flags);
  s.st_mem <- fresh.st_mem

(* The phase model over terms.  The memory the actions see is the whole
   store, so a committed write can replace its [st_mem] chain. *)
module P = Phase.Make (struct
  type nonrec ctx = ctx
  type word = t
  type bit = t
  type flags = { op : Rtl.abinop; a : t; b : t; carry : t }
  type mem = store

  let const = const
  let of_bit _ b = b
  let lsb ctx v = slice ctx v ~hi:0 ~lo:0
  let width v = v.width
  let add = add
  let sub = sub
  let logand = logand
  let logor = logor
  let logxor = logxor
  let lognot = lognot
  let slice = slice
  let concat = concat
  let resize = zext
  let mux = mux
  let alu ctx op a b ~carry = (alu ctx op a b ~carry, { op; a; b; carry })
  let flag ctx f fl = alu_flag ctx fl f.op f.a f.b ~carry:f.carry
  let load ctx s a = mem_sel ctx s.st_mem (zext ctx 62 a)
  let store ctx s a v = s.st_mem <- mem_store ctx s.st_mem (zext ctx 62 a) v
end)

(* One microinstruction's worth of operations, phase by phase — the
   symbolic [Sim.step] body (sequencing excluded; the validator compares
   that structurally). *)
let exec_word ctx (d : Desc.t) (s : store) (ops : Inst.op list) =
  Array.iter
    (fun ops ->
      if P.exec_phase ctx d s.st_regs s.st_flags s ops then
        s.st_acks <- s.st_acks + 1)
    (Phase.split d ops)

(* Pairwise store comparison goals, for [decide]. *)
let store_pairs (a : store) (b : store) =
  let regs =
    Array.to_list (Array.map2 (fun x y -> (x, y)) a.st_regs b.st_regs)
  in
  let flags =
    Array.to_list (Array.map2 (fun x y -> (x, y)) a.st_flags b.st_flags)
  in
  regs @ flags @ [ (a.st_mem, b.st_mem) ]

(* -- printing (debugging / findings) --------------------------------------- *)

let pp_assignment ppf a =
  Fmt.(list ~sep:sp (fun ppf (n, v) -> pf ppf "%s=%a" n Bitvec.pp v)) ppf a
