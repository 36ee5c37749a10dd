(* simulate: precompiled programs run to halt on both engines.

   Each op is Toolkit.load plus execution to halt on one engine: the
   interpreter (Sim, the library default and Simc's fallback) or the
   compiled engine (Simc.translate + Simc.run, the `mslc run`
   default).  Every program runs on both, and the two final state
   digests must agree.  Long runs are the S4 kernels with seeded inputs
   (10^4-10^5 cycles); short runs are the looping examples, where load
   and translation costs show; one poll-point program runs under a
   seeded interrupt schedule, so Simc falls back to Sim.step at its
   Int_ack words. *)

open Common
open Msl_machine
module Toolkit = Msl_core.Toolkit
module Workloads = Msl_core.Workloads

type program = {
  p_name : string;
  p_compiled : Toolkit.compiled;
  p_setup : Sim.t -> unit;
  p_expect : (string * (Sim.t -> int) * int) list;
      (* location, how to read it, the answer computed here *)
  p_long : bool;
}

let mask w v = if w >= 62 then v else v land ((1 lsl w) - 1)
let reg name sim = Msl_bitvec.Bitvec.to_int (Sim.get_reg sim name)
let mem addr sim = Msl_bitvec.Bitvec.to_int (Memory.peek (Sim.memory sim) addr)
let width d name =
  (Array.to_list d.Desc.d_regs
  |> List.find (fun r -> String.lowercase_ascii r.Desc.r_name = String.lowercase_ascii name))
    .Desc.r_width

(* "(R0 = 21 on exit)" or "(mem[61] = 56 on exit)" in an example's
   header comment. *)
let header_answer src =
  let re_reg = Str.regexp "(\\([A-Za-z][A-Za-z0-9]*\\) = \\([0-9]+\\) on exit)" in
  let re_mem = Str.regexp "(mem\\[\\([0-9]+\\)\\] = \\([0-9]+\\) on exit)" in
  if (try ignore (Str.search_forward re_mem src 0); true with Not_found -> false) then
    let a = int_of_string (Str.matched_group 1 src) and v = int_of_string (Str.matched_group 2 src) in
    Some (Printf.sprintf "mem[%d]" a, mem a, v)
  else if (try ignore (Str.search_forward re_reg src 0); true with Not_found -> false) then
    let r = Str.matched_group 1 src and v = int_of_string (Str.matched_group 2 src) in
    Some (r, reg r, v)
  else None

(* Answers of the looping examples whose header gives none, from their
   text: mpy.simpl multiplies 11 by 9 into R3, sum_while.simpl sums
   25..1 into R2. *)
let known_answers = [ ("mpy.simpl", ("R3", 11 * 9)); ("sum_while.simpl", ("R2", 325)) ]

let programs cfg =
  let rng = Random.State.make [| cfg.seed; 0x5117 |] in
  let compile ?(options = Msl_mir.Pipeline.default_options) lang m src =
    Toolkit.compile ~options lang (Machines.get m) src
  in
  (* The seed draws the operands; the loop trip counts, and so the
     cycles per pass, stay within a few percent across seeds. *)
  let mpy m =
    let r1 = 20_000 + Random.State.int rng 500 and r2 = 1 + Random.State.int rng 999 in
    let d = Machines.get m in
    {
      p_name = Printf.sprintf "mpy.simpl-kernel@%s" m;
      p_compiled = compile Toolkit.Simpl m Msl_core.Handcoded.simpl_mpy;
      p_setup = (fun sim -> Sim.set_reg_int sim "R1" r1; Sim.set_reg_int sim "R2" r2);
      p_expect = [ ("R3", reg "R3", mask (width d "R3") (r1 * r2)) ];
      p_long = true;
    }
  in
  let dot m =
    let n = 64 in
    let x = List.init n (fun _ -> 1 + Random.State.int rng 97) in
    (* the inner loop runs y[i] times: y is a seeded permutation of 1..n *)
    let y = Array.init n (fun i -> i + 1) in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = y.(i) in
      y.(i) <- y.(j);
      y.(j) <- t
    done;
    let y = Array.to_list y in
    let d = Machines.get m in
    {
      p_name = Printf.sprintf "dot.yll-kernel@%s" m;
      p_compiled = compile Toolkit.Yalll m Msl_core.Handcoded.yalll_dot;
      p_setup =
        (fun sim ->
          Memory.load_ints (Sim.memory sim) ~base:1024 x;
          Memory.load_ints (Sim.memory sim) ~base:2048 y;
          Sim.set_reg_int sim "R1" 1024;
          Sim.set_reg_int sim "R2" 2048;
          Sim.set_reg_int sim "R3" n);
      p_expect =
        [ ("R0", reg "R0", mask (width d "R0") (List.fold_left2 (fun a p q -> a + (p * q)) 0 x y)) ];
      p_long = true;
    }
  in
  let kernels =
    List.map mpy (if cfg.small then [ "hp3" ] else [ "hp3"; "h1"; "b17" ])
    @ List.map dot (if cfg.small then [ "b17" ] else [ "hp3"; "v11"; "b17" ])
  in
  let examples =
    List.concat_map
      (fun (f, lang, src) ->
        let answer =
          match header_answer src with
          | Some a -> Some a
          | None ->
              Option.map (fun (r, v) -> (r, reg r, v)) (List.assoc_opt f known_answers)
        in
        match answer with
        | None -> []
        | Some a ->
            List.map
              (fun m ->
                {
                  p_name = f ^ "@" ^ m;
                  p_compiled = compile lang m src;
                  p_setup = ignore;
                  p_expect = [ a ];
                  p_long = false;
                })
              (Corpus.machines_of lang))
      (Corpus.examples ())
  in
  let poll =
    let r1 = 1_000 + Random.State.int rng 50 and r2 = 1 + Random.State.int rng 99 in
    let sched = Workloads.interrupt_schedule ~seed:cfg.seed ~n:12 ~max_cycle:(2 * r1) in
    {
      p_name = "mpy.simpl-poll@hp3";
      p_compiled =
        compile
          ~options:{ Msl_mir.Pipeline.default_options with Msl_mir.Pipeline.poll = true }
          Toolkit.Simpl "hp3" Msl_core.Handcoded.simpl_mpy;
      p_setup =
        (fun sim ->
          Sim.set_reg_int sim "R1" r1;
          Sim.set_reg_int sim "R2" r2;
          Sim.schedule_interrupts sim sched);
      p_expect = [ ("R3", reg "R3", mask (width (Machines.get "hp3") "R3") (r1 * r2)) ];
      p_long = false;
    }
  in
  kernels @ examples @ [ poll ]

let engines = [ Toolkit.Interp; Toolkit.Compiled ]
let fuel = 10_000_000

(* One op: load, set the inputs, run to halt.  Spans split it into the
   layers: toolkit.load, sim.run or simc.translate + simc.run. *)
let op acc (p : program) engine =
  let sim = Spans.span "toolkit.load" (fun () -> Toolkit.load p.p_compiled) in
  p.p_setup sim;
  let status =
    match engine with
    | Toolkit.Interp -> Spans.span "sim.run" (fun () -> Sim.run ~fuel sim)
    | Toolkit.Compiled ->
        let t = Spans.span "simc.translate" (fun () -> Simc.translate sim) in
        Option.iter
          (fun acc ->
            Acc.addi acc "simc.native_words" (Simc.native_words t);
            Acc.addi acc "simc.fallback_words" (Simc.fallback_words t))
          acc;
        Spans.span "simc.run" (fun () -> Simc.run ~fuel t)
  in
  (sim, status)

(* The oracle for one program: both engines halted, their digests agree
   and every expected answer holds.  The planted wrong answer is off by
   one in the first program's first location. *)
let check cfg i (p : program) outs =
  match outs with
  | [ (si, Sim.Halted); (sc, Sim.Halted) ] ->
      String.equal (Sim.state_digest si) (Sim.state_digest sc)
      && List.for_all
           (fun (_, read, v) ->
             let v = if cfg.plant && i = 0 then v + 1 else v in
             read si = v && read sc = v)
           p.p_expect
  | _ -> false

let setup cfg () =
  let t0 = Util.now () in
  ignore (Corpus.elaborate ());
  let elaborate_ms = (Util.now () -. t0) *. 1e3 in
  (Array.of_list (programs cfg), elaborate_ms)

let inputs progs =
  let n = Array.length progs in
  let long = Array.fold_left (fun k p -> if p.p_long then k + 1 else k) 0 progs in
  [
    ("programs", Util.Int n);
    ("long_runs", Util.Int long);
    ("short_runs", Util.Int (n - long));
    ("engines", Util.Arr [ Util.Str "interp"; Util.Str "compiled" ]);
    ("names", Util.Arr (Array.to_list (Array.map (fun p -> Util.Str p.p_name) progs)));
    (* every program's initial state, as loaded and set up *)
    ( "input_digest",
      Util.Str
        (Digest.to_hex
           (Digest.string
              (String.concat ""
                 (Array.to_list
                    (Array.map
                       (fun p ->
                         let sim = Toolkit.load p.p_compiled in
                         p.p_setup sim;
                         Sim.state_digest sim)
                       progs))))) );
  ]

let words progs = Array.fold_left (fun k p -> k + p.p_compiled.Toolkit.c_words) 0 progs

(* One pass over the program set on both engines.  Returns per-engine
   op latencies (s), cycles per engine, and the programs that failed.
   An op is timed on the process's CPU clock: simulation runs on one
   domain, so that is its cost, less the time the process waited for
   the host. *)
let pass cfg ?acc progs =
  let lat_i = ref [] and lat_c = ref [] and cycles = ref 0 and failed = ref 0 in
  Array.iteri
    (fun i p ->
      let outs =
        List.map
          (fun engine ->
            Spans.new_op ();
            let t0 = Util.cpu_now () in
            let sim, status = op acc p engine in
            let dt = Util.cpu_now () -. t0 in
            (match engine with
            | Toolkit.Interp ->
                lat_i := dt :: !lat_i;
                cycles := !cycles + Sim.cycles sim;
                Option.iter
                  (fun acc ->
                    Acc.addi acc "sim.cycles" (Sim.cycles sim);
                    Acc.addi acc "sim.insts" (Sim.insts_executed sim);
                    Acc.addi acc "sim.interrupts_serviced" (Sim.interrupts_serviced sim);
                    Acc.addi acc "sim.traps" (Sim.traps_taken sim))
                  acc
            | Toolkit.Compiled -> lat_c := dt :: !lat_c);
            (sim, status))
          engines
      in
      if not (check cfg i p outs) then incr failed)
    progs;
  (!lat_i, !lat_c, !cycles, !failed)

(* Peak RSS is read after this many passes (see Wbuild.rss_rounds). *)
let rss_passes = 20

let run_untraced cfg =
  let progs, elaborate_ms = timed_setup (setup cfg) in
  let windows = ref [] and failed = ref 0 and attempted = ref 0 and rss = ref nan in
  let interp_s = ref 0.0 and compiled_s = ref 0.0 and cycles = ref 0 and pass_cycles = ref 0 in
  let wall0 = Util.now () in
  let rounds =
    timed_rounds cfg ~min_rounds:2 (fun r ->
        let li, lc, c, f = pass cfg progs in
        let ms = List.map (fun x -> x *. 1e3) (li @ lc) in
        (* a window is one pass: its median op, its slowest op *)
        windows :=
          { w_ops = List.length ms; w_secs = Util.sum (li @ lc); w_p50_ms = Util.median ms;
            w_tail_ms = Util.quantile 0.99 ms }
          :: !windows;
        if r + 1 = rss_passes then rss := Util.peak_rss_mb ();
        attempted := !attempted + List.length ms;
        failed := !failed + (2 * f);
        interp_s := !interp_s +. Util.sum li;
        compiled_s := !compiled_s +. Util.sum lc;
        cycles := !cycles + c;
        pass_cycles := c;
        resample_setup cfg (setup cfg))
  in
  let setup_s = setup_time cfg (setup cfg) in
  let wall = Util.now () -. wall0 in
  if Float.is_nan !rss then rss := Util.peak_rss_mb ();
  {
    attempted = !attempted;
    failed = !failed;
    metrics =
      [ ("setup_s", setup_s, "s") ]
      @ window_metrics ~fast:true !windows
      @ [ ("peak_rss_mb", !rss, "MB"); ("control_words", float_of_int (words progs), "words") ];
    inputs = inputs progs;
    detail =
      [
        ("passes", Util.Int rounds);
        ("op", Util.Str "Toolkit.load + run to halt on one engine");
        ("window", Util.Str "one pass over the programs on both engines; tail = p99 op");
        ("clock", Util.Str "process CPU time");
        (* set-up samples included *)
        ("wall_ops_per_s", Util.Num (float_of_int !attempted /. wall));
        ("failed_ratio", Util.Num (Util.ratio (float_of_int !failed) (float_of_int !attempted)));
        ("sim_cycles", Util.Int !pass_cycles);
        (* whole ops: load (and translation) included *)
        ("interp_op_mcycles_per_s", Util.Num (float_of_int !cycles /. !interp_s /. 1e6));
        ("compiled_op_mcycles_per_s", Util.Num (float_of_int !cycles /. !compiled_s /. 1e6));
        ("elaborate_ms", Util.Num elaborate_ms);
      ]
      @ window_medians !windows;
  }

let run_traced cfg =
  let progs, elaborate_ms = timed_setup (setup cfg) in
  let traced = ref [] and on_secs = ref [] and off_secs = ref [] and failed = ref 0 in
  let passes = ref 0 in
  let _ =
    timed_rounds cfg ~min_rounds:4 (fun r ->
        Spans.on := r mod 2 = 0;
        let acc = Acc.create () in
        let since = Spans.last_id () in
        let g0 = gc_snapshot () in
        let t0 = Util.cpu_now () in
        let _, _, _, f = pass cfg ~acc progs in
        let secs = Util.cpu_now () -. t0 in
        add_gc acc g0 (gc_snapshot ());
        failed := !failed + (2 * f);
        incr passes;
        if !Spans.on then begin
          Layers.add_span_times acc ~since;
          (* engine speed: cycles per second of Sim.run / Simc.run *)
          let cycles = Acc.get acc "sim.cycles" in
          Acc.set acc "interp_mcycles_per_s" (cycles /. Acc.get acc "sim.interp_ms" /. 1e3);
          Acc.set acc "compiled_mcycles_per_s" (cycles /. Acc.get acc "simc.run_ms" /. 1e3);
          let native = Acc.get acc "simc.native_words" in
          Acc.set acc "simc.native_ratio"
            (Util.ratio native (native +. Acc.get acc "simc.fallback_words"));
          Acc.set acc "trace.spans" (float_of_int (Spans.last_id () - since));
          traced := acc :: !traced;
          on_secs := secs :: !on_secs
        end
        else off_secs := secs :: !off_secs)
  in
  Spans.on := false;
  let acc = median_tables !traced in
  Acc.set acc "mdesc.elaborate_ms" elaborate_ms;
  Acc.set acc "trace.overhead_pct"
    (100.0 *. (Util.ratio (Util.median !on_secs) (Util.median !off_secs) -. 1.0));
  {
    attempted = !passes * 2 * Array.length progs;
    failed = !failed;
    metrics = List.map (fun (name, unit) -> (name, Acc.get acc name, unit)) Layers.all;
    inputs = inputs progs;
    detail = [ ("passes_traced", Util.Int (List.length !traced)) ];
  }

let run cfg = if cfg.trace then run_traced cfg else run_untraced cfg
