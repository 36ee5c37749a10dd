(* The benchmark harness: regenerates every table and figure of
   EXPERIMENTS.md, then times the toolkit's key kernels with Bechamel
   (one Test.make per experiment id).

     dune exec bench/main.exe *)

open Msl_machine
module Core = Msl_core
module Experiments = Msl_core.Experiments
module Pipeline = Msl_mir.Pipeline
module Compaction = Msl_mir.Compaction
module Regalloc = Msl_mir.Regalloc
module Trace = Msl_util.Trace
module Clock = Msl_util.Clock

(* -- part 1: the tables ------------------------------------------------------ *)

let print_tables () =
  Fmt.pr
    "=============================================================@.\
     Reproduction tables for Sint (1980), \"A survey of high level@.\
     microprogramming languages\" — see EXPERIMENTS.md for the@.\
     paper-vs-measured discussion of every row.@.\
     =============================================================@.@.";
  List.iter
    (fun t ->
      Msl_util.Tbl.print t;
      print_newline ())
    (Experiments.all_tables ())

(* -- part 2: Bechamel micro-benchmarks --------------------------------------- *)

open Bechamel

let compile_simpl_fpmul () =
  ignore
    (Core.Toolkit.compile Core.Toolkit.Simpl Machines.h1
       Core.Handcoded.simpl_fpmul)

let compile_yalll_v11 () =
  ignore
    (Core.Toolkit.compile Core.Toolkit.Yalll Machines.v11
       Core.Handcoded.yalll_translit_v11)

let compaction_ops =
  Core.Workloads.compaction_block Machines.hp3 ~seed:42 ~n:16 ~p_dep:30

let compact algo () =
  ignore (Compaction.compact ~algo Machines.hp3 compaction_ops)

let pressure_src = Core.Workloads.pressure_program ~seed:7 ~nvars:32 ~nops:100

let allocate strategy () =
  (* -O0: this measures the allocator, not what the optimizer leaves it *)
  ignore
    (Core.Toolkit.compile
       ~options:
         { Pipeline.default_options with strategy; pool_limit = Some 8;
           opt_level = 0 }
       Core.Toolkit.Empl Machines.hp3 pressure_src)

let compile_at opt_level () =
  ignore
    (Core.Toolkit.compile
       ~options:{ Pipeline.default_options with opt_level }
       Core.Toolkit.Empl Machines.hp3 pressure_src)

let sim_dot =
  let c = Core.Toolkit.compile Core.Toolkit.Yalll Machines.hp3 Core.Handcoded.yalll_dot in
  fun () ->
    let sim = Core.Toolkit.load c in
    Memory.load_ints (Sim.memory sim) ~base:100 [ 1; 2; 3; 4; 5; 6; 7; 8 ];
    Memory.load_ints (Sim.memory sim) ~base:200 [ 8; 7; 6; 5; 4; 3; 2; 1 ];
    Sim.set_reg_int sim "R1" 100;
    Sim.set_reg_int sim "R2" 200;
    Sim.set_reg_int sim "R3" 8;
    ignore (Sim.run sim)

let sstar_verify =
  let prog =
    Msl_sstar.Parser.parse
      "program Z;\nvar x : seq [7..0] bit at R1;\npre { x < 100 };\n\
       post { x = 0 };\n\
       begin while x <> 0 inv { x < 100 } do x := x - 1 od end\n"
  in
  fun () -> ignore (Msl_sstar.Verify.verify Machines.hp3 prog)

let emulate =
  fun () ->
    ignore
      (Core.Emulator.run Core.Emulator.dot_macro
         ~setup:
           (Core.Emulator.dot_setup ~x:[ 1; 2; 3; 4 ] ~y:[ 4; 3; 2; 1 ]))

(* -- the batch-compilation service: cold vs warm cache, 1 vs N domains -------- *)

let corpus =
  List.init 64 (fun i ->
      Core.Service.job
        ~id:(Printf.sprintf "w%02d" i)
        Core.Toolkit.Yalll ~machine:"hp3"
        ~source:(Core.Workloads.yalll_program ~seed:(i + 1) ~len:24))

let batch_cold ~domains () =
  let s = Core.Service.create ~domains () in
  ignore (Core.Service.run_batch s corpus)

let warm_service =
  lazy
    (let s = Core.Service.create ~domains:1 () in
     ignore (Core.Service.run_batch s corpus);
     s)

let batch_warm () =
  ignore (Core.Service.run_batch ~domains:1 (Lazy.force warm_service) corpus)

(* A direct wall-clock comparison, printed with the tables: the claim the
   cache exists to support (EXPERIMENTS.md, "S1") is that the warm path
   beats the cold path. *)
let print_service_comparison () =
  let wall f =
    let t0 = Clock.now_s () in
    f ();
    Clock.elapsed_s t0
  in
  let n = List.length corpus in
  Fmt.pr "== S1: batch service over a %d-program YALLL corpus ==@." n;
  let cold1 = wall (batch_cold ~domains:1) in
  let cold4 = wall (batch_cold ~domains:4) in
  let s = Core.Service.create ~domains:1 () in
  ignore (Core.Service.run_batch s corpus);
  let warm = wall (fun () -> ignore (Core.Service.run_batch ~domains:1 s corpus)) in
  Fmt.pr "cold cache, 1 domain   %8.2f ms@." (cold1 *. 1e3);
  Fmt.pr "cold cache, 4 domains  %8.2f ms@." (cold4 *. 1e3);
  Fmt.pr "warm cache             %8.2f ms@." (warm *. 1e3);
  Fmt.pr "warm %s cold (%.0fx)@.@."
    (if warm < cold1 then "beats" else "does NOT beat")
    (if warm > 0.0 then cold1 /. warm else Float.infinity);
  (* The persistent layer: a cold run that also writes the disk cache,
     then a fresh service (empty memory cache, same directory) standing
     in for a process restart. *)
  let dir = Filename.temp_dir "msl_bench_cache" "" in
  Fmt.pr "== S1b: the same corpus through the on-disk cache ==@.";
  let s_cold = Core.Service.create ~domains:1 ~cache_dir:dir () in
  let disk_cold = wall (fun () -> ignore (Core.Service.run_batch s_cold corpus)) in
  let s_warm = Core.Service.create ~domains:1 ~cache_dir:dir () in
  let disk_warm = wall (fun () -> ignore (Core.Service.run_batch s_warm corpus)) in
  let st = Core.Service.stats s_warm in
  Fmt.pr "cold run + disk stores %8.2f ms  (%d stores)@." (disk_cold *. 1e3)
    (Core.Service.stats s_cold).Core.Service.st_disk_stores;
  Fmt.pr "restart, disk-warm     %8.2f ms  (%d/%d jobs from disk)@."
    (disk_warm *. 1e3) st.Core.Service.st_disk_hits st.Core.Service.st_jobs;
  Fmt.pr "disk-warm %s recompiling (%.0fx)@.@."
    (if disk_warm < cold1 then "beats" else "does NOT beat")
    (if disk_warm > 0.0 then cold1 /. disk_warm else Float.infinity);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* L1: static-analyzer throughput — the full validate_machine re-check
   (races + encoding + reachability) over a precompiled mixed corpus,
   the cost a batch lint= gate adds to every job. *)
let lint_corpus =
  lazy
    (List.init 16 (fun i ->
         let d = List.nth [ Machines.hp3; Machines.v11; Machines.b17 ] (i mod 3) in
         let c =
           Core.Toolkit.compile Core.Toolkit.Yalll d
             (Core.Workloads.yalll_program ~seed:(i + 1) ~len:20)
         in
         (d, c.Core.Toolkit.c_labels, c.Core.Toolkit.c_insts)))

let lint_validate () =
  List.iter
    (fun (d, labels, insts) ->
      ignore (Msl_mir.Lint.validate_machine ~labels d insts))
    (Lazy.force lint_corpus)

(* S2: where does compile time go?  Sum the pass manager's per-pass wall
   clock over a mixed corpus — the observability half of the pass-manager
   refactor, printed with the tables (and in --smoke runs). *)
let print_pass_breakdown () =
  let corpus =
    List.init 24 (fun i ->
        (Core.Toolkit.Empl, Machines.hp3,
         Core.Workloads.pressure_program ~seed:(i + 1) ~nvars:16 ~nops:40))
    @ List.init 24 (fun i ->
          (Core.Toolkit.Yalll,
           List.nth [ Machines.hp3; Machines.v11; Machines.b17 ] (i mod 3),
           Core.Workloads.yalll_program ~seed:(i + 1) ~len:20))
  in
  let totals = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (lang, d, src) ->
      let c = Core.Toolkit.compile lang d src in
      List.iter
        (fun (t : Msl_mir.Passmgr.timing) ->
          let name = t.Msl_mir.Passmgr.t_pass in
          if not (Hashtbl.mem totals name) then order := name :: !order;
          Hashtbl.replace totals name
            (t.Msl_mir.Passmgr.t_ms
            +. try Hashtbl.find totals name with Not_found -> 0.0))
        c.Core.Toolkit.c_timings)
    corpus;
  let grand = Hashtbl.fold (fun _ ms acc -> acc +. ms) totals 0.0 in
  Fmt.pr "== S2: per-pass compile time over a %d-program corpus (-O1) ==@."
    (List.length corpus);
  List.iter
    (fun name ->
      let ms = Hashtbl.find totals name in
      Fmt.pr "%-15s %8.3f ms  %5.1f%%@." name ms
        (if grand > 0.0 then 100.0 *. ms /. grand else 0.0))
    (List.rev !order);
  Fmt.pr "%-15s %8.3f ms@.@." "total" grand

(* S3: the tracing layer.  The contract the instrumentation lives on is
   that the disabled path is one branch and allocates nothing, so the
   simulator loop and the service cache can carry it unconditionally.
   Pinned two ways: a Bechamel kernel (disabled emission cost per call)
   and a hard minor-heap assertion printed with the tables. *)
let trace_disabled_kernel () =
  for i = 0 to 999 do
    Trace.counter ~cat:"bench" "noop" i;
    Trace.instant ~cat:"bench" "noop"
  done

let print_trace_overhead () =
  assert (not (Trace.enabled ()));
  let w0 = Gc.minor_words () in
  trace_disabled_kernel ();
  let dw = Gc.minor_words () -. w0 in
  let wall f =
    let t0 = Clock.now_s () in
    f ();
    Clock.elapsed_s t0
  in
  let workload () = compile_simpl_fpmul (); sim_dot () in
  workload () (* warm the allocator and code paths once *);
  let rounds = 20 in
  let off = wall (fun () -> for _ = 1 to rounds do workload () done) in
  let tmp = Filename.temp_file "msl_trace" ".jsonl" in
  Trace.enable_file tmp;
  let on = wall (fun () -> for _ = 1 to rounds do workload () done) in
  Trace.disable ();
  let events =
    match Trace.read_events tmp with Ok es -> List.length es | Error _ -> 0
  in
  Sys.remove tmp;
  Fmt.pr "== S3: tracing overhead (%d compile+simulate rounds) ==@." rounds;
  Fmt.pr "tracing disabled       %8.2f ms@." (off *. 1e3);
  Fmt.pr "tracing to a file      %8.2f ms  (%d events)@." (on *. 1e3) events;
  Fmt.pr "enabled overhead       %+7.1f%%@."
    (if off > 0.0 then 100.0 *. (on -. off) /. off else 0.0);
  Fmt.pr "disabled-path minor words per 2000 emissions: %.0f@.@." dw;
  (* a couple of words of slack for the Gc.minor_words sampling itself;
     any real per-emission allocation would show as >= 2000 words *)
  assert (dw < 100.0)

let tests =
  Test.make_grouped ~name:"msl"
    [
      (* T2: a full SIMPL compile to horizontal code *)
      Test.make ~name:"T2-compile-simpl-fpmul" (Staged.stage compile_simpl_fpmul);
      (* T3: retargeting YALLL to the baroque machine *)
      Test.make ~name:"T3-compile-yalll-v11" (Staged.stage compile_yalll_v11);
      (* T4: one Test.make per composition algorithm *)
      Test.make ~name:"T4-compact-sequential"
        (Staged.stage (compact Compaction.Sequential));
      Test.make ~name:"T4-compact-fcfs" (Staged.stage (compact Compaction.Fcfs));
      Test.make ~name:"T4-compact-critical-path"
        (Staged.stage (compact Compaction.Critical_path));
      Test.make ~name:"T4-compact-optimal"
        (Staged.stage (compact Compaction.Optimal));
      (* T5: allocation under pressure, both strategies *)
      Test.make ~name:"T5-alloc-first-fit"
        (Staged.stage (allocate Regalloc.First_fit));
      Test.make ~name:"T5-alloc-priority"
        (Staged.stage (allocate Regalloc.Priority));
      (* S2: the optimizer's own cost — the same compile at every level
         (-O2 adds the proof-gated window superoptimizer) *)
      Test.make ~name:"S2-compile-O0" (Staged.stage (compile_at 0));
      Test.make ~name:"S2-compile-O1" (Staged.stage (compile_at 1));
      Test.make ~name:"S2-compile-O2" (Staged.stage (compile_at 2));
      (* T6/T7: the simulator itself *)
      Test.make ~name:"T6-simulate-dot" (Staged.stage sim_dot);
      Test.make ~name:"F2-emulate-mac16" (Staged.stage emulate);
      (* S*/Strum verification *)
      Test.make ~name:"V-verify-loop" (Staged.stage sstar_verify);
      (* S1: the batch service — cache temperature and domain fan-out *)
      Test.make ~name:"S1-batch-cold-1domain"
        (Staged.stage (batch_cold ~domains:1));
      Test.make ~name:"S1-batch-cold-4domains"
        (Staged.stage (batch_cold ~domains:4));
      Test.make ~name:"S1-batch-warm" (Staged.stage batch_warm);
      (* L1: the post-compile static analyzer (the batch lint gate) *)
      Test.make ~name:"L1-lint-validate" (Staged.stage lint_validate);
      (* S3: 2000 emission calls with tracing disabled (the no-op path) *)
      Test.make ~name:"S3-trace-disabled" (Staged.stage trace_disabled_kernel);
    ]

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  Analyze.merge ols instances results

let print_bench () =
  Fmt.pr "== microbenchmarks (monotonic clock, ns per run) ==@.";
  let results = benchmark () in
  let rows = ref [] in
  Hashtbl.iter
    (fun _metric tbl ->
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> rows := (name, t) :: !rows
          | Some [] | None -> ())
        tbl)
    results;
  List.iter
    (fun (name, t) ->
      if t >= 1_000_000.0 then Fmt.pr "%-28s %10.2f ms@." name (t /. 1e6)
      else if t >= 1_000.0 then Fmt.pr "%-28s %10.2f us@." name (t /. 1e3)
      else Fmt.pr "%-28s %10.0f ns@." name t)
    (List.sort compare !rows)

(* -- S5: serve latency under a saturating multi-client workload ---------------- *)

module Serve = Msl_core.Serve

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float r in
    let frac = r -. float_of_int i in
    if i + 1 < n then sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))
    else sorted.(n - 1)
  end

type serve_lat = {
  sl_jobs : int;
  sl_lat : float * float * float;  (* job latency p50/p95/p99, us *)
  sl_wait : float * float * float;  (* queue wait p50/p95/p99, us *)
}

(* Run an in-process daemon with its trace on, saturate it from three
   pipelining clients (more in flight than the queue bound), and read
   the per-job latency and queue-wait distributions back out of the
   daemon's own [serve]-category spans. *)
let serve_latency () =
  let dir = Filename.temp_file "msl_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "bench.sock" in
  let tracefile = Filename.temp_file "msl_serve_trace" ".jsonl" in
  Trace.enable_file tracefile;
  let cfg =
    {
      (Serve.default_config ~socket) with
      Serve.sc_queue_cap = 8;
      sc_client_cap = 4;
      sc_domains = Some 4;
    }
  in
  let srv = Serve.start cfg in
  let nclients = 3 and n = 32 in
  let machines = [| "hp3"; "v11"; "b17" |] in
  let client k =
    let conn = Serve.Client.connect socket in
    let sender =
      Thread.create
        (fun () ->
          for i = 0 to n - 1 do
            let machine = machines.(i mod Array.length machines) in
            let source =
              Core.Workloads.yalll_program ~seed:(1 + (k * n) + i) ~len:12
            in
            Serve.Client.send_line conn
              (Serve.request ~op:"compile"
                 ~id:(Printf.sprintf "b%d-%d" k i)
                 ~language:"yalll" ~machine ~source ())
          done)
        ()
    in
    for _ = 1 to n do
      ignore (Serve.Client.recv_line conn)
    done;
    Thread.join sender;
    Serve.Client.close conn
  in
  let threads =
    List.init nclients (fun k -> Thread.create (fun () -> client k) ())
  in
  List.iter Thread.join threads;
  Serve.stop srv;
  Serve.wait srv;
  Trace.disable ();
  let events =
    match Trace.read_events tracefile with Ok es -> es | Error _ -> []
  in
  Sys.remove tracefile;
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  (* [serve]/[job] spans do not nest, so B/E pair up per domain *)
  let lat = ref [] and wait = ref [] in
  let open_b = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.ev_cat = "serve" && e.Trace.ev_name = "job" then
        match e.Trace.ev_ph with
        | "B" ->
            Hashtbl.replace open_b e.Trace.ev_tid e;
            (match List.assoc_opt "queue_wait_us" e.Trace.ev_args with
            | Some (Trace.J_num w) -> wait := w :: !wait
            | _ -> ())
        | "E" -> (
            match Hashtbl.find_opt open_b e.Trace.ev_tid with
            | Some b ->
                Hashtbl.remove open_b e.Trace.ev_tid;
                lat := (e.Trace.ev_ts -. b.Trace.ev_ts) :: !lat
            | None -> ())
        | _ -> ())
    events;
  let stats l =
    let a = Array.of_list l in
    Array.sort compare a;
    (percentile a 50.0, percentile a 95.0, percentile a 99.0)
  in
  { sl_jobs = List.length !lat; sl_lat = stats !lat; sl_wait = stats !wait }

(* -- the S4 engine gate: bench --json [--s4-floor F] -------------------------- *)

(* Machine-readable record of the compiled-engine speedup claim, written
   to BENCH_<date>.json so a regression is a diff, not a memory.  The
   floor is a hard gate: any kernel x machine row below it exits 1 (CI
   runs this with --s4-floor 3.0 — a deliberately conservative bound for
   shared runners and dev-profile builds; release builds on quiet
   hardware measure ~10x, see EXPERIMENTS.md). *)
let s4_gate ~floor =
  let rows = Experiments.s4_rows () in
  (* V1-validate: wall clock for translation-validating the honest
     example corpus (every language x machine x opt level).  A timing
     record only — it rides in the same JSON but is deliberately not an
     S4 row, so it can never trip the speedup floor. *)
  let v1_t0 = Clock.now_s () in
  let v1_rows = Experiments.v1_honest_rows () in
  let v1_ms = Clock.elapsed_s v1_t0 *. 1e3 in
  let v1_sum f = List.fold_left (fun a r -> a + f r) 0 v1_rows in
  let v1_blocks = v1_sum (fun r -> r.Experiments.v1h_blocks) in
  let v1_refuted = v1_sum (fun r -> r.Experiments.v1h_refuted) in
  let v1_unknown = v1_sum (fun r -> r.Experiments.v1h_unknown) in
  let min_speedup =
    List.fold_left
      (fun acc (r : Experiments.s4_row) -> Float.min acc r.Experiments.s4_speedup)
      infinity rows
  in
  (* T2: the compiled-vs-hand overhead at both opt levels — the number
     the superoptimizer exists to push toward the survey's +15%.  A
     timing-free record; the shape claims themselves are enforced by the
     test suite (hand <= O2 <= O1, worst O2 case below +100%). *)
  let t2_rows = Experiments.t2_rows () in
  let overhead c h =
    if h = 0 then 0.0 else 100.0 *. float_of_int (c - h) /. float_of_int h
  in
  let t2_worst =
    List.fold_left
      (fun acc (r : Experiments.t2_row) ->
        Float.max acc (overhead r.Experiments.t2_o2 r.Experiments.t2_hand))
      0.0 t2_rows
  in
  let serve = serve_latency () in
  let pass = min_speedup >= floor in
  let date =
    let t = Unix.localtime (Unix.time ()) in
    Printf.sprintf "%04d-%02d-%02d" (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1)
      t.Unix.tm_mday
  in
  let file = Printf.sprintf "BENCH_%s.json" date in
  (* each number is rounded to the digits the record reports *)
  let num ?(digits = 0) x =
    let scale = 10. ** float_of_int digits in
    Trace.J_num (Float.round (x *. scale) /. scale)
  and int n = Trace.J_num (float_of_int n)
  and str s = Trace.J_str s in
  let pcts (p50, p95, p99) =
    Trace.J_obj
      [ ("p50", num ~digits:1 p50); ("p95", num ~digits:1 p95);
        ("p99", num ~digits:1 p99) ]
  in
  let record =
    Trace.J_obj
      [
        ("experiment", str "S4");
        ("date", str date);
        ("floor", Trace.J_num floor);
        ( "rows",
          Trace.J_arr
            (List.map
               (fun (r : Experiments.s4_row) ->
                 Trace.J_obj
                   [
                     ("kernel", str r.Experiments.s4_kernel);
                     ("machine", str r.Experiments.s4_machine);
                     ("cycles_per_run", int r.Experiments.s4_cycles);
                     ("interp_cps", num r.Experiments.s4_interp_cps);
                     ("compiled_cps", num r.Experiments.s4_compiled_cps);
                     ("speedup", num ~digits:2 r.Experiments.s4_speedup);
                   ])
               rows) );
        ( "v1_validate",
          Trace.J_obj
            [
              ("ms", num ~digits:2 v1_ms);
              ("blocks", int v1_blocks);
              ("refuted", int v1_refuted);
              ("unknown", int v1_unknown);
            ] );
        ( "t2_overhead",
          Trace.J_obj
            [
              ( "rows",
                Trace.J_arr
                  (List.map
                     (fun (r : Experiments.t2_row) ->
                       Trace.J_obj
                         [
                           ("program", str r.Experiments.t2_name);
                           ("machine", str r.Experiments.t2_machine);
                           ("o1_words", int r.Experiments.t2_compiled);
                           ("o2_words", int r.Experiments.t2_o2);
                           ("hand_words", int r.Experiments.t2_hand);
                           ( "o1_pct",
                             num ~digits:1
                               (overhead r.Experiments.t2_compiled
                                  r.Experiments.t2_hand) );
                           ( "o2_pct",
                             num ~digits:1
                               (overhead r.Experiments.t2_o2
                                  r.Experiments.t2_hand) );
                         ])
                     t2_rows) );
              ("worst_o2_pct", num ~digits:1 t2_worst);
            ] );
        ( "serve_latency",
          Trace.J_obj
            [
              ("jobs", int serve.sl_jobs);
              ("latency_us", pcts serve.sl_lat);
              ("queue_wait_us", pcts serve.sl_wait);
            ] );
        ("min_speedup", num ~digits:2 min_speedup);
        ("pass", Trace.J_bool pass);
      ]
  in
  let oc = open_out file in
  output_string oc (Trace.print_json record);
  output_char oc '\n';
  close_out oc;
  List.iter
    (fun (r : Experiments.s4_row) ->
      Fmt.pr "%-22s %-4s %10.0f c/s -> %11.0f c/s  %5.1fx@."
        r.Experiments.s4_kernel r.Experiments.s4_machine
        r.Experiments.s4_interp_cps r.Experiments.s4_compiled_cps
        r.Experiments.s4_speedup)
    rows;
  Fmt.pr "V1-validate: %d blocks in %.1f ms (%d refuted, %d unknown)@."
    v1_blocks v1_ms v1_refuted v1_unknown;
  Fmt.pr "T2-overhead: worst -O2 case +%.1f%% over hand code (%d rows)@."
    t2_worst (List.length t2_rows);
  (let l50, l95, l99 = serve.sl_lat and w50, w95, w99 = serve.sl_wait in
   Fmt.pr
     "S5-serve: %d jobs, latency %.0f/%.0f/%.0f us, queue wait \
      %.0f/%.0f/%.0f us (p50/p95/p99)@."
     serve.sl_jobs l50 l95 l99 w50 w95 w99);
  Fmt.pr "wrote %s (min speedup %.1fx, floor %.1fx): %s@." file min_speedup
    floor
    (if pass then "PASS" else "FAIL");
  if not pass then exit 1

let () =
  (* --json: the S4 engine gate only (CI's engine-gate job).
     --smoke (CI): tables and the service comparison, no Bechamel suite. *)
  let has f = Array.exists (( = ) f) Sys.argv in
  let floor =
    let v = ref 3.0 in
    Array.iteri
      (fun i a ->
        if a = "--s4-floor" && i + 1 < Array.length Sys.argv then
          v := float_of_string Sys.argv.(i + 1))
      Sys.argv;
    !v
  in
  if has "--json" then s4_gate ~floor
  else begin
    let smoke = has "--smoke" in
    print_tables ();
    print_service_comparison ();
    print_pass_breakdown ();
    print_trace_overhead ();
    if not smoke then print_bench ()
  end
