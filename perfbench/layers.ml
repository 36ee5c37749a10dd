(* Per-layer metrics: their names and units (the per_layer list of
   BENCHMARK.json, which run.py checks against), and the traced
   decomposition of one compile job into calls on each layer's public
   functions. *)

open Msl_machine
module Toolkit = Msl_core.Toolkit
module Service = Msl_core.Service
module Pipeline = Msl_mir.Pipeline
module Acc = Common.Acc

let langs = [ "simpl"; "empl"; "yalll"; "sstar" ]

let mir_passes =
  [ "validate"; "const-fold"; "copy-prop"; "branch-simplify"; "jump-thread";
    "dce"; "lower"; "regalloc"; "select-compact"; "superopt"; "link" ]

(* Every per-layer metric, in report order.  A traced run reports each
   one; a layer the workload does not reach reads 0. *)
let all =
  List.concat_map
    (fun l ->
      [ ("fe." ^ l ^ ".parse_ms", "ms"); ("fe." ^ l ^ ".lower_ms", "ms");
        ("fe." ^ l ^ ".kb_per_s", "KB/s") ])
    langs
  @ List.map (fun p -> ("mir." ^ p ^ "_ms", "ms")) mir_passes
  @ [
      ("mir.unattributed_ms", "ms"); ("toolkit.compile_ms", "ms");
      ("toolkit.unattributed_ms", "ms"); ("mir.stmts_in", "count");
      ("mir.stmts_after_opt", "count");
      ("regalloc.spilled", "count"); ("regalloc.spill_loads", "count");
      ("regalloc.spill_stores", "count"); ("compact.words", "words");
      ("compact.ops", "count"); ("compact.search_nodes", "count");
      ("compact.inexact_blocks", "count");
      ("superopt.windows", "count"); ("superopt.accepted", "count");
      ("superopt.rejected", "count"); ("superopt.accept_ratio", "ratio");
      ("superopt.words_saved", "words"); ("superopt.search_nodes", "count");
      ("superopt.memo_hit_ratio", "ratio");
      ("encode.ms", "ms"); ("encode.bits", "bits");
      ("tv.ms", "ms"); ("tv.blocks", "count"); ("tv.proved", "count");
      ("tv.dynamic", "count"); ("tv.refuted", "count"); ("tv.unknown", "count");
      ("tv.proved_ratio", "ratio");
      ("lint.ms", "ms"); ("lint.errors", "count"); ("lint.warnings", "count");
      ("service.batch_ms", "ms"); ("service.fanout_efficiency", "ratio");
      ("service.hits", "count"); ("service.misses", "count");
      ("service.hit_ratio", "ratio"); ("service.disk_hits", "count");
      ("service.disk_stores", "count"); ("service.disk_hit_us", "us");
      ("service.miss_us", "us"); ("service.retries", "count");
      ("service.errors", "count");
      ("serve.queue_wait_p50_us", "us"); ("serve.queue_wait_p99_us", "us");
      ("serve.job_p50_us", "us"); ("serve.job_p99_us", "us");
      ("serve.wire_p50_us", "us"); ("serve.queue_peak", "count");
      ("serve.hit_ratio", "ratio"); ("serve.resp_errors", "count");
      ("sim.interp_ms", "ms"); ("sim.cycles", "cycles"); ("sim.insts", "count");
      ("sim.interrupts_serviced", "count"); ("sim.traps", "count");
      ("simc.translate_ms", "ms"); ("simc.run_ms", "ms");
      ("simc.native_words", "words"); ("simc.fallback_words", "words");
      ("simc.native_ratio", "ratio"); ("toolkit.load_ms", "ms");
      ("interp_mcycles_per_s", "Mcycles/s"); ("compiled_mcycles_per_s", "Mcycles/s");
      ("mdesc.elaborate_ms", "ms");
      ("gc.minor_collections", "count"); ("gc.major_collections", "count");
      ("gc.minor_mwords", "Mwords");
      ("trace.overhead_pct", "%"); ("trace.spans", "count");
    ]

(* Span self times of one pass, in ms, into the layer table under the
   metric names above. *)
let add_span_times acc ~since =
  let self = Spans.self_times ~since () in
  let ms name = 1e3 *. Option.value ~default:0.0 (Hashtbl.find_opt self name) in
  List.iter
    (fun l ->
      Acc.add acc ("fe." ^ l ^ ".parse_ms") (ms ("fe." ^ l ^ ".parse"));
      Acc.add acc ("fe." ^ l ^ ".lower_ms") (ms ("fe." ^ l ^ ".lower")))
    langs;
  List.iter (fun p -> Acc.add acc ("mir." ^ p ^ "_ms") (ms ("mir." ^ p))) mir_passes;
  Acc.add acc "mir.unattributed_ms" (ms "mir.pipeline");
  List.iter
    (fun (metric, span) -> Acc.add acc metric (ms span))
    [ ("encode.ms", "encode"); ("tv.ms", "tv"); ("lint.ms", "lint");
      ("sim.interp_ms", "sim.run"); ("simc.translate_ms", "simc.translate");
      ("simc.run_ms", "simc.run"); ("toolkit.load_ms", "toolkit.load") ]

(* Ratios and rates are derived from the summed counts once per pass. *)
let finish_pass acc =
  List.iter
    (fun l ->
      let secs =
        (Acc.get acc ("fe." ^ l ^ ".parse_ms") +. Acc.get acc ("fe." ^ l ^ ".lower_ms"))
        /. 1e3
      in
      Acc.set acc ("fe." ^ l ^ ".kb_per_s")
        (Util.ratio (Acc.get acc ("fe." ^ l ^ ".bytes") /. 1024.0) secs))
    langs;
  let so = Acc.get acc in
  Acc.set acc "superopt.accept_ratio"
    (Util.ratio (so "superopt.accepted") (so "superopt.accepted" +. so "superopt.rejected"));
  Acc.set acc "superopt.memo_hit_ratio"
    (Util.ratio (so "superopt.memo_hits") (so "superopt.memo_hits" +. so "superopt.memo_misses"));
  Acc.set acc "tv.proved_ratio" (Util.ratio (so "tv.proved") (so "tv.blocks"));
  Acc.set acc "service.hit_ratio"
    (Util.ratio (so "service.hits") (so "service.hits" +. so "service.misses"))

let stmts (p : Msl_mir.Mir.program) =
  List.fold_left (fun n b -> n + List.length b.Msl_mir.Mir.b_stmts) 0 (Msl_mir.Mir.all_blocks p)

(* One compile job taken apart: front end (parse, lower to MIR), the
   MIR pipeline with its own per-pass timings as child spans, encoding,
   the listing, translation validation of every block and superopt
   rewrite, Microlint, and the same job through Toolkit.compile (the
   service compiles a gated job twice: once for the cache, once to
   capture the validator's input).  Counts go into [acc]. *)
let compile_job acc (j : Service.job) =
  let d = Machines.get j.Service.j_machine in
  let lk = Corpus.lang_key j.Service.j_language in
  let src = j.Service.j_source in
  let options = j.Service.j_options in
  Acc.addi acc ("fe." ^ lk ^ ".bytes") (String.length src);
  let fe what f = Spans.span ("fe." ^ lk ^ "." ^ what) f in
  let insts, labels, artifacts, rewrites =
    match j.Service.j_language with
    | Toolkit.Sstar ->
        let ast = fe "parse" (fun () -> Msl_sstar.Parser.parse src) in
        let insts, labels = fe "lower" (fun () -> Msl_sstar.Compile.compile d ast) in
        Acc.addi acc "compact.words" (List.length insts);
        (insts, labels, [], [])
    | lang ->
        let mir =
          match lang with
          | Toolkit.Simpl ->
              let ast = fe "parse" (fun () -> Msl_simpl.Parser.parse src) in
              fe "lower" (fun () -> Msl_simpl.Compile.compile d ast)
          | Toolkit.Empl ->
              let ast = fe "parse" (fun () -> Msl_empl.Parser.parse src) in
              fe "lower" (fun () ->
                  Msl_empl.Compile.compile ~use_microops:j.Service.j_use_microops d ast)
          | _ ->
              let ast = fe "parse" (fun () -> Msl_yalll.Parser.parse src) in
              fe "lower" (fun () -> Msl_yalll.Compile.compile d ast)
        in
        let artifacts = ref [] and rewrites = ref [] in
        (* IR size as the front end left it, and as it reaches "lower"
           (after the -O1 passes, when they ran) *)
        let last = ref 0 in
        let observe pass p =
          if pass = "validate" then Acc.addi acc "mir.stmts_in" (stmts p);
          if pass = "lower" then Acc.addi acc "mir.stmts_after_opt" !last;
          last := stmts p
        in
        let insts, labels, m =
          Spans.span "mir.pipeline" (fun () ->
              let r =
                Pipeline.compile ~options ~observe
                  ~capture:(fun a -> artifacts := a :: !artifacts)
                  ~superopt_capture:(fun rw -> rewrites := rw :: !rewrites)
                  d mir
              in
              let _, _, m = r in
              if !Spans.on then
                Spans.add_sequence ~parent:(Spans.current ())
                  ~t0:(Spans.current_start ())
                  (List.map
                     (fun (t : Msl_mir.Passmgr.timing) ->
                       let name =
                         if t.Msl_mir.Passmgr.t_pass = "select+compact" then "select-compact"
                         else t.Msl_mir.Passmgr.t_pass
                       in
                       ("mir." ^ name, t.Msl_mir.Passmgr.t_ms /. 1e3))
                     m.Pipeline.m_timings);
              r)
        in
        (match m.Pipeline.m_alloc with
        | Some a ->
            Acc.addi acc "regalloc.spilled" a.Msl_mir.Regalloc.spilled;
            Acc.addi acc "regalloc.spill_loads" a.Msl_mir.Regalloc.spill_loads;
            Acc.addi acc "regalloc.spill_stores" a.Msl_mir.Regalloc.spill_stores
        | None -> ());
        Acc.addi acc "compact.words" m.Pipeline.m_instructions;
        Acc.addi acc "compact.ops" m.Pipeline.m_ops;
        Acc.addi acc "compact.search_nodes" m.Pipeline.m_search_nodes;
        Acc.addi acc "compact.inexact_blocks" m.Pipeline.m_inexact_blocks;
        (match m.Pipeline.m_superopt with
        | Some s ->
            let open Msl_mir.Superopt in
            Acc.addi acc "superopt.windows" s.s_windows;
            Acc.addi acc "superopt.accepted" s.s_accepted;
            Acc.addi acc "superopt.rejected" s.s_rejected;
            Acc.addi acc "superopt.words_saved" s.s_words_saved;
            Acc.addi acc "superopt.search_nodes" s.s_search_nodes;
            Acc.addi acc "superopt.memo_hits" s.s_memo_hits;
            Acc.addi acc "superopt.memo_misses" s.s_memo_misses
        | None -> ());
        (insts, labels, List.rev !artifacts, List.rev !rewrites)
  in
  let words = Spans.span "encode" (fun () -> Encode.encode_program d insts) in
  Acc.addi acc "encode.bits" (List.length words * Encode.word_bits d);
  ignore (Spans.span "listing" (fun () -> Masm.print d insts));
  Spans.span "tv" (fun () ->
      let r = Msl_mir.Tv.validate_artifacts d artifacts in
      let bad_rewrites =
        List.length
          (List.filter
             (fun rw -> Msl_mir.Superopt.replay d rw <> Msl_mir.Tv.Validated)
             rewrites)
      in
      let open Msl_mir.Tv in
      Acc.addi acc "tv.blocks" r.v_total;
      Acc.addi acc "tv.proved" (r.v_validated - r.v_dynamic);
      Acc.addi acc "tv.dynamic" r.v_dynamic;
      Acc.addi acc "tv.refuted" (r.v_refuted + bad_rewrites);
      Acc.addi acc "tv.unknown" r.v_unknown);
  Spans.span "lint" (fun () ->
      let findings = Msl_mir.Lint.validate_machine ~labels d insts in
      Acc.addi acc "lint.errors" (List.length (Msl_mir.Diag.errors findings));
      Acc.addi acc "lint.warnings" (List.length (Msl_mir.Diag.warnings findings)));
  let t0 = Util.now () in
  let c =
    Spans.span "toolkit.compile" (fun () ->
        Toolkit.compile ~options ~use_microops:j.Service.j_use_microops
          j.Service.j_language d src)
  in
  let wall = Util.now () -. t0 in
  let passes_s =
    List.fold_left (fun s (t : Msl_mir.Passmgr.timing) -> s +. t.Msl_mir.Passmgr.t_ms) 0.0
      c.Toolkit.c_timings
    /. 1e3
  in
  Acc.add acc "toolkit.compile_ms" (wall *. 1e3);
  Acc.add acc "toolkit.unattributed_ms" ((wall -. passes_s) *. 1e3)
