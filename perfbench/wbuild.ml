(* build-cold: `mslc batch` as CI runs it, with the lint and validate
   gates on.  Each op is a job of one Service.run_batch on a fresh
   in-memory service; every job is distinct, so every probe misses. *)

open Common
open Msl_machine
module Service = Msl_core.Service
module Toolkit = Msl_core.Toolkit

let batches cfg = if cfg.small then 1 else 3
let generated cfg = if cfg.small then 16 else 320

(* What the oracle compares: words, ops, bits and the listing. *)
type signature = (int * int * int * Digest.t, string) Stdlib.result

let signature (o : Service.outcome) : signature =
  match o.Service.o_result with
  | Ok (c, listing) ->
      Ok (c.Toolkit.c_words, c.Toolkit.c_ops, c.Toolkit.c_bits, Digest.string listing)
  | Error d -> Error d.Msl_util.Diag.message

(* The same job compiled sequentially through Toolkit.compile. *)
let reference (j : Service.job) =
  Toolkit.capture (fun () ->
      let d = Machines.get j.Service.j_machine in
      let c =
        Toolkit.compile ~options:j.Service.j_options
          ~use_microops:j.Service.j_use_microops j.Service.j_language d
          j.Service.j_source
      in
      (c, Masm.print d c.Toolkit.c_insts))

type setup = { corpus : Corpus.bjob list array; elaborate_ms : float }

let setup cfg () =
  let t0 = Util.now () in
  ignore (Corpus.elaborate ());
  let elaborate_ms = (Util.now () -. t0) *. 1e3 in
  let corpus =
    Array.of_list
      (Corpus.build_corpus ~seed:cfg.seed ~batches:(batches cfg) ~generated:(generated cfg))
  in
  { corpus; elaborate_ms }

(* One round: a fresh service and one run_batch.  Returns the outcomes,
   the wall time and the service counters. *)
let round cfg jobs =
  let t0 = Util.now () in
  let svc = Service.create ~domains:cfg.domains () in
  let outs = Service.run_batch svc jobs in
  (outs, Util.now () -. t0, Service.stats svc)

let jobs_of b = List.map (fun (bj : Corpus.bjob) -> bj.Corpus.job) b

(* -- the oracle and the recorded input properties --------------------------- *)

(* Compare each batch's first-round signatures with sequential compiles;
   returns the jobs that failed per batch, the corpus words and input
   properties. *)
let check cfg s first =
  let words = ref 0 and looping = ref 0 and o2 = ref 0 and gen = ref 0 and n = ref 0 in
  let bad =
    Array.mapi
      (fun b batch ->
        let sigs : signature array = Option.get first.(b) in
        let bad = ref 0 in
        List.iteri
          (fun i (bj : Corpus.bjob) ->
            incr n;
            if bj.Corpus.o2 then incr o2;
            if bj.Corpus.generated then incr gen;
            match reference bj.Corpus.job with
            | Error _ -> incr bad
            | Ok (c, listing) ->
                words := !words + c.Toolkit.c_words;
                if Corpus.loops c then incr looping;
                let expect =
                  ( c.Toolkit.c_words + (if cfg.plant && b = 0 && i = 0 then 1 else 0),
                    c.Toolkit.c_ops,
                    c.Toolkit.c_bits,
                    Digest.string listing )
                in
                if sigs.(i) <> Ok expect then incr bad)
          batch;
        !bad)
      s.corpus
  in
  let share k = Util.Num (Util.ratio (float_of_int k) (float_of_int !n)) in
  ( bad,
    !words,
    [
      ("jobs", Util.Int !n);
      ("batches", Util.Int (Array.length s.corpus));
      ("batch_jobs", Util.Int (List.length s.corpus.(0)));
      ("share_o2", share !o2);
      ("share_looping", share !looping);
      ("share_generated", share !gen);
      ("gates", Util.Str "lint+validate");
      ("domains", Util.Int cfg.domains);
    ] )

(* -- untraced: the end-to-end metrics ------------------------------------------ *)

(* Peak RSS is read after this many rounds, not at the end: the heap
   keeps growing with the work done, and a fixed amount of work keeps
   the figure independent of how fast the host ran. *)
let rss_rounds = 30

let run_untraced cfg =
  let s = timed_setup (setup cfg) in
  let nb = Array.length s.corpus in
  let first = Array.make nb None in
  let ran = Array.make nb 0 in
  let windows = ref [] and cycle = ref [] and unstable = ref 0 and attempted = ref 0 in
  let rss = ref nan in
  let rounds =
    timed_rounds cfg ~min_rounds:(2 * nb) (fun r ->
        let b = r mod nb in
        let jobs = jobs_of s.corpus.(b) in
        let outs, dt, _ = round cfg jobs in
        let n = List.length jobs in
        cycle := (n, dt) :: !cycle;
        if b = nb - 1 then begin
          (* a window is one cycle over the batches: its median round,
             its slowest round *)
          let ms = List.map (fun (_, t) -> t *. 1e3) !cycle in
          windows :=
            { w_ops = Util.sumi (List.map fst !cycle); w_secs = Util.sum (List.map snd !cycle);
              w_p50_ms = Util.median ms; w_tail_ms = List.fold_left Float.max 0.0 ms }
            :: !windows;
          cycle := []
        end;
        if r + 1 = rss_rounds then rss := Util.peak_rss_mb ();
        attempted := !attempted + n;
        ran.(b) <- ran.(b) + 1;
        let sigs = Array.map signature outs in
        (match first.(b) with
        | None -> first.(b) <- Some sigs
        | Some f -> Array.iteri (fun i x -> if x <> f.(i) then incr unstable) sigs);
        resample_setup cfg (setup cfg))
  in
  let setup_s = setup_time cfg (setup cfg) in
  if Float.is_nan !rss then rss := Util.peak_rss_mb ();
  let bad, words, inputs = check cfg s first in
  let failed = !unstable + Util.sumi (Array.to_list (Array.mapi (fun b k -> k * ran.(b)) bad)) in
  {
    attempted = !attempted;
    failed;
    metrics =
      [ ("setup_s", setup_s, "s") ]
      @ window_metrics ~fast:false !windows
      @ [ ("peak_rss_mb", !rss, "MB"); ("control_words", float_of_int words, "words") ];
    inputs;
    detail =
      [
        ("rounds", Util.Int rounds);
        ("op", Util.Str "one job of a batch");
        ("window", Util.Str "one cycle over the batches; latency is per batch, tail = slowest batch");
        ("failed_ratio", Util.Num (Util.ratio (float_of_int failed) (float_of_int !attempted)));
        ("clock", Util.Str "wall");
        ("elaborate_ms", Util.Num s.elaborate_ms);
      ]
      @ window_medians !windows;
  }

(* -- traced: the per-layer metrics --------------------------------------------- *)

(* Time compile_job on a few jobs of a fresh service: every one a miss. *)
let time_compile_jobs jobs =
  let svc = Service.create ~domains:1 () in
  List.map
    (fun j ->
      let t0 = Util.now () in
      ignore (Spans.span "service.compile_job" (fun () -> Service.compile_job svc j));
      (Util.now () -. t0) *. 1e6)
    jobs

let first_n n l = List.filteri (fun i _ -> i < n) l

(* build-cold has no cache directory; its traced run still measures the
   disk layer: [jobs] compiled into an empty directory (misses and disk
   stores), then again by a fresh service over it (disk hits, timed). *)
let disk_probe cfg acc jobs =
  let dir = Filename.concat cfg.work "probe" in
  let svc = Service.create ~domains:1 ~cache_dir:dir () in
  List.iter (fun j -> ignore (Service.compile_job svc j)) jobs;
  let svc' = Service.create ~domains:1 ~cache_dir:dir () in
  let times =
    List.map
      (fun j ->
        let t0 = Util.now () in
        ignore (Spans.span "service.compile_job" (fun () -> Service.compile_job svc' j));
        (Util.now () -. t0) *. 1e6)
      jobs
  in
  Acc.addi acc "service.disk_stores" (Service.stats svc).Service.st_disk_stores;
  Acc.addi acc "service.disk_hits" (Service.stats svc').Service.st_disk_hits;
  Util.rm_rf dir;
  times

(* One pass over the corpus.  Per batch: the round as the untraced run
   makes it, then every job the round compiled taken apart layer by
   layer, then compile_job timed alone. *)
let pass cfg s =
  let acc = Acc.create () in
  let since = Spans.last_id () in
  let t0 = Util.now () in
  let batch_s = ref 0.0 and busy = ref 0.0 and miss_us = ref [] and disk_us = ref [] in
  Array.iter
    (fun b ->
      let jobs = jobs_of b in
      Spans.new_op ();
      let g0 = gc_snapshot () in
      let _, dt, st = Spans.span "service.run_batch" (fun () -> round cfg jobs) in
      add_gc acc g0 (gc_snapshot ());
      batch_s := !batch_s +. dt;
      Acc.addi acc "service.hits" st.Service.st_hits;
      Acc.addi acc "service.misses" st.Service.st_misses;
      Acc.addi acc "service.disk_hits" st.Service.st_disk_hits;
      Acc.addi acc "service.disk_stores" st.Service.st_disk_stores;
      Acc.addi acc "service.retries" st.Service.st_retries;
      Acc.addi acc "service.errors" st.Service.st_errors;
      List.iter
        (fun j ->
          Spans.new_op ();
          let t0 = Util.now () in
          Spans.span "job" (fun () -> Layers.compile_job acc j);
          busy := !busy +. (Util.now () -. t0))
        jobs;
      Spans.new_op ();
      miss_us := time_compile_jobs (first_n 8 jobs) @ !miss_us;
      disk_us := disk_probe cfg acc (first_n 8 jobs) @ !disk_us)
    s.corpus;
  let wall = Util.now () -. t0 in
  Layers.add_span_times acc ~since;
  Acc.set acc "service.batch_ms" (!batch_s *. 1e3);
  Acc.set acc "service.fanout_efficiency"
    (Util.ratio !busy (!batch_s *. float_of_int cfg.domains));
  Acc.set acc "service.miss_us" (Util.median !miss_us);
  Acc.set acc "service.disk_hit_us" (Util.median !disk_us);
  Acc.set acc "trace.spans" (float_of_int (Spans.last_id () - since));
  Layers.finish_pass acc;
  (acc, wall)

let run_traced cfg =
  let s = timed_setup (setup cfg) in
  let traced = ref [] and on_wall = ref [] and off_wall = ref [] in
  let _ =
    timed_rounds cfg ~min_rounds:4 (fun r ->
        Spans.on := r mod 2 = 0;
        let acc, wall = pass cfg s in
        if !Spans.on then begin
          traced := acc :: !traced;
          on_wall := wall :: !on_wall
        end
        else off_wall := wall :: !off_wall)
  in
  Spans.on := false;
  let acc = median_tables !traced in
  (* the daemon's throughput swung too widely between runs on the
     tuning host to bound, so no workload drives it end to end;
     build-cold's traced run takes it apart instead: a short traced
     session fills the serve.* metrics *)
  let serve_requests, serve_failed =
    Wserve.traced_session cfg acc ~seconds:(if cfg.small then 0.2 else 3.0)
  in
  Acc.set acc "mdesc.elaborate_ms" s.elaborate_ms;
  Acc.set acc "trace.overhead_pct"
    (100.0 *. (Util.ratio (Util.median !on_wall) (Util.median !off_wall) -. 1.0));
  (* the oracle of a traced run: no failed job, no refuted or unknown
     block, no lint error, in any pass *)
  let failed =
    serve_failed
    + int_of_float
        (Util.sum
           (List.map (sum_tables !traced)
              [ "tv.refuted"; "tv.unknown"; "lint.errors"; "service.errors" ]))
  in
  let jobs = Util.sumi (Array.to_list (Array.map List.length s.corpus)) in
  {
    attempted = jobs + serve_requests;
    failed;
    metrics = List.map (fun (name, unit) -> (name, Acc.get acc name, unit)) Layers.all;
    inputs = [ ("jobs", Util.Int jobs); ("passes_traced", Util.Int (List.length !traced)) ];
    detail = [ ("passes_untraced", Util.Int (List.length !off_wall)) ];
  }

let run cfg = if cfg.trace then run_traced cfg else run_untraced cfg
