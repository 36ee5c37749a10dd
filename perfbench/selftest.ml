(* The benchmark's self-test (python3 perfbench/run.py --selftest):

   - with one seed, the deterministic counts (control_words, sim_cycles,
     tv.blocks, superopt.accepted, compact.search_nodes) are identical
     across two runs;
   - a different seed produces different inputs;
   - a planted wrong expected answer is caught by each workload's
     oracle and by the serve session's;
   - a daemon killed mid-session fails the session. *)

open Common

let failures = ref 0

let expect what ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
  if not ok then incr failures

let metric (r : result) name =
  match List.find_opt (fun (n, _, _) -> n = name) r.metrics with
  | Some (_, v, _) -> v
  | None -> nan

let detail (r : result) name = List.assoc_opt name r.detail

let run_fresh f cfg =
  Spans.reset ();
  setup_samples := [];
  Spans.on := false;
  let dir = cfg.work in
  Util.mkdir_p dir;
  Fun.protect ~finally:(fun () -> Util.rm_rf dir) (fun () -> f cfg)

let run ~mslc =
  let base =
    {
      seed = 11;
      seconds = 0.05;
      trace = false;
      domains = 2;
      work = Filename.concat ".bench_work" ("selftest-" ^ string_of_int (Unix.getpid ()));
      plant = false;
      small = true;
      setups = 1;
      mslc;
    }
  in
  let cold = Wbuild.run in
  (* deterministic counts repeat *)
  let t1 = run_fresh cold { base with trace = true } in
  let t2 = run_fresh cold { base with trace = true } in
  List.iter
    (fun m ->
      expect
        (Printf.sprintf "build-cold %s repeats (%g)" m (metric t1 m))
        (metric t1 m = metric t2 m && metric t1 m > 0.0))
    [ "tv.blocks"; "superopt.accepted"; "compact.search_nodes"; "compact.words" ];
  let c1 = run_fresh cold base and c2 = run_fresh cold base in
  expect "build-cold control_words repeats"
    (metric c1 "control_words" = metric c2 "control_words" && c1.failed = 0 && c2.failed = 0);
  let s1 = run_fresh Wsim.run base and s2 = run_fresh Wsim.run base in
  expect "simulate sim_cycles and control_words repeat"
    (detail s1 "sim_cycles" = detail s2 "sim_cycles"
    && metric s1 "control_words" = metric s2 "control_words"
    && s1.failed = 0 && s2.failed = 0);
  (* another seed, other inputs *)
  let sources seed =
    Corpus.build_corpus ~seed ~batches:1 ~generated:16
    |> List.concat
    |> List.map (fun (b : Corpus.bjob) -> b.Corpus.job.Msl_core.Service.j_source)
    |> List.sort compare
  in
  expect "build corpus differs between seeds" (sources 11 <> sources 12);
  let s3 = run_fresh Wsim.run { base with seed = 12 } in
  let digest (r : result) = List.assoc_opt "input_digest" r.inputs in
  expect "simulate inputs differ between seeds" (digest s1 <> digest s3 && digest s1 <> None);
  (* planted wrong answers are caught *)
  let planted = { base with plant = true } in
  expect "build-cold oracle catches a planted wrong answer" ((run_fresh cold planted).failed > 0);
  expect "simulate oracle catches a planted wrong answer" ((run_fresh Wsim.run planted).failed > 0);
  let session cfg =
    run_fresh (fun cfg -> Wserve.traced_session cfg (Acc.create ()) ~seconds:0.2) cfg
  in
  let sent, failed = session base in
  expect "serve session answers are correct" (failed = 0 && sent > 0);
  expect "serve oracle catches a planted wrong answer" (snd (session planted) > 0);
  (* the daemon dies 0.1 s into a 1 s session: the requests in flight
     and the connections it broke count as failed *)
  let killed =
    run_fresh
      (fun cfg ->
        let mix = Wserve.make_mix cfg in
        let d, c = Wserve.start cfg mix ~trace:None in
        let killer =
          Thread.create (fun () -> Unix.sleepf 0.1; Unix.kill d.Wserve.pid Sys.sigkill) ()
        in
        let sess = Wserve.drive cfg mix d ~seconds:1.0 in
        Thread.join killer;
        ignore (Wserve.stop_daemon d c);
        sess)
      base
  in
  expect
    (Printf.sprintf "serve session fails when the daemon dies (%d of %d requests unanswered)"
       killed.Wserve.unanswered killed.Wserve.requests)
    (Wserve.failures base killed > 0 && killed.Wserve.unanswered > 0);
  if !failures > 0 then begin
    Printf.printf "%d self-test check(s) failed\n" !failures;
    exit 1
  end
