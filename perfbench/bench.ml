(* The repository benchmark's main program.  run.py builds it and
   calls it as

     bench.exe --workload W --seed N --seconds S --trace 0|1
               --nproc P --commit C --profile perfbench --mslc PATH

   It prints the run's full record (environment, input properties,
   metrics, details) as one JSON line, appends the same line to
   .bench_work/results.jsonl, and prints the result line last:
   {"correct", "attempted", "failed", "metrics"}.  It exits 1 when the
   oracle saw a wrong answer or an op failed. *)

open Common

let workloads = [ "build-cold"; "simulate" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let nproc = ref (Domain.recommended_domain_count ()) in
  let commit = ref "unknown" and profile = ref "unknown" and mslc = ref "" in
  let selftest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Symbol (workloads, ( := ) workload), " workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
      ("--nproc", Arg.Set_int nproc, "P online processors");
      ("--commit", Arg.Set_string commit, "C source revision");
      ("--profile", Arg.Set_string profile, "P dune build profile");
      ("--mslc", Arg.Set_string mslc, "PATH mslc executable (the traced serve session)");
      ("--selftest", Arg.Set selftest, " run the benchmark's self-test");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  (* a daemon that dies mid-session must fail the run, not kill it *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if !selftest then begin
    Selftest.run ~mslc:!mslc;
    exit 0
  end;
  if !workload = "" then (prerr_endline "bench.exe: --workload is required"; exit 2);
  let work = Filename.concat ".bench_work" (string_of_int (Unix.getpid ())) in
  Util.mkdir_p work;
  let cfg =
    {
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      domains = max 1 (min 2 !nproc);
      work;
      plant = false;
      small = false;
      setups = 120;
      mslc = !mslc;
    }
  in
  Spans.reset ();
  let r =
    Fun.protect
      ~finally:(fun () -> Util.rm_rf work)
      (fun () ->
        match !workload with
        | "build-cold" -> Wbuild.run cfg
        | "simulate" -> Wsim.run cfg
        | w -> failwith ("unknown workload " ^ w))
  in
  let spans_file =
    if cfg.trace then begin
      let f =
        Printf.sprintf ".bench_work/spans-%s-seed%d-%d.jsonl" !workload !seed (Unix.getpid ())
      in
      Spans.write f;
      Util.Str f
    end
    else Util.Null
  in
  let metrics =
    Util.Obj
      (List.map
         (fun (name, v, unit) -> (name, Util.Obj [ ("value", Util.Num v); ("unit", Util.Str unit) ]))
         r.metrics)
  in
  let correct = r.failed = 0 in
  let record =
    Util.Obj
      [
        ("workload", Util.Str !workload);
        ("seed", Util.Int !seed);
        ("trace", Util.Int !trace);
        ("seconds", Util.Num !seconds);
        ( "env",
          Util.Obj
            [
              ("nproc", Util.Int !nproc);
              ("recommended_domain_count", Util.Int (Domain.recommended_domain_count ()));
              ("ocaml", Util.Str Sys.ocaml_version);
              ("profile", Util.Str !profile);
              ("commit", Util.Str !commit);
              ("seed", Util.Int !seed);
              ("domains", Util.Int cfg.domains);
              ("setups", Util.Int cfg.setups);
            ] );
        ("inputs", Util.Obj r.inputs);
        ( "detail",
          Util.Obj
            (r.detail
            @ [ ("setup_samples_s", Util.Arr (List.map (fun x -> Util.Num x) !setup_samples)) ]) );
        ("spans_file", spans_file);
        ("correct", Util.Bool correct);
        ("attempted", Util.Int r.attempted);
        ("failed", Util.Int r.failed);
        ("metrics", metrics);
      ]
  in
  let line = Util.to_string record in
  print_endline line;
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 ".bench_work/results.jsonl" in
  output_string oc (line ^ "\n");
  close_out oc;
  print_endline
    (Util.to_string
       (Util.Obj
          [
            ("correct", Util.Bool correct);
            ("attempted", Util.Int r.attempted);
            ("failed", Util.Int r.failed);
            ("metrics", metrics);
          ]));
  exit (if correct then 0 else 1)
