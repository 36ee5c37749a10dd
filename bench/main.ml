(* The S4 engine gate: samples the compiled-engine speedup over the
   interpreter on every S4 kernel x machine row, writes one JSON record
   to BENCH_<date>T<hhmmss>_<commit>.json, and exits 1 when a row's
   median speedup is below the floor.

     dune exec --profile release bench/main.exe -- --s4-floor 3.0

   CI runs it with --s4-floor 3.0: a deliberately conservative bound
   for shared runners and dev-profile builds; release builds on quiet
   hardware measure ~10x (EXPERIMENTS.md, S4).  The tables themselves
   come from `mslc experiments`. *)

module Experiments = Msl_core.Experiments
module Trace = Msl_util.Trace
module Clock = Msl_util.Clock

(* The short commit of the checkout, or "unknown" outside a git work
   tree or without git. *)
let commit () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
      let line = try Some (input_line ic) with End_of_file -> None in
      (match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some c when c <> "" -> c
      | _ -> "unknown")

let gate ~floor =
  let rows = Experiments.s4_rows () in
  (* V1-validate: wall clock for translation-validating the honest
     example corpus (every language x machine x opt level), sampled like
     an S4 row.  A timing record only: it rides in the same JSON but is
     deliberately not an S4 row, so it can never trip the speedup floor. *)
  let v1_runs =
    List.init Experiments.s4_windows (fun _ ->
        let t0 = Clock.now_s () in
        let rows = Experiments.v1_honest_rows () in
        (Clock.elapsed_s t0 *. 1e3, rows))
  in
  let v1_ms, v1_ms_min, v1_ms_max =
    Experiments.median_spread (List.map fst v1_runs)
  in
  let v1_sum f = List.fold_left (fun a r -> a + f r) 0 (snd (List.hd v1_runs)) in
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
  let pass = min_speedup >= floor in
  let t = Unix.localtime (Unix.time ()) in
  let date =
    Printf.sprintf "%04d-%02d-%02d" (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1)
      t.Unix.tm_mday
  and time sep =
    Printf.sprintf "%02d%s%02d%s%02d" t.Unix.tm_hour sep t.Unix.tm_min sep
      t.Unix.tm_sec
  in
  let commit = commit () in
  let file = Printf.sprintf "BENCH_%sT%s_%s.json" date (time "") commit in
  (* each number is rounded to the digits the record reports *)
  let num ?(digits = 0) x =
    let scale = 10. ** float_of_int digits in
    Trace.J_num (Float.round (x *. scale) /. scale)
  and int n = Trace.J_num (float_of_int n)
  and str s = Trace.J_str s in
  let spread ?digits lo hi =
    Trace.J_obj [ ("min", num ?digits lo); ("max", num ?digits hi) ]
  in
  let record =
    Trace.J_obj
      [
        ("experiment", str "S4");
        ("date", str (date ^ "T" ^ time ":"));
        ( "environment",
          Trace.J_obj
            [
              ("cores", int (Domain.recommended_domain_count ()));
              ("profile", str Profile.name);
              ("ocaml", str Sys.ocaml_version);
              ("commit", str commit);
            ] );
        ("floor", Trace.J_num floor);
        ("windows", int Experiments.s4_windows);
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
                     ( "spread",
                       spread ~digits:2 r.Experiments.s4_speedup_min
                         r.Experiments.s4_speedup_max );
                   ])
               rows) );
        ( "v1_validate",
          Trace.J_obj
            [
              ("ms", num ~digits:2 v1_ms);
              ("ms_spread", spread ~digits:2 v1_ms_min v1_ms_max);
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
      Printf.printf "%-22s %-4s %10.0f c/s -> %11.0f c/s  %5.1fx (%.1f-%.1fx)\n"
        r.Experiments.s4_kernel r.Experiments.s4_machine
        r.Experiments.s4_interp_cps r.Experiments.s4_compiled_cps
        r.Experiments.s4_speedup r.Experiments.s4_speedup_min
        r.Experiments.s4_speedup_max)
    rows;
  Printf.printf
    "V1-validate: %d blocks in %.1f ms (%.1f-%.1f; %d refuted, %d unknown)\n"
    v1_blocks v1_ms v1_ms_min v1_ms_max v1_refuted v1_unknown;
  Printf.printf "T2-overhead: worst -O2 case +%.1f%% over hand code (%d rows)\n"
    t2_worst (List.length t2_rows);
  Printf.printf "wrote %s (min median speedup %.1fx, floor %.1fx): %s\n" file
    min_speedup floor
    (if pass then "PASS" else "FAIL");
  if not pass then exit 1

let () =
  let floor = ref 3.0 in
  Arg.parse
    [
      ( "--s4-floor",
        Arg.Set_float floor,
        "F  exit 1 when a row's median speedup is below F (default 3.0)" );
    ]
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "usage: bench/main.exe [--s4-floor F]: sample the S4 engine speedup and \
     write BENCH_<date>T<hhmmss>_<commit>.json";
  gate ~floor:!floor
