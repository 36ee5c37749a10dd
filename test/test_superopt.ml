(* Tests for the -O2 window superoptimizer.

   The property the pass ships on: over every example program on every
   machine it targets, -O2 never emits more words than -O1, the final
   architectural state is bit-identical, and every accepted rewrite
   replays its proof obligation (Tv.validate_rewrite = Validated).
   Plus direct unit coverage of the window machinery: a window spanning
   a merged (jump-threaded) block edge, a referenced label fencing that
   same window off, an Int_ack word vetoing an otherwise-packable window,
   and the content-addressed memo serving a second search from the
   first. *)

open Msl_bitvec
open Msl_machine
open Msl_mir
module Toolkit = Msl_core.Toolkit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let hp3 = Machines.hp3

(* -- corpus property: every example, every machine ----------------------- *)

let example_languages =
  [ (".yll", (Toolkit.Yalll, [ Machines.hp3; Machines.v11; Machines.b17 ]));
    (".simpl", (Toolkit.Simpl, [ Machines.hp3; Machines.h1; Machines.b17 ]));
    (".empl", (Toolkit.Empl, [ Machines.hp3; Machines.b17 ])) ]

let example_sources () =
  let dir =
    if Sys.file_exists "../examples" then "../examples" else "examples"
  in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f ->
         List.find_map
           (fun (ext, (lang, machines)) ->
             if Filename.check_suffix f ext then
               Some (f, lang, machines, Filename.concat dir f)
             else None)
           example_languages)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Full architectural state: every register plus the memory regions
   programs touch.  The superoptimizer's proof gate covers all register,
   flag and store outcomes, so -O2 must preserve even scratch state. *)
let observe d sim =
  let regs =
    Desc.regs d
    |> List.map (fun (r : Desc.reg) ->
           Printf.sprintf "%s=%Ld" r.Desc.r_name
             (Bitvec.to_int64 (Sim.get_reg_id sim r.Desc.r_id)))
  in
  let mem_region base len =
    List.init len (fun i ->
        let a = base + i in
        let v = Bitvec.to_int64 (Memory.peek (Sim.memory sim) a) in
        if v = 0L then "" else Printf.sprintf "m[%d]=%Ld" a v)
    |> List.filter (fun s -> s <> "")
  in
  let scratch = max 0 (d.Desc.d_scratch_base - 256) in
  let scratch_len = max 0 (min 320 (Memory.size (Sim.memory sim) - scratch)) in
  String.concat " "
    (regs @ mem_region 0 512 @ mem_region scratch scratch_len)

let o2_options =
  { Pipeline.default_options with Pipeline.opt_level = 2 }

let test_corpus () =
  let total_rewrites = ref 0 in
  List.iter
    (fun (name, lang, machines, path) ->
      let src = read_file path in
      List.iter
        (fun d ->
          let c1 = Toolkit.compile lang d src in
          let c2, obligations =
            Toolkit.compile_obligations ~options:o2_options lang d src
          in
          let rewrites = obligations.Toolkit.ob_rewrites in
          check_bool
            (Printf.sprintf "%s on %s: O2 words (%d) <= O1 words (%d)" name
               d.Desc.d_name c2.Toolkit.c_words c1.Toolkit.c_words)
            true
            (c2.Toolkit.c_words <= c1.Toolkit.c_words);
          let s1 = observe d (Toolkit.run ~fuel:500_000 c1) in
          let s2 = observe d (Toolkit.run ~fuel:500_000 c2) in
          Alcotest.(check string)
            (Printf.sprintf "%s on %s: O2 state = O1 state" name d.Desc.d_name)
            s1 s2;
          total_rewrites := !total_rewrites + List.length rewrites;
          List.iter
            (fun (rw : Superopt.rewrite) ->
              check_bool
                (Printf.sprintf "%s on %s: %s rewrite in %s replays Validated"
                   name d.Desc.d_name
                   (Superopt.kind_name rw.Superopt.rw_kind)
                   rw.Superopt.rw_label)
                true
                (Superopt.replay d rw = Tv.Validated))
            rewrites;
          match c2.Toolkit.c_superopt with
          | None -> Alcotest.failf "%s on %s: -O2 reported no superopt stats"
                      name d.Desc.d_name
          | Some st ->
              check_int
                (Printf.sprintf "%s on %s: captured = accepted" name
                   d.Desc.d_name)
                st.Superopt.s_accepted
                (List.length rewrites))
        machines)
    (example_sources ());
  check_bool "the corpus exercises at least one rewrite" true
    (!total_rewrites >= 1)

(* -- window-boundary units ------------------------------------------------ *)

let rid name = (Desc.get_reg hp3 name).Desc.r_id
let mov d s = Inst.make hp3 "mov" [ Inst.A_reg (rid d); Inst.A_reg (rid s) ]

let add d a b =
  Inst.make hp3 "add"
    [ Inst.A_reg (rid d); Inst.A_reg (rid a); Inst.A_reg (rid b) ]

let run_superopt ?memo ?observe ~extra_refs blocks =
  Superopt.run ?memo ?observe ~chain:Pipeline.default_options.Pipeline.chain
    ~node_budget:Pipeline.default_options.Pipeline.bb_budget ~extra_refs hp3
    blocks

let total_words blocks =
  List.fold_left (fun a (_, ws) -> a + List.length ws) 0 blocks

(* A goto to an otherwise-unreferenced layout successor: the merge pass
   threads the edge, and the repack window then spans it — mov (abus)
   and add (alu) pack into one word that no per-block compaction could
   have formed.  Every accepted rewrite must replay Validated. *)
let test_edge_window () =
  let blocks =
    [ ("entry", [ ([ mov "R1" "R2" ], Select.L_goto "tail") ]);
      ("tail", [ ([ add "R3" "R4" "R5" ], Select.L_halt) ]) ]
  in
  let seen = ref [] in
  let out, st =
    run_superopt ~observe:(fun rw -> seen := rw :: !seen) ~extra_refs:[]
      blocks
  in
  check_int "merged + packed down to one word" 1 (total_words out);
  check_bool "the fallthrough edge was merged" true (st.Superopt.s_merges >= 1);
  check_bool "a cross-edge repack was accepted" true
    (st.Superopt.s_accepted >= 1);
  check_int "one word saved" 1 st.Superopt.s_words_saved;
  List.iter
    (fun (rw : Superopt.rewrite) ->
      check_bool
        (Printf.sprintf "%s rewrite replays Validated"
           (Superopt.kind_name rw.Superopt.rw_kind))
        true
        (Superopt.replay hp3 rw = Tv.Validated))
    !seen

(* The same shape with the successor label referenced from outside (a
   procedure entry): the edge is a fence, nothing may merge across it,
   and the label must survive. *)
let test_referenced_fence () =
  let blocks =
    [ ("entry", [ ([ mov "R1" "R2" ], Select.L_goto "tail") ]);
      ("tail", [ ([ add "R3" "R4" "R5" ], Select.L_halt) ]) ]
  in
  let out, st = run_superopt ~extra_refs:[ "tail" ] blocks in
  check_int "no words removed" 2 (total_words out);
  check_int "no merges" 0 st.Superopt.s_merges;
  check_int "no rewrites" 0 st.Superopt.s_accepted;
  check_bool "the referenced label survives" true
    (List.mem_assoc "tail" out)

(* An Int_ack word vetoes its window.  The control pair (mov for the
   intack) packs to one word, proving the window was otherwise viable;
   with the intack in place the words must come through untouched and
   the skip must be counted. *)
let test_ack_window_skipped () =
  let with_first first =
    [ ("entry",
       [ ([ first ], Select.L_next); ([ add "R3" "R4" "R5" ], Select.L_halt) ])
    ]
  in
  let out_ctl, st_ctl =
    run_superopt ~extra_refs:[] (with_first (mov "R1" "R2"))
  in
  check_int "control: mov+add pack into one word" 1 (total_words out_ctl);
  check_bool "control: a repack was accepted" true
    (st_ctl.Superopt.s_accepted >= 1);
  let ack = Inst.make hp3 "intack" [] in
  let out, st = run_superopt ~extra_refs:[] (with_first ack) in
  check_int "ack words untouched" 2 (total_words out);
  check_int "no rewrite across the ack" 0 st.Superopt.s_accepted;
  check_bool "the skip was counted" true (st.Superopt.s_skipped_ack >= 1)

(* -- the memo -------------------------------------------------------------- *)

let test_memo_round_trip () =
  let store : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let memo =
    { Superopt.memo_find = Hashtbl.find_opt store;
      memo_add = (fun k v -> Hashtbl.replace store k v) }
  in
  let blocks () =
    [ ("entry", [ ([ mov "R1" "R2" ], Select.L_goto "tail") ]);
      ("tail", [ ([ add "R3" "R4" "R5" ], Select.L_halt) ]) ]
  in
  let out1, st1 = run_superopt ~memo ~extra_refs:[] (blocks ()) in
  check_bool "cold run misses" true (st1.Superopt.s_memo_misses >= 1);
  check_bool "the store was populated" true (Hashtbl.length store >= 1);
  let out2, st2 = run_superopt ~memo ~extra_refs:[] (blocks ()) in
  check_bool "warm run hits" true (st2.Superopt.s_memo_hits >= 1);
  check_bool "memoized result is identical" true (out1 = out2);
  (* a corrupted entry is a miss, never a miscompile *)
  Hashtbl.iter (fun k _ -> Hashtbl.replace store k "garbage") store;
  let out3, _ = run_superopt ~memo ~extra_refs:[] (blocks ()) in
  check_bool "corrupt memo falls back to a fresh search" true (out1 = out3)

let () =
  Alcotest.run "superopt"
    [
      ( "corpus",
        [ Alcotest.test_case
            "every example x machine: O2 <= O1, state equal, proofs replay"
            `Quick test_corpus ] );
      ( "windows",
        [
          Alcotest.test_case "window spans a jump-threaded block edge" `Quick
            test_edge_window;
          Alcotest.test_case "referenced label fences the window" `Quick
            test_referenced_fence;
          Alcotest.test_case "Int_ack window is skipped" `Quick
            test_ack_window_skipped;
        ] );
      ( "memo",
        [ Alcotest.test_case "find/add round trip, corruption safe" `Quick
            test_memo_round_trip ] );
    ]
