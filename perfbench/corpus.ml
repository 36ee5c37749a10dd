(* The benchmark's inputs, made from the seed: machines, the build
   corpus and the program set the simulate workload runs.  The program
   under test only ever sees the generated sources. *)

open Msl_machine
module Toolkit = Msl_core.Toolkit
module Service = Msl_core.Service
module Pipeline = Msl_mir.Pipeline
module Workloads = Msl_core.Workloads
module Handcoded = Msl_core.Handcoded

(* -- machines -------------------------------------------------------------- *)

(* Elaborate the four shipped .mdesc sources, as the registry does at
   start-up; timed as part of every workload's set-up. *)
let elaborate () =
  List.map
    (fun (file, src) -> Mdesc.parse ~file:("machines/" ^ file) src)
    [
      ("h1.mdesc", Mdesc_embedded.h1);
      ("hp3.mdesc", Mdesc_embedded.hp3);
      ("v11.mdesc", Mdesc_embedded.v11);
      ("b17.mdesc", Mdesc_embedded.b17);
    ]

(* The machines each language targets (the engine oracle's matrix). *)
let machines_of = function
  | Toolkit.Yalll -> [ "hp3"; "v11"; "b17" ]
  | Toolkit.Simpl -> [ "hp3"; "h1"; "b17" ]
  | Toolkit.Empl -> [ "hp3"; "b17" ]
  | Toolkit.Sstar -> [ "hp3"; "h1"; "b17" ]

let lang_key = function
  | Toolkit.Simpl -> "simpl"
  | Toolkit.Empl -> "empl"
  | Toolkit.Yalll -> "yalll"
  | Toolkit.Sstar -> "sstar"

(* -- fixed sources ----------------------------------------------------------- *)

(* examples/*: read from the checkout, like the CI gates do. *)
let examples () =
  let dir = "examples" in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f ->
         let lang =
           if Filename.check_suffix f ".yll" then Some Toolkit.Yalll
           else if Filename.check_suffix f ".simpl" then Some Toolkit.Simpl
           else if Filename.check_suffix f ".empl" then Some Toolkit.Empl
           else None
         in
         Option.map
           (fun l -> (f, l, Util.read_file (Filename.concat dir f)))
           lang)

(* The survey's S* programs: MPY (explicit cocycle composition, 64-bit
   datapath) and the verified GAUSS loop. *)
let sstar_mpy = Msl_core.Experiments.o1_sstar_src

let sstar_gauss =
  "program GAUSS;\n\
   var x : seq [7..0] bit at R1;\n\
   var sum : seq [15..0] bit at R2;\n\
   pre { x = 10 and sum = 0 };\n\
   post { sum = 55 and x = 0 };\n\
   begin\n\
  \  while x <> 0 inv { sum + (x * x + x) ^ -1 = 55 and x <= 10 } do\n\
  \    sum := sum + x;\n\
  \    x := x - 1\n\
  \  od\n\
   end\n"

(* Hand-coded comparison sources (T2/T6) on each machine they compile
   for, and the S* programs on theirs. *)
let handcoded =
  [
    ("yalll_translit", Toolkit.Yalll, Handcoded.yalll_translit, [ "hp3" ]);
    ("yalll_translit_v11", Toolkit.Yalll, Handcoded.yalll_translit_v11,
     [ "hp3"; "v11"; "b17" ]);
    ("yalll_dot", Toolkit.Yalll, Handcoded.yalll_dot, [ "hp3"; "v11"; "b17" ]);
    ("simpl_fpmul", Toolkit.Simpl, Handcoded.simpl_fpmul, [ "h1"; "b17" ]);
    ("simpl_mpy", Toolkit.Simpl, Handcoded.simpl_mpy, [ "hp3"; "h1"; "b17" ]);
  ]

let sstar = [ ("sstar_mpy", sstar_mpy, [ "h1" ]); ("sstar_gauss", sstar_gauss, [ "hp3"; "b17" ]) ]

(* -- the build corpus ------------------------------------------------------------ *)

type bjob = {
  job : Service.job;
  generated : bool;  (* a seeded program (the bulk) *)
  o2 : bool;
}

let options ~o2 ~optimal ~pool_limit =
  {
    Pipeline.default_options with
    (* -O0 under a cut pool, as T5 does: -O1 folds the generated
       programs' constant arithmetic away and leaves the allocator
       nothing to spill *)
    Pipeline.opt_level = (if o2 then 2 else if pool_limit <> None then 0 else 1);
    algo = (if optimal then Msl_mir.Compaction.Optimal else Pipeline.default_options.Pipeline.algo);
    pool_limit;
  }

let mk ~id ~o2 ?(optimal = false) ?pool_limit ~generated lang machine source =
  {
    job =
      Service.job ~id ~options:(options ~o2 ~optimal ~pool_limit) ~lint:true ~validate:true
        lang ~machine ~source;
    generated;
    o2;
  }

(* The fixed part: every example and hand-coded source on every machine
   its language targets, at -O1 and -O2, plus the S* programs. *)
let fixed_jobs () =
  let both name lang src machines =
    List.concat_map
      (fun m ->
        List.map
          (fun o2 ->
            mk ~id:(Printf.sprintf "%s@%s-O%d" name m (if o2 then 2 else 1))
              ~o2 ~generated:false lang m src)
          [ false; true ])
      machines
  in
  List.concat_map (fun (f, l, src) -> both f l src (machines_of l)) (examples ())
  @ List.concat_map (fun (n, l, src, ms) -> both n l src ms) handcoded
  @ List.concat_map
      (fun (n, src, ms) ->
        List.map
          (fun m -> mk ~id:(n ^ "@" ^ m) ~o2:false ~generated:false Toolkit.Sstar m src)
          ms)
      sstar

(* Seeded generated programs: YALLL straight-line code on the three
   16-bit machines and EMPL register-pressure programs through the
   allocator.  The shape of the corpus is the same for every seed -
   one job in three EMPL (one EMPL job in five at -O0 with the
   allocator's pool cut to 8 registers, as in T5, so that it spills),
   machines and
   sizes in rotation, one in four at -O2, one in ten with
   branch-and-bound compaction - and the seed
   draws the programs' contents, so a seed changes the inputs but not
   the mix. *)
let generated_jobs ~seed ~n =
  List.init n (fun i ->
      let s = (seed * 100_003) + i in
      let o2 = i mod 4 = 1 in
      let optimal = i mod 10 = 0 in
      let id = Printf.sprintf "gen%04d" i in
      if i mod 3 = 2 then
        let m = List.nth [ "hp3"; "b17" ] (i / 3 mod 2) in
        let pool_limit = if i / 3 mod 5 = 0 && not o2 then Some 8 else None in
        mk ~id ~o2 ~optimal ?pool_limit ~generated:true Toolkit.Empl m
          (Workloads.pressure_program ~seed:s ~nvars:(6 + (i * 7 mod 14))
             ~nops:(16 + (i * 11 mod 40)))
      else
        let m = List.nth [ "hp3"; "v11"; "b17" ] (i / 3 mod 3) in
        mk ~id ~o2 ~optimal ~generated:true Toolkit.Yalll m
          (Workloads.yalll_program ~seed:s ~len:(12 + (i * 13 mod 28))))

(* The fixed part and [generated] seeded jobs, dealt round-robin by
   kind (language, opt level, compaction algorithm, then id) into
   [batches] batches: every batch is a like mix of the corpus, and a
   batch holds the same kinds of job for every seed. *)
let build_corpus ~batches ~generated ~seed =
  let key (b : bjob) =
    let j = b.job in
    (lang_key j.Service.j_language, b.o2, j.Service.j_options.Pipeline.algo, j.Service.j_id)
  in
  let all =
    List.sort (fun a b -> compare (key a) (key b)) (fixed_jobs () @ generated_jobs ~seed ~n:generated)
  in
  List.init batches (fun b -> List.filteri (fun i _ -> i mod batches = b) all)

(* -- input properties --------------------------------------------------------------- *)

(* A program loops when some word can branch back to itself or earlier. *)
let loops (c : Toolkit.compiled) =
  List.exists Fun.id
    (List.mapi
       (fun pc (i : Inst.t) -> List.exists (fun t -> t <= pc) (Inst.next_targets i.Inst.next))
       c.Toolkit.c_insts)
