(* The tracing layer: JSON round-trips, event-stream invariants under a
   concurrent batch (valid complete JSONL, balanced spans, monotone
   counters), and the zero-allocation contract of the disabled path.

   Tracing is process-global, so every test that enables it does so
   inside [traced] — enable, run, disable — and the suites run
   sequentially (alcotest's default). *)

module Trace = Msl_util.Trace
module Core = Msl_core
module Service = Msl_core.Service
module Toolkit = Msl_core.Toolkit

let tmp_trace () = Filename.temp_file "msl_test_trace" ".jsonl"

let traced f =
  let path = tmp_trace () in
  Trace.enable_file path;
  Fun.protect ~finally:Trace.disable f;
  Trace.disable ();
  let events =
    match Trace.read_events path with
    | Ok es -> es
    | Error msg -> Alcotest.failf "trace did not parse back: %s" msg
  in
  Sys.remove path;
  events

(* -- the JSON parser ----------------------------------------------------- *)

let test_parse_json () =
  let ok what s expected =
    match Trace.parse_json s with
    | Ok j -> Alcotest.(check bool) what true (j = expected)
    | Error msg -> Alcotest.failf "%s: %s" what msg
  in
  ok "number" "42" (Trace.J_num 42.0);
  ok "negative float" "-2.5" (Trace.J_num (-2.5));
  ok "string escapes" {|"a\"b\\c\n"|} (Trace.J_str "a\"b\\c\n");
  ok "nested" {|{"a":[1,true,null],"b":{"c":""}}|}
    (Trace.J_obj
       [
         ("a", Trace.J_arr [ Trace.J_num 1.0; Trace.J_bool true; Trace.J_null ]);
         ("b", Trace.J_obj [ ("c", Trace.J_str "") ]);
       ]);
  let bad what s =
    match Trace.parse_json s with
    | Ok _ -> Alcotest.failf "%s: expected a parse error" what
    | Error _ -> ()
  in
  bad "trailing garbage" "1 2";
  bad "unterminated string" {|"abc|};
  bad "bare word" "nope";
  bad "unclosed object" {|{"a":1|}

(* [print_json] output parses back to the same value, the characters
   that need escaping included. *)
let test_print_json () =
  let back what v =
    let line = Trace.print_json v in
    Alcotest.(check bool) (what ^ ": one line") false (String.contains line '\n');
    match Trace.parse_json line with
    | Ok j -> Alcotest.(check bool) (what ^ ": " ^ line) true (j = v)
    | Error msg -> Alcotest.failf "%s: %s in %s" what msg line
  in
  back "escapes" (Trace.J_str "q\"b\\n\nr\rt\tbell\007end");
  back "escaped key" (Trace.J_obj [ ("k\"\t", Trace.J_str "\001") ]);
  back "nested"
    (Trace.J_obj
       [
         ("id", Trace.J_str "r1");
         ("ok", Trace.J_bool true);
         ("n", Trace.J_num 42.0);
         ("xs", Trace.J_arr [ Trace.J_num (-3.0); Trace.J_null; Trace.J_arr [] ]);
         ("o", Trace.J_obj []);
       ]);
  (* non-integers read back equal, in the shortest form that does *)
  List.iter
    (fun f -> back (Printf.sprintf "number %h" f) (Trace.J_num f))
    [ 1234567.5; 3.14159265; 0.1; 1. /. 3.; -2.5e-300; 1e15; 2. ** 60. ];
  Alcotest.(check string) "shortest form" "[1234567.5,3.14159265,0.1]"
    (Trace.print_json
       (Trace.J_arr
          [ Trace.J_num 1234567.5; Trace.J_num 3.14159265; Trace.J_num 0.1 ]));
  Alcotest.(check string)
    "byte form" {|{"a":"\"\\\n\r\t\u0001","b":[1,2.5,null]}|}
    (Trace.print_json
       (Trace.J_obj
          [
            ("a", Trace.J_str "\"\\\n\r\t\001");
            ("b", Trace.J_arr [ Trace.J_num 1.0; Trace.J_num 2.5; Trace.J_null ]);
          ]))

(* -- emission round-trip -------------------------------------------------- *)

let test_round_trip () =
  let events =
    traced (fun () ->
        Trace.with_span ~cat:"t" "outer"
          ~args:[ ("s", Trace.A_string "quote\"back\\slash") ]
          (fun () ->
            Trace.counter ~cat:"t" "c" 1;
            Trace.counter ~cat:"t" "c" 5;
            Trace.instant ~cat:"t" "i"
              ~args:
                [
                  ("n", Trace.A_int (-3));
                  ("f", Trace.A_float 0.5);
                  ("b", Trace.A_bool true);
                ]))
  in
  Alcotest.(check int) "five events" 5 (List.length events);
  let phs = List.map (fun e -> e.Trace.ev_ph) events in
  Alcotest.(check (list string)) "phases" [ "B"; "C"; "C"; "i"; "E" ] phs;
  let outer = List.hd events in
  Alcotest.(check bool) "escaped string survives" true
    (List.assoc "s" outer.Trace.ev_args = Trace.J_str "quote\"back\\slash");
  let inst = List.nth events 3 in
  Alcotest.(check bool) "int arg" true
    (List.assoc "n" inst.Trace.ev_args = Trace.J_num (-3.0));
  Alcotest.(check bool) "bool arg" true
    (List.assoc "b" inst.Trace.ev_args = Trace.J_bool true);
  (* timestamps never run backwards in emission order *)
  let rec mono = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "ts monotone" true (a.Trace.ev_ts <= b.Trace.ev_ts);
        mono rest
    | _ -> ()
  in
  mono events

let test_span_end_on_exception () =
  let events =
    traced (fun () ->
        try
          Trace.with_span ~cat:"t" "failing" (fun () -> failwith "boom")
        with Failure _ -> ())
  in
  Alcotest.(check (list string)) "end emitted on raise" [ "B"; "E" ]
    (List.map (fun e -> e.Trace.ev_ph) events)

(* -- stream invariants under a concurrent batch --------------------------- *)

let batch_jobs () =
  List.init 24 (fun i ->
      Service.job
        ~id:(Printf.sprintf "j%02d" i)
        Toolkit.Yalll ~machine:"hp3"
        ~source:(Core.Workloads.yalll_program ~seed:(1 + (i mod 6)) ~len:12))

let test_concurrent_batch_stream () =
  let events =
    traced (fun () ->
        let s = Service.create ~domains:4 () in
        ignore (Service.run_batch ~domains:4 s (batch_jobs ())))
  in
  Alcotest.(check bool) "events were emitted" true (events <> []);
  (* seq is a global total order: strictly increasing in file order *)
  ignore
    (List.fold_left
       (fun prev e ->
         Alcotest.(check bool) "seq strictly increasing" true
           (e.Trace.ev_seq > prev);
         e.Trace.ev_seq)
       0 events);
  (* spans balance per domain: depth never below zero, zero at the end *)
  let depth = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let d = try Hashtbl.find depth e.Trace.ev_tid with Not_found -> 0 in
      match e.Trace.ev_ph with
      | "B" -> Hashtbl.replace depth e.Trace.ev_tid (d + 1)
      | "E" ->
          Alcotest.(check bool) "no end before begin" true (d > 0);
          Hashtbl.replace depth e.Trace.ev_tid (d - 1)
      | _ -> ())
    events;
  Hashtbl.iter
    (fun tid d ->
      Alcotest.(check int) (Printf.sprintf "tid %d spans closed" tid) 0 d)
    depth;
  (* counters are monotone in seq order: they are emitted inside the
     lock that guards the counted state *)
  let last = Hashtbl.create 8 in
  List.iter
    (fun e ->
      if e.Trace.ev_ph = "C" then begin
        let v =
          match List.assoc_opt "value" e.Trace.ev_args with
          | Some (Trace.J_num v) -> v
          | _ -> Alcotest.failf "counter %s without a value" e.Trace.ev_name
        in
        let key = (e.Trace.ev_cat, e.Trace.ev_name) in
        (match Hashtbl.find_opt last key with
        | Some prev ->
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s monotone" e.Trace.ev_cat e.Trace.ev_name)
              true (v >= prev)
        | None -> ());
        Hashtbl.replace last key v
      end)
    events;
  (* the batch is covered: one job span per job, and the service's
     cache counters appeared *)
  let job_begins =
    List.length
      (List.filter
         (fun e ->
           e.Trace.ev_ph = "B" && e.Trace.ev_cat = "service"
           && e.Trace.ev_name = "job")
         events)
  in
  Alcotest.(check int) "one span per job" 24 job_begins;
  Alcotest.(check bool) "cache counters present" true
    (Hashtbl.mem last ("service", "cache_misses"))

(* The calling domain is one of the workers: at 2 domains the job spans
   come from at most 2 domains, the caller's among them; at 1 domain they
   all come from the caller. *)
let test_caller_works () =
  let job_tids domains =
    traced (fun () ->
        ignore (Service.run_batch ~domains (Service.create ()) (batch_jobs ())))
    |> List.filter_map (fun e ->
           if e.Trace.ev_cat = "service" && e.Trace.ev_name = "job" then
             Some e.Trace.ev_tid
           else None)
    |> List.sort_uniq compare
  in
  let caller = (Domain.self () :> int) in
  let two = job_tids 2 in
  Alcotest.(check bool) "the caller ran jobs" true (List.mem caller two);
  Alcotest.(check bool) "at most 2 workers" true (List.length two <= 2);
  Alcotest.(check (list int)) "1 domain: the caller only" [ caller ] (job_tids 1)

(* -- the disabled fast path ------------------------------------------------ *)

let test_disabled_allocates_nothing () =
  Alcotest.(check bool) "tracing is off" false (Trace.enabled ());
  let w0 = Gc.minor_words () in
  for i = 0 to 4999 do
    Trace.counter ~cat:"t" "noop" i;
    Trace.instant ~cat:"t" "noop";
    Trace.span_begin ~cat:"t" "noop";
    Trace.span_end ~cat:"t" "noop"
  done;
  let dw = Gc.minor_words () -. w0 in
  (* a few words of slack for the Gc sampling itself; a single word per
     emission would show as >= 20000 *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled emission allocated %.0f minor words" dw)
    true (dw < 100.0)

let test_timed_measures_when_disabled () =
  Alcotest.(check bool) "tracing is off" false (Trace.enabled ());
  let x, ms = Trace.timed ~cat:"t" "work" (fun () -> 7) in
  Alcotest.(check int) "value passed through" 7 x;
  Alcotest.(check bool) "elapsed measured" true (ms >= 0.0)

let () =
  Alcotest.run "trace"
    [
      ( "json",
        [
          Alcotest.test_case "parse_json" `Quick test_parse_json;
          Alcotest.test_case "print_json parses back" `Quick test_print_json;
        ] );
      ( "round-trip",
        [
          Alcotest.test_case "emit and parse back" `Quick test_round_trip;
          Alcotest.test_case "span ends on exception" `Quick
            test_span_end_on_exception;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "4-domain batch stream invariants" `Quick
            test_concurrent_batch_stream;
          Alcotest.test_case "the calling domain is a worker" `Quick
            test_caller_works;
        ] );
      ( "disabled path",
        [
          Alcotest.test_case "no allocation" `Quick
            test_disabled_allocates_nothing;
          Alcotest.test_case "timed still measures" `Quick
            test_timed_measures_when_disabled;
        ] );
    ]
