(* The compile daemon, taken apart by build-cold's traced run: a fresh
   `mslc serve` driven in a closed loop for a few seconds.

   Two connections, one client thread each, keep a fixed window of
   requests in flight (below the daemon's --client-cap of 16): a thread
   sends its next request only when a response comes back.  The mix is
   compile requests, most of them repeating a working set that set-up
   sent once (memory-cache hits) and some new sources (misses), plus
   lint requests and short run requests.  Each request does little
   work, so the socket, JSON, admission, queueing and cache probes
   dominate.  No workload times the daemon end to end: its throughput
   swung fourfold between runs on the host this was tuned on. *)

open Common
module Toolkit = Msl_core.Toolkit
module Serve = Msl_core.Serve
module Workloads = Msl_core.Workloads
module Trace = Msl_util.Trace

let connections = 2
let window = 4

(* Worker domains of the daemon: one fewer than the benchmark's domain
   count, so that with its own I/O domain the daemon runs as many
   domains as the host has cores.  With `-j nproc` it runs three
   domains on two cores; stop-the-world minor collections then wait on
   a descheduled domain, and throughput swung threefold between runs
   (5.5k-17.5k responses/s over five seeds), more than any bound can
   hold. *)
let daemon_workers cfg = max 1 (cfg.domains - 1)

(* The request mix, in percent. *)
let share_new = 8
let share_lint = 7
let share_run = 5

type req = {
  kind : string;  (* compile | lint | run *)
  lang : Toolkit.language;
  machine : string;
  source : string;
  opt : int;
}

type expect = { e_words : int; e_ops : int; e_bits : int }

let reference r =
  let c =
    Toolkit.compile
      ~options:{ Msl_mir.Pipeline.default_options with Msl_mir.Pipeline.opt_level = r.opt }
      ~use_microops:false r.lang (Msl_machine.Machines.get r.machine) r.source
  in
  { e_words = c.Toolkit.c_words; e_ops = c.Toolkit.c_ops; e_bits = c.Toolkit.c_bits }

(* The working set: seeded YALLL and EMPL programs across machines,
   with machines, sizes and opt levels in rotation so that only the
   programs' contents depend on the seed. *)
let working_set ~seed ~n =
  List.init n (fun i ->
      let s = (seed * 7919) + i in
      if i mod 4 = 3 then
        { kind = "compile"; lang = Toolkit.Empl;
          machine = List.nth [ "hp3"; "b17" ] (i / 4 mod 2);
          source = Workloads.pressure_program ~seed:s ~nvars:(4 + (i * 5 mod 8))
              ~nops:(8 + (i * 7 mod 16));
          opt = 1 }
      else
        { kind = "compile"; lang = Toolkit.Yalll;
          machine = List.nth [ "hp3"; "v11"; "b17" ] (i mod 3);
          source = Workloads.yalll_program ~seed:s ~len:(8 + (i * 11 mod 24));
          opt = (if i mod 8 = 1 then 2 else 1) })

(* Short programs for run requests: the looping YALLL examples. *)
let run_set () =
  List.concat_map
    (fun (f, lang, src) ->
      if lang = Toolkit.Yalll && f <> "shifts.yll" then
        List.map (fun m -> { kind = "run"; lang; machine = m; source = src; opt = 1 })
          (Corpus.machines_of lang)
      else [])
    (Corpus.examples ())

type mix = {
  ws : req array;
  ws_expect : expect array;
  runs : req array;
  runs_expect : expect array;
}

let make_mix cfg =
  let ws = Array.of_list (working_set ~seed:cfg.seed ~n:(if cfg.small then 8 else 48)) in
  let runs = Array.of_list (run_set ()) in
  { ws; ws_expect = Array.map reference ws; runs; runs_expect = Array.map reference runs }

(* -- the daemon --------------------------------------------------------------- *)

type daemon = { pid : int; socket : string }

let connect_fd socket =
  let deadline = Util.now () +. 20.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Util.now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.002;
        go ()
  in
  go ()

type conn = { ic : in_channel; oc : out_channel; fd : Unix.file_descr }

let connect socket =
  let fd = connect_fd socket in
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; fd }

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let recv c = input_line c.ic
let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let start_daemon cfg ~trace =
  let socket = Filename.concat cfg.work "serve.sock" in
  (try Sys.remove socket with Sys_error _ -> ());
  let log = Unix.openfile (Filename.concat cfg.work "serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let args =
    [ cfg.mslc; "serve"; "--socket"; socket; "-j"; string_of_int (daemon_workers cfg) ]
    @ match trace with Some f -> [ "--trace"; f ] | None -> []
  in
  let pid = Unix.create_process cfg.mslc (Array.of_list args) Unix.stdin log log in
  Unix.close log;
  { pid; socket }

let field name = function
  | Trace.J_obj fs -> List.assoc_opt name fs
  | _ -> None

let num name j = match field name j with Some (Trace.J_num f) -> int_of_float f | _ -> -1

let kill_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()

(* Ask for the daemon's counters, then shut it down and wait for it.  A
   daemon that no longer answers is killed; its counters read null. *)
let stop_daemon d c =
  match
    send c (Serve.request ~op:"stats" ~id:"stats" ());
    let stats = Trace.parse_json (recv c) in
    send c (Serve.request ~op:"shutdown" ~id:"bye" ());
    (try ignore (recv c) with End_of_file -> ());
    stats
  with
  | stats ->
      close c;
      ignore (Unix.waitpid [] d.pid);
      Result.value ~default:Trace.J_null stats
  | exception (End_of_file | Sys_error _ | Unix.Unix_error _) ->
      close c;
      kill_daemon d;
      Trace.J_null

let request ~id r =
  Serve.request ~op:r.kind ~id ~language:(Corpus.lang_key r.lang) ~machine:r.machine
    ~source:r.source ~opt:r.opt ()

(* Start a daemon and send the working set and the run set once, so the
   session starts with the cache filled.  A daemon that fails here is
   killed before the error goes on. *)
let start cfg mix ~trace =
  let d = start_daemon cfg ~trace in
  try
    let c = connect d.socket in
    let warm = Array.to_list mix.ws @ Array.to_list mix.runs in
    List.iteri (fun i r -> send c (request ~id:(Printf.sprintf "warm%d" i) r)) warm;
    List.iter (fun _ -> ignore (recv c)) warm;
    (d, c)
  with e ->
    kill_daemon d;
    raise e

(* -- the closed loop ------------------------------------------------------------ *)

type sample = {
  s_id : string;
  s_sent : float;
  s_recv : float;
  s_req : req;
  s_expect : expect option;  (* None for new sources: checked afterwards *)
  s_got : reply option;  (* None when the line was not a JSON object *)
}

(* What the oracle needs of a response line. *)
and reply = { r_ok : bool; r_words : int; r_ops : int; r_bits : int; r_halted : bool }

(* What one client thread did: the answered requests, the requests it
   sent, and how many of them never got a response because the
   connection failed (a dead daemon, a closed socket). *)
type conn_result = { samples : sample list; sent : int; lost : int; broken : bool }

(* One client thread: keep [window] requests in flight until [t_end],
   then drain. *)
let client cfg mix socket k ~t_end ~min_responses =
  let rng = Random.State.make [| cfg.seed; k; 0xc11 |] in
  let pending = Hashtbl.create 16 in
  let samples = ref [] and fresh = ref 0 and n = ref 0 in
  let next c =
    let id = Printf.sprintf "c%d-%d" k !n in
    incr n;
    let p = Random.State.int rng 100 in
    let r, e =
      if p < share_new then begin
        incr fresh;
        let s = (cfg.seed * 1_000_003) + (k * 100_000) + !fresh in
        ( { kind = "compile"; lang = Toolkit.Yalll;
            machine = List.nth [ "hp3"; "v11"; "b17" ] (s mod 3);
            source = Workloads.yalll_program ~seed:s ~len:16; opt = 1 },
          None )
      end
      else if p < share_new + share_run then
        let i = Random.State.int rng (Array.length mix.runs) in
        (mix.runs.(i), Some mix.runs_expect.(i))
      else
        let i = Random.State.int rng (Array.length mix.ws) in
        let r = mix.ws.(i) in
        let r = if p < share_new + share_run + share_lint then { r with kind = "lint" } else r in
        (r, Some mix.ws_expect.(i))
    in
    let line = request ~id r in
    Hashtbl.replace pending id (Util.now (), r, e);
    send c line
  in
  let loop c =
    for _ = 1 to window do next c done;
    let received = ref 0 in
    while Hashtbl.length pending > 0 do
      let line = recv c in
      let now = Util.now () in
      incr received;
      let id, got =
        match Trace.parse_json line with
        | Ok j ->
            ( (match field "id" j with Some (Trace.J_str s) -> s | _ -> "?"),
              Some
                { r_ok = field "ok" j = Some (Trace.J_bool true); r_words = num "words" j;
                  r_ops = num "ops" j; r_bits = num "bits" j;
                  r_halted = field "status" j = Some (Trace.J_str "halted") } )
        | Error _ -> ("?", None)
      in
      (match Hashtbl.find_opt pending id with
      | Some (sent, r, e) ->
          Hashtbl.remove pending id;
          samples := { s_id = id; s_sent = sent; s_recv = now; s_req = r; s_expect = e; s_got = got } :: !samples
      | None ->
          samples := { s_id = id; s_sent = now; s_recv = now; s_req = mix.ws.(0); s_expect = None; s_got = got } :: !samples);
      if now < t_end || !received < min_responses then next c
    done
  in
  let broken =
    match connect socket with
    | exception (Unix.Unix_error _ | Sys_error _) -> true
    | c ->
        let broken =
          match loop c with
          | () -> false
          | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> true
        in
        close c;
        broken
  in
  { samples = !samples; sent = !n; lost = Hashtbl.length pending; broken }

(* A closed-loop session against a live daemon. *)
type session = {
  answered : sample list;
  requests : int;  (* requests sent, plus one per connection that failed *)
  unanswered : int;  (* requests never answered, plus failed connections *)
  t0 : float;
  t1 : float;
}

(* Run the closed loop against a live daemon for [seconds]. *)
let drive cfg mix (d : daemon) ~seconds =
  let t0 = Util.now () in
  let t_end = t0 +. seconds in
  let min_responses = if cfg.small then 50 else 600 in
  let results = Array.make connections None in
  let threads =
    List.init connections (fun k ->
        Thread.create
          (fun () -> results.(k) <- Some (client cfg mix d.socket k ~t_end ~min_responses))
          ())
  in
  List.iter Thread.join threads;
  (* a thread that died of anything else left no result: it failed too *)
  let results = List.filter_map Fun.id (Array.to_list results) in
  let broken = connections - List.length (List.filter (fun r -> not r.broken) results) in
  {
    answered = List.concat_map (fun r -> r.samples) results;
    requests = broken + Util.sumi (List.map (fun r -> r.sent) results);
    unanswered = broken + Util.sumi (List.map (fun r -> r.lost) results);
    t0;
    t1 = Util.now ();
  }

(* -- the oracle ------------------------------------------------------------------ *)

(* Every response ok, its id one of ours, words/ops/bits equal to a
   direct compile, run requests halted.  New sources are compiled here
   after the timed phase. *)
let check cfg samples =
  let seen = Hashtbl.create 4096 in
  let planted = ref cfg.plant in
  List.fold_left
    (fun bad s ->
      let ok =
        match s.s_got with
        | None -> false
        | Some g ->
            let expect = match s.s_expect with Some e -> e | None -> reference s.s_req in
            let expect =
              if !planted then (planted := false; { expect with e_words = expect.e_words + 1 })
              else expect
            in
            (not (Hashtbl.mem seen s.s_id))
            && String.length s.s_id > 0 && s.s_id.[0] = 'c'
            && g.r_ok && g.r_words = expect.e_words && g.r_ops = expect.e_ops
            && g.r_bits = expect.e_bits
            && (s.s_req.kind <> "run" || g.r_halted)
      in
      Hashtbl.replace seen s.s_id ();
      if ok then bad else bad + 1)
    0 samples

(* The failed ops of a session: wrong or unmatched answers, and
   requests that never got one. *)
let failures cfg sess = check cfg sess.answered + sess.unanswered

(* The daemon's own serve/job spans, paired per domain: id -> (job us,
   queue wait us). *)
let daemon_jobs file =
  let jobs = Hashtbl.create 4096 in
  let open_b = Hashtbl.create 8 in
  (match Trace.read_events file with
  | Error _ -> ()
  | Ok events ->
      List.iter
        (fun (e : Trace.event) ->
          if e.Trace.ev_cat = "serve" && e.Trace.ev_name = "job" then
            match e.Trace.ev_ph with
            | "B" -> Hashtbl.replace open_b e.Trace.ev_tid e
            | "E" -> (
                match Hashtbl.find_opt open_b e.Trace.ev_tid with
                | Some b ->
                    Hashtbl.remove open_b e.Trace.ev_tid;
                    let arg k = List.assoc_opt k b.Trace.ev_args in
                    let id = match arg "id" with Some (Trace.J_str s) -> s | _ -> "?" in
                    let wait = match arg "queue_wait_us" with Some (Trace.J_num w) -> w | _ -> 0.0 in
                    Hashtbl.replace jobs id (e.Trace.ev_ts -. b.Trace.ev_ts, wait)
                | None -> ())
            | _ -> ())
        events);
  jobs

(* A traced daemon session of [seconds]: every request a client span,
   queue wait and job time from the daemon's own serve/job spans
   (matched by request id), counters from its stats op.  Fills the
   serve.* layer metrics into [acc]; returns the requests sent and the
   failed ones. *)
let traced_session cfg acc ~seconds =
  let tfile = Filename.concat cfg.work "daemon-trace.jsonl" in
  let mix = make_mix cfg in
  let d, c = start cfg mix ~trace:(Some tfile) in
  let sess = try drive cfg mix d ~seconds with e -> kill_daemon d; raise e in
  let stats = stop_daemon d c in
  let samples = sess.answered in
  List.iter
    (fun s ->
      Spans.new_op ();
      ignore (Spans.add ~op:!Spans.op "serve.request" s.s_sent s.s_recv))
    samples;
  let jobs = daemon_jobs tfile in
  let waits = ref [] and jobs_us = ref [] and wire = ref [] in
  List.iter
    (fun s ->
      match Hashtbl.find_opt jobs s.s_id with
      | Some (job, wait) ->
          jobs_us := job :: !jobs_us;
          waits := wait :: !waits;
          wire := (((s.s_recv -. s.s_sent) *. 1e6) -. job -. wait) :: !wire
      | None -> ())
    samples;
  Acc.set acc "serve.queue_wait_p50_us" (Util.median !waits);
  Acc.set acc "serve.queue_wait_p99_us" (Util.quantile 0.99 !waits);
  Acc.set acc "serve.job_p50_us" (Util.median !jobs_us);
  Acc.set acc "serve.job_p99_us" (Util.quantile 0.99 !jobs_us);
  Acc.set acc "serve.wire_p50_us" (Util.median !wire);
  Acc.set acc "serve.queue_peak" (float_of_int (num "queue_peak" stats));
  Acc.set acc "serve.resp_errors" (float_of_int (num "resp_errors" stats));
  let hits = float_of_int (num "hits" stats) and misses = float_of_int (num "misses" stats) in
  Acc.set acc "serve.hit_ratio" (Util.ratio hits (hits +. misses));
  (sess.requests, failures cfg sess)
