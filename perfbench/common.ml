(* What every workload shares: the run configuration, the result it
   hands back, set-up timing and the timed loop. *)

type cfg = {
  seed : int;
  seconds : float;  (* length of the timed phase *)
  trace : bool;  (* traced run: per-layer metrics instead of end-to-end *)
  domains : int;  (* worker domains (min of nproc and 2) *)
  work : string;  (* working directory inside the checkout *)
  plant : bool;  (* plant one wrong expected answer (oracle self-test) *)
  small : bool;  (* reduced inputs (self-test) *)
  setups : int;  (* set-ups timed per run; setup_s is the fastest *)
  mslc : string;  (* the mslc executable, for the traced serve session *)
}

type metric = string * float * string  (* name, value, unit *)

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  inputs : (string * Util.json) list;  (* recorded input properties *)
  detail : (string * Util.json) list;  (* further numbers, for the record *)
}

(* The set-up times of the run, for the run's record. *)
let setup_samples = ref []

(* The host this benchmark was tuned on slows a process down by turns:
   every few hundred milliseconds, and for whole seconds at a time, the
   same code ran 1.5-1.8 times slower, on the CPU clock as on the wall
   clock, with shares of slow time that changed from run to run.  The
   host only ever slows work down, so of many samples shorter than
   those turns a run reports the fastest: the median and the other
   quantiles track the host, the fastest sample the code.  Over four
   sets of ten simulate runs the fastest pass's throughput spread
   6.5-8.1% between runs, its 90th percentile 9.1-15.7% and its median
   5.4-27%. *)
let fastest ~higher xs =
  List.fold_left (if higher then Float.max else Float.min) (List.hd xs) xs

(* When the first set-up sample was taken. *)
let setup_t0 = ref 0.0

(* One set-up, timed alone on the CPU clock after a heap compaction;
   the time goes to [setup_samples]. *)
let timed_setup f =
  if !setup_samples = [] then setup_t0 := Util.now ();
  Gc.compact ();
  let t0 = Util.cpu_now () in
  let v = f () in
  setup_samples := (Util.cpu_now () -. t0) :: !setup_samples;
  v

(* The timed phase calls this between rounds: while there are fewer
   than [cfg.setups] samples, it takes another one (its result
   dropped) each time another [cfg.seconds / cfg.setups] has passed.
   The samples spread evenly over the run, so that the host's fast
   turns are among them, and a run does the same amount of set-up work
   whatever the host did. *)
let resample_setup cfg f =
  let n = List.length !setup_samples in
  if n < cfg.setups
     && Util.now () -. !setup_t0 >= cfg.seconds *. float_of_int n /. float_of_int cfg.setups
  then ignore (timed_setup f)

(* The set-up time: the fastest sample, after topping them up to
   [cfg.setups]. *)
let setup_time cfg f =
  while List.length !setup_samples < cfg.setups do
    ignore (timed_setup f)
  done;
  fastest ~higher:false !setup_samples

(* Call [f round] until [cfg.seconds] have passed and at least
   [min_rounds] rounds ran; returns the number of rounds. *)
let timed_rounds cfg ~min_rounds f =
  let t_end = Util.now () +. cfg.seconds in
  let rec go r =
    if r >= min_rounds && Util.now () >= t_end then r
    else begin
      f r;
      go (r + 1)
    end
  in
  go 0

(* A per-layer accumulator: name -> summed value. *)
module Acc = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let get (t : t) k = Option.value ~default:0.0 (Hashtbl.find_opt t k)
  let add (t : t) k v = Hashtbl.replace t k (get t k +. v)
  let addi t k v = add t k (float_of_int v)
  let set (t : t) k v = Hashtbl.replace t k v
end

(* Median over passes of each layer value (a value a pass did not
   record counts as 0 there). *)
let median_tables tables =
  let keys = Hashtbl.create 64 in
  List.iter (fun t -> Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) t) tables;
  let out = Acc.create () in
  Hashtbl.iter
    (fun k () -> Acc.set out k (Util.median (List.map (fun t -> Acc.get t k) tables)))
    keys;
  out

let gc_snapshot () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections, s.Gc.minor_words)

(* Sum over passes of one layer value. *)
let sum_tables tables k = Util.sum (List.map (fun t -> Acc.get t k) tables)

(* GC activity between two snapshots, into a layer table. *)
let add_gc acc (mi0, ma0, w0) (mi1, ma1, w1) =
  Acc.addi acc "gc.minor_collections" (mi1 - mi0);
  Acc.addi acc "gc.major_collections" (ma1 - ma0);
  Acc.add acc "gc.minor_mwords" ((w1 -. w0) /. 1e6)

(* -- end-to-end figures from windows of the timed phase ---------------------- *)

(* The timed phase is cut into windows.  Each window yields a
   throughput, a median latency and a tail latency, and a run reports,
   for each, the fastest window when windows are shorter than the
   host's turns ([fast]; simulate: a pass of about 40 ms), and the
   median when they are longer and so already average over them
   (build-cold: a cycle of about 0.27 s over the batches, on two
   domains).  Over four sets of ten build-cold runs the median window
   spread 2.9-7.7% between runs, the fastest window 7.4-22%.  The
   medians and every window's figures are kept in the record's
   detail. *)
type window = { w_ops : int; w_secs : float; w_p50_ms : float; w_tail_ms : float }

let window_metrics ~fast ws =
  let pick higher f =
    let xs = List.map f ws in
    if fast then fastest ~higher xs else Util.median xs
  in
  [
    ("ops_per_s", pick true (fun w -> float_of_int w.w_ops /. w.w_secs), "ops/s");
    ("latency_p50_ms", pick false (fun w -> w.w_p50_ms), "ms");
    ("latency_tail_ms", pick false (fun w -> w.w_tail_ms), "ms");
  ]

let window_medians ws =
  let arr f = Util.Arr (List.rev_map (fun w -> Util.Num (f w)) ws) in
  [
    ("windows", Util.Int (List.length ws));
    ("window_rates", arr (fun w -> float_of_int w.w_ops /. w.w_secs));
    ("window_p50_ms", arr (fun w -> w.w_p50_ms));
    ("window_tail_ms", arr (fun w -> w.w_tail_ms));
    ("median_ops_per_s",
     Util.Num (Util.median (List.map (fun w -> float_of_int w.w_ops /. w.w_secs) ws)));
    ("median_latency_p50_ms", Util.Num (Util.median (List.map (fun w -> w.w_p50_ms) ws)));
    ("median_latency_tail_ms", Util.Num (Util.median (List.map (fun w -> w.w_tail_ms) ws)));
  ]
