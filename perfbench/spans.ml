(* The benchmark's own span recorder, used only by traced runs.

   Spans are kept in memory and written out when the run ends.  Each has
   a name, a start and an end on the monotonic clock, the span that
   caused it and the id of the op it belongs to; a span's self time is
   its duration minus the part of it its children cover.  When the
   recorder is off, [span] is one branch and a direct call. *)

type t = {
  s_id : int;
  s_name : string;
  s_parent : int;  (* 0 = a root span *)
  s_op : int;
  s_t0 : float;
  s_t1 : float;
}

let on = ref false
let spans : t list ref = ref []
let next_id = ref 0
let stack : (int * float) list ref = ref []
let op = ref 0
let lock = Mutex.create ()

let reset () =
  spans := [];
  next_id := 0;
  stack := [];
  op := 0

let fresh_id () =
  incr next_id;
  !next_id

let push s = Mutex.protect lock (fun () -> spans := s :: !spans)

let add ?(parent = 0) ~op:o name t0 t1 =
  let id = Mutex.protect lock fresh_id in
  push { s_id = id; s_name = name; s_parent = parent; s_op = o; s_t0 = t0; s_t1 = t1 };
  id

(* The innermost open span and its start, for children timed by the
   layer itself (the pass manager's timings) and recorded after the
   fact. *)
let current () = match !stack with (p, _) :: _ -> p | [] -> 0
let current_start () = match !stack with (_, t0) :: _ -> t0 | [] -> Util.now ()

(* Start a new op: every span recorded until the next call shares its id. *)
let new_op () = incr op

(* Time [f] as a child of the innermost open span (single-threaded
   callers only; client threads use [add]). *)
let span name f =
  if not !on then f ()
  else begin
    let id = Mutex.protect lock fresh_id in
    let parent = current () in
    let t0 = Util.now () in
    stack := (id, t0) :: !stack;
    let finish () =
      let t1 = Util.now () in
      stack := List.tl !stack;
      push { s_id = id; s_name = name; s_parent = parent; s_op = !op; s_t0 = t0; s_t1 = t1 }
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Synthetic children laid out back to back from [t0]: the pipeline
   reports each pass's duration, not its start. *)
let add_sequence ~parent ~t0 parts =
  ignore
    (List.fold_left
       (fun t (name, secs) ->
         ignore (add ~parent ~op:!op name t (t +. secs));
         t +. secs)
       t0 parts)

(* Self time in seconds, summed per span name, over the spans recorded
   after span id [since]. *)
let self_times ?(since = 0) () =
  let all = List.filter (fun s -> s.s_id > since) !spans in
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.s_parent <> 0 then
        Hashtbl.replace child s.s_parent
          ((s.s_t1 -. s.s_t0)
          +. Option.value ~default:0.0 (Hashtbl.find_opt child s.s_parent)))
    all;
  let totals = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let own =
        s.s_t1 -. s.s_t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child s.s_id)
      in
      Hashtbl.replace totals s.s_name
        (Float.max 0.0 own
        +. Option.value ~default:0.0 (Hashtbl.find_opt totals s.s_name)))
    all;
  totals

let last_id () = !next_id

(* Chrome-trace-style JSONL, one complete span per line, oldest first. *)
let write file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc
            (Util.to_string
               (Util.Obj
                  [
                    ("id", Util.Int s.s_id);
                    ("name", Util.Str s.s_name);
                    ("parent", Util.Int s.s_parent);
                    ("op", Util.Int s.s_op);
                    ("start_us", Util.Num (s.s_t0 *. 1e6));
                    ("end_us", Util.Num (s.s_t1 *. 1e6));
                  ]));
          output_char oc '\n')
        (List.rev !spans))
