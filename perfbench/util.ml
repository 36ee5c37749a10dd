(* Small shared pieces: the clock, order statistics, process memory, and
   the JSON the benchmark prints. *)

let now = Msl_util.Clock.now_s

(* CPU seconds the process has run, user and system (see
   cpu_clock_stubs.c).  Single-domain work is timed on it: unlike the
   wall clock it does not count the time the host gave to other
   guests. *)
external cpu_ns : unit -> int64 = "perfbench_cpu_ns"

let cpu_now () = Int64.to_float (cpu_ns ()) *. 1e-9

(* -- order statistics ------------------------------------------------------ *)

(* Linear interpolation between closest ranks, as numpy's default and
   Python's statistics.quantiles(method="inclusive") compute it. *)
let quantile q xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let r = q *. float_of_int (n - 1) in
      let i = int_of_float r in
      let frac = r -. float_of_int i in
      if i + 1 < n then a.(i) +. (frac *. (a.(i + 1) -. a.(i))) else a.(n - 1)

let median xs = quantile 0.5 xs

let sum xs = List.fold_left ( +. ) 0.0 xs
let sumi xs = List.fold_left ( + ) 0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* -- process memory ---------------------------------------------------------- *)

(* VmHWM (peak resident set) of a process, in MB, from /proc. *)
let peak_rss_mb ?(pid = "self") () =
  let file = Printf.sprintf "/proc/%s/status" pid in
  match open_in file with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> nan
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                  Scanf.sscanf
                    (String.sub line 6 (String.length line - 6))
                    " %d kB"
                    (fun kb -> float_of_int kb /. 1024.0)
                else go ()
          in
          go ())

(* -- JSON out ------------------------------------------------------------------ *)

(* The toolkit's own JSON printers round numbers to six digits; results
   must keep every digit, so the benchmark writes its own. *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let rec add_json buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Num f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.17g" f)
      else Buffer.add_string buf "null"
  | Str s ->
      Buffer.add_char buf '"';
      String.iter
        (function
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | c when Char.code c < 0x20 ->
              Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char buf c)
        s;
      Buffer.add_char buf '"'
  | Arr vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          add_json buf v)
        vs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          add_json buf (Str k);
          Buffer.add_string buf ": ";
          add_json buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  add_json buf j;
  Buffer.contents buf

(* -- files ----------------------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
