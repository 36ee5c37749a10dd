(* Uniform diagnostics for every phase of the toolkit.

   Each compiler phase raises [Error] with a structured diagnostic rather
   than failing with a bare string, so drivers can render consistent
   messages and tests can match on the phase. *)

type phase =
  | Lexing
  | Parsing
  | Semantic
  | Instantiation  (* S* instantiation against a machine *)
  | Verification   (* Hoare-logic verification *)
  | Allocation     (* register allocation / binding *)
  | Codegen
  | Compaction
  | Assembly
  | Execution      (* simulator-level faults surfaced as diagnostics *)
  | Lint           (* post-compile static-analysis findings promoted to failures *)
  | Internal       (* unexpected exceptions converted to structured findings *)

let phase_name = function
  | Lexing -> "lexical error"
  | Parsing -> "parse error"
  | Semantic -> "semantic error"
  | Instantiation -> "instantiation error"
  | Verification -> "verification failure"
  | Allocation -> "allocation error"
  | Codegen -> "code generation error"
  | Compaction -> "compaction error"
  | Assembly -> "assembly error"
  | Execution -> "execution error"
  | Lint -> "lint failure"
  | Internal -> "internal error"

type t = {
  phase : phase;
  loc : Loc.t;
  message : string;
}

exception Error of t

let error ?(loc = Loc.dummy) phase fmt =
  Format.kasprintf (fun message -> raise (Error { phase; loc; message })) fmt

let pp ppf t =
  if Loc.is_dummy t.loc then
    Fmt.pf ppf "%s: %s" (phase_name t.phase) t.message
  else Fmt.pf ppf "%a: %s: %s" Loc.pp t.loc (phase_name t.phase) t.message

let to_string t = Fmt.str "%a" pp t

(* Run [f] and return its result or the diagnostic it raised. *)
let protect f = try Ok (f ()) with Error d -> Error d
