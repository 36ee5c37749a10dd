(** Structured diagnostics.

    Every phase of the toolkit reports failure by raising {!Error} with a
    phase tag, a location and a message, so drivers render uniform
    messages and tests can assert on the phase that failed. *)

type phase =
  | Lexing
  | Parsing
  | Semantic
  | Instantiation  (** S* instantiation against a machine *)
  | Verification  (** Hoare-logic verification *)
  | Allocation  (** register allocation / binding *)
  | Codegen
  | Compaction
  | Assembly
  | Execution  (** simulator-level faults surfaced as diagnostics *)
  | Lint  (** post-compile static-analysis findings promoted to failures *)
  | Internal
      (** an unexpected exception caught at a fault boundary (worker
          firewall, CLI driver) and converted into a structured finding *)

val phase_name : phase -> string

type t = { phase : phase; loc : Loc.t; message : string }

exception Error of t

val error : ?loc:Loc.t -> phase -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [error phase fmt ...] raises {!Error} with the formatted message. *)

val to_string : t -> string

val protect : (unit -> 'a) -> ('a, t) result
(** Run a computation, capturing a raised diagnostic as [Error]. *)
