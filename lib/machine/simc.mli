(** Compiled simulation engine.

    Translates the control store once into a flowgraph of pre-decoded
    closures — one per microinstruction, with operand registers,
    destination widths, branch conditions and sequencing targets
    resolved at translation time — and dispatches direct-threaded
    through a mutable next-word index.  Semantics are the interpreter's,
    bit for bit: the engine mutates the same {!Sim.t} (via
    [Sim.Engine]) and shares the microtrap servicing.  It keeps no copy
    of the {!Phase} model: it compiles a word only when {!Phase.direct}
    accepts every one of its phases, and falls back to {!Sim.step} for
    any other word, for any word containing [Int_ack] (the
    interrupt-service boundary) and for any word it cannot prove
    int-representable.  The differential oracle in
    [test/test_engine_diff.ml] holds both engines to byte-identical
    {!Sim.state_digest}s.

    Typical use: [Toolkit.load] a program, {!translate} once, then
    {!run} — and {!Sim.reset} + {!run} again without re-paying
    translation. *)

type t

val translate : Sim.t -> t
(** Compile the simulator's current control store.  The translation is
    tied to that store: load a different program and the engine is
    stale ([Sim.reset] is fine — it preserves the store).  When
    {!Msl_util.Trace} is enabled this is a ["simc"/"translate"] span
    recording the word counts. *)

val run : ?fuel:int -> t -> Sim.status
(** Execute until [Halt] or [fuel] microinstructions (default
    2,000,000), starting from the simulator's current pc.  Exactly
    {!Sim.run}'s observable behaviour — state, diagnostics, metrics —
    at compiled speed.  When tracing is enabled the run is a
    ["simc"/"execute"] span with the interpreter's periodic counters. *)

val native_words : t -> int
(** Words compiled to native closures. *)

val fallback_words : t -> int
(** Words delegated to {!Sim.step}: interrupt-service boundaries, words
    with a phase {!Phase.direct} rejects, and words the translator
    cannot prove int-representable. *)
