(** Content addressing: collision-free digests of structured keys.

    A fingerprint is the MD5 digest of a length-prefixed concatenation of
    the parts, so [["ab"; "c"]] and [["a"; "bc"]] digest differently —
    the property a content-addressed cache key needs. *)

type t = private string
(** 16 raw digest bytes. *)

val of_parts : string list -> t

val equal : t -> t -> bool
