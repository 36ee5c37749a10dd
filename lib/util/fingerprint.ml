(* Length-prefixed digesting, so part boundaries cannot alias. *)

type t = string

let of_parts parts =
  let b = Buffer.create 64 in
  List.iter
    (fun p ->
      Buffer.add_string b (string_of_int (String.length p));
      Buffer.add_char b ':';
      Buffer.add_string b p)
    parts;
  Digest.bytes (Buffer.to_bytes b)

let equal = String.equal
