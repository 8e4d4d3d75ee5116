(* Minimal JSON emitter for the result line and the detail record. *)

type t =
  | Str of string
  | Num of float
  | Int of int
  | Bool of bool
  | Obj of (string * t) list
  | Arr of t list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  "\"" ^ Buffer.contents b ^ "\""

(* Numbers keep all their digits (%.17g round-trips a double);
   non-finite values have no JSON spelling and render as null. *)
let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let rec to_string = function
  | Str s -> escape s
  | Num x -> num x
  | Int i -> string_of_int i
  | Bool b -> string_of_bool b
  | Obj fields ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> escape k ^ ": " ^ to_string v) fields)
    ^ "}"
  | Arr items -> "[" ^ String.concat ", " (List.map to_string items) ^ "]"
