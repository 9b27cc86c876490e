type value =
  | Int of int
  | Bool of bool
  | String of string
  | Float of int option * float

let int i = Int i
let bool b = Bool b
let string s = String s
let float ?decimals f = Float (decimals, f)

let add_quoted b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_value b key = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | String s -> add_quoted b s
  | Float (_, f) when not (Float.is_finite f) ->
      invalid_arg (Printf.sprintf "Json.obj: %S is not a finite number" key)
  | Float (Some d, f) -> Buffer.add_string b (Printf.sprintf "%.*f" d f)
  | Float (None, f) -> Buffer.add_string b (Printf.sprintf "%g" f)

let obj fields =
  let b = Buffer.create 256 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ", ";
      add_quoted b k;
      Buffer.add_string b ": ";
      add_value b k v)
    fields;
  Buffer.add_char b '}';
  Buffer.contents b
