(* The reference JSON printer: [Json_lite]'s printer as it was before
   it learned to write integers, pads and escapes without intermediate
   strings. Formatting goes through [Printf] and a buffer per escaped
   string, which is slow but obviously right; the library's printer
   must produce exactly these bytes (test_json). *)

open Json_lite

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec print ?(indent = 0) b (v : Json_lite.t) =
  let pad n = String.make n ' ' in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num f ->
      if not (Float.is_finite f) then invalid_arg "Json_lite: non-finite";
      Buffer.add_string b (num_to_string f)
  | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
  | List [] -> Buffer.add_string b "[]"
  | List xs ->
      Buffer.add_string b "[\n";
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b (pad (indent + 2));
          print ~indent:(indent + 2) b x)
        xs;
      Buffer.add_char b '\n';
      Buffer.add_string b (pad indent);
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj kvs ->
      Buffer.add_string b "{\n";
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b (pad (indent + 2));
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\": ";
          print ~indent:(indent + 2) b x)
        kvs;
      Buffer.add_char b '\n';
      Buffer.add_string b (pad indent);
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  print b v;
  Buffer.add_char b '\n';
  Buffer.contents b
