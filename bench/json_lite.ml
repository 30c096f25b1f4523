(* Minimal JSON support for the machine-readable bench baseline: a
   printer for emitting BENCH_hfsc.json and a recursive-descent parser
   used by the smoke target to validate the file's schema. Covers the
   JSON subset the bench emits (only quote, backslash and newline
   escapes; no unicode handling) — not a general-purpose JSON library; the
   toolchain here has no yojson. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- printing ------------------------------------------------------ *)

(* The printer writes straight into the caller's buffer: escapes, pads
   and integer-valued numbers go in without an intermediate string or a
   [Printf] call, since a daemon's stats document is mostly integer
   counters. Only non-integers (and magnitudes from 1e15 up) take
   [%.17g]. *)

let add_escaped b s =
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let esc =
      match String.unsafe_get s i with
      | '"' -> "\\\""
      | '\\' -> "\\\\"
      | '\n' -> "\\n"
      | _ -> ""
    in
    if String.length esc > 0 then begin
      Buffer.add_substring b s !start (i - !start);
      Buffer.add_string b esc;
      start := i + 1
    end
  done;
  Buffer.add_substring b s !start (n - !start)

let spaces = String.make 64 ' '

let rec add_pad b n =
  if n <= String.length spaces then Buffer.add_substring b spaces 0 n
  else begin
    Buffer.add_string b spaces;
    add_pad b (n - String.length spaces)
  end

(* the decimal digits of [n >= 0] *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

(* [%.0f] of an integer-valued float below 1e15 in magnitude is its
   integer, signed: "-0" for negative zero *)
let add_num b f =
  if Float.is_integer f && Float.abs f < 1e15 then begin
    if Float.sign_bit f then Buffer.add_char b '-';
    add_digits b (Float.to_int (Float.abs f))
  end
  else Buffer.add_string b (Printf.sprintf "%.17g" f)

let rec print ?(indent = 0) b v =
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num f ->
      if not (Float.is_finite f) then invalid_arg "Json_lite: non-finite";
      add_num b f
  | Str s ->
      Buffer.add_char b '"';
      add_escaped b s;
      Buffer.add_char b '"'
  | List [] -> Buffer.add_string b "[]"
  | List xs ->
      Buffer.add_string b "[\n";
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b ",\n";
          add_pad b (indent + 2);
          print ~indent:(indent + 2) b x)
        xs;
      Buffer.add_char b '\n';
      add_pad b indent;
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj kvs ->
      Buffer.add_string b "{\n";
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_string b ",\n";
          add_pad b (indent + 2);
          Buffer.add_char b '"';
          add_escaped b k;
          Buffer.add_string b "\": ";
          print ~indent:(indent + 2) b x)
        kvs;
      Buffer.add_char b '\n';
      add_pad b indent;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  print b v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* --- parsing ------------------------------------------------------- *)

exception Parse_error of string

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char b '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char b '\\'; advance (); go ()
          | Some 'n' -> Buffer.add_char b '\n'; advance (); go ()
          | _ -> fail "unsupported escape")
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          Obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          List (elems [])
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

(* --- accessors ----------------------------------------------------- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_list_opt = function List xs -> Some xs | _ -> None
let to_num_opt = function Num f -> Some f | _ -> None
let to_str_opt = function Str s -> Some s | _ -> None
