module Command = Runtime.Command

type t = {
  file : string;
  commands : (int * Command.t) list;
  sources : until:float -> Netsim.Source.t list;
}

(* [Bad] aborts the statement being read; [parse] pins it to the
   statement's line as [At]. Line 0 is the file as a whole. *)
exception Bad of string
exception At of int * string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt
let get = function Ok v -> v | Error e -> raise (Bad e)

let int_of_token s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail "expected an integer, got %S" s

let located ~file ~line code msg =
  if line > 0 then Printf.sprintf "%s:%d: %s: %s" file line code msg
  else Printf.sprintf "%s: %s: %s" file code msg

(* --- statements ------------------------------------------------------ *)

type source_spec = {
  skind : string;
  sflow : int;
  srate : float;
  spkt : int;
  sseed : int option;
  son : float option;
  soff : float option;
  scount : int option;
  sat : float option;
  sstart : float;
  sstop : float option;
}

type stmt =
  | Link of string option * string list  (** name, [rate R [backend B]] *)
  | Class of string * string * string list  (** name, parent, attributes *)
  | Limit of string list
  | Source of source_spec

let parse_source toks =
  let flow = ref None and rate = ref 0. and pkt = ref 0 in
  let seed = ref None and on = ref None and off = ref None in
  let count = ref None and at = ref None in
  let start = ref 0. and stop = ref None in
  let time v = get (Command.parse_time v) in
  let rec attrs = function
    | [] -> ()
    | [ kw ] -> fail "source attribute %S needs a value" kw
    | kw :: v :: rest ->
        (match kw with
        | "flow" -> flow := Some (int_of_token v)
        | "rate" -> rate := get (Command.parse_rate v)
        | "pkt" -> pkt := int_of_token v
        | "seed" -> seed := Some (int_of_token v)
        | "on" -> on := Some (time v)
        | "off" -> off := Some (time v)
        | "count" -> count := Some (int_of_token v)
        | "at" -> at := Some (time v)
        | "start" -> start := time v
        | "stop" -> stop := Some (time v)
        | other -> fail "unknown source attribute %S" other);
        attrs rest
  in
  let skind = match toks with k :: _ -> k | [] -> fail "source needs a kind" in
  attrs (List.tl toks);
  let s =
    {
      skind;
      sflow = (match !flow with Some f -> f | None -> fail "source needs flow");
      srate = !rate;
      spkt = !pkt;
      sseed = !seed;
      son = !on;
      soff = !off;
      scount = !count;
      sat = !at;
      sstart = !start;
      sstop = !stop;
    }
  in
  (match skind with
  | "cbr" | "greedy" ->
      if s.srate <= 0. || s.spkt <= 0 then
        fail "%s source needs rate and pkt" skind
  | "poisson" ->
      if s.srate <= 0. || s.spkt <= 0 || s.sseed = None then
        fail "poisson source needs rate, pkt and seed"
  | "onoff" ->
      if
        s.srate <= 0. || s.spkt <= 0 || s.sseed = None || s.son = None
        || s.soff = None
      then fail "onoff source needs rate, pkt, on, off and seed"
  | "burst" ->
      if s.spkt <= 0 || s.scount = None then
        fail "burst source needs pkt and count"
  | other -> fail "unknown source kind %S" other);
  s

let make_source ~until s =
  let stop = Option.value s.sstop ~default:until in
  match s.skind with
  | "cbr" | "greedy" ->
      Netsim.Source.cbr ~flow:s.sflow ~rate:s.srate ~pkt_size:s.spkt
        ~start:s.sstart ~stop ()
  | "poisson" ->
      Netsim.Source.poisson ~flow:s.sflow ~rate:s.srate ~pkt_size:s.spkt
        ~seed:(Option.get s.sseed) ~start:s.sstart ~stop ()
  | "onoff" ->
      Netsim.Source.on_off_exp ~flow:s.sflow ~peak_rate:s.srate
        ~pkt_size:s.spkt ~mean_on:(Option.get s.son)
        ~mean_off:(Option.get s.soff) ~seed:(Option.get s.sseed)
        ~start:s.sstart ~stop ()
  | _ (* burst *) ->
      Netsim.Source.burst ~flow:s.sflow ~pkt_size:s.spkt
        ~count:(Option.get s.scount)
        ~at:(Option.value s.sat ~default:s.sstart)

let parse_statement line =
  match Command.tokenize line with
  | [] -> None
  | "link" :: "rate" :: _ as toks -> Some (Link (None, List.tl toks))
  | "link" :: name :: toks -> Some (Link (Some name, toks))
  | [ "link" ] -> fail "link: expected [NAME] rate RATE [backend hfsc|rr]"
  | "class" :: name :: "parent" :: parent :: attrs ->
      Some (Class (name, parent, attrs))
  | "class" :: _ -> fail "class: expected NAME parent PARENT"
  | "limit" :: toks -> Some (Limit toks)
  | "source" :: toks -> Some (Source (parse_source toks))
  | kw :: _ -> fail "unknown statement %S" kw

(* --- lowering onto commands ------------------------------------------ *)

(* [stmts] are (line, statement) in file order. A sole link statement
   is hoisted to the front, so a one-link file reads in any order; with
   several, class and limit statements bind to the most recent link
   statement. *)
let lower stmts =
  let stmts =
    match List.filter (function _, Link _ -> true | _ -> false) stmts with
    | [] -> raise (At (0, "missing 'link rate ...' statement"))
    | [ link ] -> link :: List.filter (fun s -> s != link) stmts
    | _ -> stmts
  in
  let current = ref None and limited = ref false in
  let link () =
    match !current with
    | Some name -> name
    | None -> fail "statement before any 'link' statement"
  in
  let lower_one = function
    | Link (name, toks) ->
        let name =
          match (name, !current) with
          | Some n, _ -> n
          | None, None -> "link0"
          | None, Some _ ->
              fail
                "duplicate 'link' statement: every link after the first \
                 needs a name"
        in
        current := Some name;
        limited := false;
        Some (get (Command.of_tokens ("link" :: "add" :: name :: toks)))
    | Class (name, parent, attrs) ->
        let target = Command.On_link (link ()) in
        let op = get (Command.add_class ~name ~parent attrs) in
        Some { Command.target; op }
    | Limit toks ->
        let l = link () in
        if !limited then fail "duplicate 'limit' statement";
        limited := true;
        Some (get (Command.of_tokens ("link" :: l :: "limit" :: toks)))
    | Source _ -> None
  in
  List.filter_map
    (fun (line, stmt) ->
      match lower_one stmt with
      | cmd -> Option.map (fun c -> (line, c)) cmd
      | exception Bad e -> raise (At (line, e)))
    stmts

let parse ?(file = "-") text =
  try
    let stmts =
      String.split_on_char '\n' text
      |> List.mapi (fun i line ->
             match parse_statement line with
             | s -> Option.map (fun s -> (i + 1, s)) s
             | exception Bad e -> raise (At (i + 1, e)))
      |> List.filter_map Fun.id
    in
    let commands = lower stmts in
    let mapped =
      List.filter_map
        (function
          | _, { Command.op = Command.Add_class { flow; _ }; _ } -> flow
          | _ -> None)
        commands
    in
    let specs =
      List.filter_map
        (function line, Source s -> Some (line, s) | _ -> None)
        stmts
    in
    (* sources are device-wide and may feed a flow on any link *)
    List.iter
      (fun (line, s) ->
        if not (List.mem s.sflow mapped) then
          let msg = Printf.sprintf "source refers to unmapped flow %d" s.sflow in
          raise (At (line, msg)))
      specs;
    let sources ~until = List.map (fun (_, s) -> make_source ~until s) specs in
    Ok { file; commands; sources }
  with At (line, msg) ->
    Error
      (located ~file ~line
         (Runtime.Engine.error_code_name Runtime.Engine.Parse_error)
         msg)

let load path =
  match
    In_channel.with_open_bin path In_channel.input_all
  with
  | text -> parse ~file:path text
  | exception Sys_error e -> Error e

let apply t ~exec =
  let rec go = function
    | [] -> Ok ()
    | (line, cmd) :: rest -> (
        match exec cmd with
        | Ok _ -> go rest
        | Error { Runtime.Engine.code; message } ->
            Error
              (located ~file:t.file ~line
                 (Runtime.Engine.error_code_name code)
                 message))
  in
  go t.commands
