type curve_updates = {
  rsc : Curve.Service_curve.t option;
  fsc : Curve.Service_curve.t option;
  usc : Curve.Service_curve.t option;
}

type filter_spec = {
  fflow : int;
  fsrc : string option;
  fdst : string option;
  fproto : Pkt.Header.proto option;
  fsport : (int * int) option;
  fdport : (int * int) option;
}

type trace_op = Trace_on | Trace_off | Trace_dump
type limit_val = Unlimited | At of int
type limit_policy = Policy_tail | Policy_longest
type target = Default_link | On_link of string

type op =
  | Add_class of {
      name : string;
      parent : string;
      flow : int option;
      curves : curve_updates;
      quantum : int option;
      qlimit : int option;
      qbytes : int option;
    }
  | Modify_class of {
      name : string;
      curves : curve_updates;
      quantum : int option;
      qlimit : int option;
      qbytes : int option;
    }
  | Delete_class of string
  | Attach_filter of filter_spec
  | Detach_filter of int
  | Stats of string option
  | Trace of trace_op
  | Set_limit of {
      lpkts : limit_val option;
      lbytes : limit_val option;
      lpolicy : limit_policy option;
    }
  | Link_add of { link : string; rate : float; backend : Backend.kind }
  | Link_delete of string
  | Link_list

type t = { target : target; op : op }
type error = { line : int; reason : string }

exception Err of string

let fail fmt = Printf.ksprintf (fun s -> raise (Err s)) fmt

let int_tok s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail "expected an integer, got %S" s

(* --- rates, times, curves -------------------------------------------- *)

let strip_suffix s suffix =
  let ls = String.length s and lx = String.length suffix in
  if ls > lx && String.sub s (ls - lx) lx = suffix then
    Some (String.sub s 0 (ls - lx))
  else None

let float_tok s =
  match float_of_string_opt s with
  | Some v when Float.is_finite v && v >= 0. -> v
  | _ -> fail "expected a non-negative number, got %S" s

(* Longest-suffix-first so "MBps" is not misread as "Bps". Rates come
   out in bytes/second, times in seconds. *)
let rate_units =
  [
    ("GBps", 1e9); ("MBps", 1e6); ("KBps", 1e3); ("Bps", 1.);
    ("Gbit", 1e9 /. 8.); ("Mbit", 1e6 /. 8.); ("Kbit", 1e3 /. 8.);
    ("bps", 1. /. 8.); ("bit", 1. /. 8.);
  ]

let time_units = [ ("ms", 1e-3); ("us", 1e-6); ("s", 1.) ]

let with_unit ~what ~example units s =
  let rec go = function
    | [] -> fail "%s %S needs a unit (e.g. %s)" what s example
    | (u, mult) :: rest -> (
        match strip_suffix s u with
        | Some num -> float_tok num *. mult
        | None -> go rest)
  in
  go units

let rate_tok = with_unit ~what:"rate" ~example:"45Mbit, 100KBps" rate_units
let unit_time_tok = with_unit ~what:"time" ~example:"5ms, 2s" time_units

let catch f s = try Ok (f s) with Err e -> Error e
let parse_rate = catch rate_tok
let parse_time = catch unit_time_tok

let expect kw = function
  | t :: rest when t = kw -> rest
  | t :: _ -> fail "expected %S, got %S" kw t
  | [] -> fail "expected %S, got end of line" kw

let one = function
  | t :: rest -> (t, rest)
  | [] -> fail "unexpected end of line"

(* A curve spec at the front of [toks]: "RATE", "m1 R d T m2 R" or
   "umax B dmax T rate R" (Fig. 7); returns the curve and the rest. *)
let curve toks =
  let keyed kw parse toks =
    let v, rest = one (expect kw toks) in
    (parse v, rest)
  in
  try
    match toks with
    | "m1" :: _ ->
        let m1, rest = keyed "m1" rate_tok toks in
        let d, rest = keyed "d" unit_time_tok rest in
        let m2, rest = keyed "m2" rate_tok rest in
        (Curve.Service_curve.make ~m1 ~d ~m2, rest)
    | "umax" :: _ ->
        let umax, rest = keyed "umax" float_tok toks in
        let dmax, rest = keyed "dmax" unit_time_tok rest in
        let rate, rest = keyed "rate" rate_tok rest in
        (Curve.Service_curve.of_requirements ~umax ~dmax ~rate, rest)
    | r :: rest -> (Curve.Service_curve.linear (rate_tok r), rest)
    | [] -> fail "expected a curve specification"
  with Invalid_argument e -> fail "%s" e

let no_curves = { rsc = None; fsc = None; usc = None }

(* Attribute loop shared by add/modify: [allow_flow] admits the flow
   mapping, which only makes sense at class creation; queue limits
   (qlimit/qbytes) are live-settable and allowed in both. [quantum] is
   the rr-backend share (the engine rejects it on an hfsc link). *)
let rec class_attrs ~allow_flow (curves, flow, quantum, qlimit, qbytes) =
  function
  | [] -> (curves, flow, quantum, qlimit, qbytes)
  | "rsc" :: rest ->
      let c, rest = curve rest in
      class_attrs ~allow_flow
        ({ curves with rsc = Some c }, flow, quantum, qlimit, qbytes)
        rest
  | "fsc" :: rest ->
      let c, rest = curve rest in
      class_attrs ~allow_flow
        ({ curves with fsc = Some c }, flow, quantum, qlimit, qbytes)
        rest
  | "ulimit" :: rest ->
      let c, rest = curve rest in
      class_attrs ~allow_flow
        ({ curves with usc = Some c }, flow, quantum, qlimit, qbytes)
        rest
  | "flow" :: n :: rest when allow_flow ->
      class_attrs ~allow_flow
        (curves, Some (int_tok n), quantum, qlimit, qbytes)
        rest
  | "quantum" :: n :: rest ->
      class_attrs ~allow_flow
        (curves, flow, Some (int_tok n), qlimit, qbytes)
        rest
  | "qlimit" :: n :: rest ->
      class_attrs ~allow_flow
        (curves, flow, quantum, Some (int_tok n), qbytes)
        rest
  | "qbytes" :: n :: rest ->
      class_attrs ~allow_flow
        (curves, flow, quantum, qlimit, Some (int_tok n))
        rest
  | kw :: _ -> fail "unknown class attribute %S" kw

let limit_tok = function
  | "none" -> Unlimited
  | s ->
      let n = int_tok s in
      if n <= 0 then fail "limit must be positive, got %d" n;
      At n

let rec limit_attrs (p, b, pol) = function
  | [] -> (p, b, pol)
  | "pkts" :: v :: rest -> limit_attrs (Some (limit_tok v), b, pol) rest
  | "bytes" :: v :: rest -> limit_attrs (p, Some (limit_tok v), pol) rest
  | "policy" :: "tail" :: rest -> limit_attrs (p, b, Some Policy_tail) rest
  | "policy" :: "longest" :: rest -> limit_attrs (p, b, Some Policy_longest) rest
  | "policy" :: kw :: _ -> fail "unknown drop policy %S (tail|longest)" kw
  | kw :: _ -> fail "unknown limit attribute %S" kw

let proto_tok = function
  | "tcp" -> Pkt.Header.Tcp
  | "udp" -> Pkt.Header.Udp
  | "icmp" -> Pkt.Header.Icmp
  | s -> Pkt.Header.Other (int_tok s)

let rec filter_attrs f = function
  | [] -> f
  | "src" :: p :: rest -> filter_attrs { f with fsrc = Some p } rest
  | "dst" :: p :: rest -> filter_attrs { f with fdst = Some p } rest
  | "proto" :: p :: rest -> filter_attrs { f with fproto = Some (proto_tok p) } rest
  | "sport" :: lo :: hi :: rest ->
      filter_attrs { f with fsport = Some (int_tok lo, int_tok hi) } rest
  | "dport" :: lo :: hi :: rest ->
      filter_attrs { f with fdport = Some (int_tok lo, int_tok hi) } rest
  | kw :: _ -> fail "unknown filter attribute %S" kw

let add_class_op ~name ~parent toks =
  let curves, flow, quantum, qlimit, qbytes =
    class_attrs ~allow_flow:true (no_curves, None, None, None, None) toks
  in
  Add_class { name; parent; flow; curves; quantum; qlimit; qbytes }

(* An operation with no [link ...] addressing in front of it. *)
let parse_op_tokens = function
  | "add" :: "class" :: name :: "parent" :: parent :: rest -> (
      match add_class_op ~name ~parent rest with
      | Add_class { curves = { rsc = None; fsc = None; _ }; quantum = None; _ }
        ->
          fail "class %S needs an rsc or an fsc" name
      | op -> op)
  | "add" :: "class" :: _ -> fail "add class: expected NAME parent PARENT"
  | "modify" :: "class" :: name :: rest ->
      let curves, _, quantum, qlimit, qbytes =
        class_attrs ~allow_flow:false (no_curves, None, None, None, None) rest
      in
      if curves = no_curves && quantum = None && qlimit = None && qbytes = None
      then fail "modify class %S: nothing to change" name;
      Modify_class { name; curves; quantum; qlimit; qbytes }
  | [ "delete"; "class"; name ] -> Delete_class name
  | "delete" :: "class" :: _ -> fail "delete class: expected exactly one NAME"
  | "attach" :: "filter" :: "flow" :: n :: rest ->
      Attach_filter
        (filter_attrs
           {
             fflow = int_tok n;
             fsrc = None;
             fdst = None;
             fproto = None;
             fsport = None;
             fdport = None;
           }
           rest)
  | "attach" :: "filter" :: _ -> fail "attach filter: expected flow N first"
  | [ "detach"; "filter"; "flow"; n ] -> Detach_filter (int_tok n)
  | "detach" :: _ -> fail "detach: expected 'detach filter flow N'"
  | [ "stats" ] -> Stats None
  | [ "stats"; name ] -> Stats (Some name)
  | "stats" :: _ -> fail "stats takes at most one class name"
  | [ "trace"; "on" ] -> Trace Trace_on
  | [ "trace"; "off" ] -> Trace Trace_off
  | [ "trace"; "dump" ] -> Trace Trace_dump
  | "trace" :: _ -> fail "trace takes one of: on, off, dump"
  | "limit" :: rest ->
      let lpkts, lbytes, lpolicy = limit_attrs (None, None, None) rest in
      if lpkts = None && lbytes = None && lpolicy = None then
        fail "limit: expected at least one of pkts/bytes/policy";
      Set_limit { lpkts; lbytes; lpolicy }
  | "link" :: _ -> fail "a 'link' scope cannot nest"
  | kw :: _ -> fail "unknown command %S" kw
  | [] -> fail "empty command"

(* Top level: the router verbs ([link add/delete/list]) first — those
   words are reserved and cannot name a link — then the [link NAME]
   scope, then the classic unscoped grammar. *)
let parse_tokens = function
  | "link" :: "add" :: rest -> (
      let link_add name r backend =
        {
          target = Default_link;
          op = Link_add { link = name; rate = rate_tok r; backend };
        }
      in
      match rest with
      | [ name; "rate"; r ] -> link_add name r Backend.Hfsc_kind
      | [ name; "rate"; r; "backend"; "hfsc" ] ->
          link_add name r Backend.Hfsc_kind
      | [ name; "rate"; r; "backend"; "rr" ] -> link_add name r Backend.Rr_kind
      | [ _; "rate"; _; "backend"; other ] ->
          fail "unknown backend %S (hfsc|rr)" other
      | _ -> fail "link add: expected NAME rate RATE [backend hfsc|rr]")
  | "link" :: "delete" :: rest -> (
      match rest with
      | [ name ] -> { target = Default_link; op = Link_delete name }
      | _ -> fail "link delete: expected exactly one NAME")
  | "link" :: "list" :: rest -> (
      match rest with
      | [] -> { target = Default_link; op = Link_list }
      | _ -> fail "link list takes no arguments")
  | "link" :: name :: (_ :: _ as rest) ->
      { target = On_link name; op = parse_op_tokens rest }
  | [ "link" ] | [ "link"; _ ] ->
      fail
        "link: expected 'link NAME COMMAND', 'link add NAME rate RATE', \
         'link delete NAME' or 'link list'"
  | toks -> { target = Default_link; op = parse_op_tokens toks }

let tokenize line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let of_tokens toks = catch parse_tokens toks
let add_class ~name ~parent toks = catch (add_class_op ~name ~parent) toks

let parse s =
  match tokenize s with
  | [] -> Error "empty command"
  | toks -> of_tokens toks

let time_tok s =
  match parse_time s with
  | Ok v -> v
  | Error _ -> (
      (* also accept bare seconds, the convenient form in scripts *)
      match float_of_string_opt s with
      | Some v when Float.is_finite v && v >= 0. -> v
      | _ -> fail "bad time %S (want e.g. 500ms, 2s or bare seconds)" s)

let parse_script text =
  let parse_line line =
    match tokenize line with
    | [] -> None
    | toks -> (
        let at, toks =
          match toks with
          | "at" :: ts :: rest -> (time_tok ts, rest)
          | toks -> (0., toks)
        in
        match toks with
        | [] -> fail "nothing after 'at %g'" at
        | toks -> Some (at, parse_tokens toks))
  in
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_line line with
        | None -> go (n + 1) acc rest
        | Some cmd -> go (n + 1) (cmd :: acc) rest
        | exception Err reason -> Error { line = n; reason })
  in
  go 1 [] (String.split_on_char '\n' text)

let parse_script_file path =
  match
    try
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))
    with Sys_error e -> Error { line = 0; reason = e }
  with
  | Ok text -> parse_script text
  | Error e -> Error e

(* [pp] prints in the command grammar itself (so an echoed command can
   be pasted back at the control plane), with enough digits that the
   floats survive the round trip *)
let pp_float ppf v =
  let s = Printf.sprintf "%.12g" v in
  if float_of_string s = v then Format.pp_print_string ppf s
  else Format.fprintf ppf "%.17g" v

let pp_rate ppf r = Format.fprintf ppf "%aBps" pp_float r
let pp_time ppf d = Format.fprintf ppf "%as" pp_float d

let pp_curves ppf c =
  let one tag = function
    | Some (s : Curve.Service_curve.t) ->
        if s.Curve.Service_curve.d = 0. then
          Format.fprintf ppf " %s %a" tag pp_rate s.Curve.Service_curve.m2
        else
          Format.fprintf ppf " %s m1 %a d %a m2 %a" tag pp_rate
            s.Curve.Service_curve.m1 pp_time s.Curve.Service_curve.d pp_rate
            s.Curve.Service_curve.m2
    | None -> ()
  in
  one "rsc" c.rsc;
  one "fsc" c.fsc;
  one "ulimit" c.usc

let pp_qlimits ppf (qlimit, qbytes) =
  (match qlimit with
  | Some q -> Format.fprintf ppf " qlimit %d" q
  | None -> ());
  match qbytes with
  | Some q -> Format.fprintf ppf " qbytes %d" q
  | None -> ()

let pp_limit_val ppf = function
  | Unlimited -> Format.pp_print_string ppf "none"
  | At n -> Format.pp_print_int ppf n

let pp_quantum ppf = function
  | Some q -> Format.fprintf ppf " quantum %d" q
  | None -> ()

let pp_op ppf = function
  | Add_class { name; parent; flow; curves; quantum; qlimit; qbytes } ->
      Format.fprintf ppf "add class %s parent %s" name parent;
      (match flow with Some f -> Format.fprintf ppf " flow %d" f | None -> ());
      pp_curves ppf curves;
      pp_quantum ppf quantum;
      pp_qlimits ppf (qlimit, qbytes)
  | Modify_class { name; curves; quantum; qlimit; qbytes } ->
      Format.fprintf ppf "modify class %s" name;
      pp_curves ppf curves;
      pp_quantum ppf quantum;
      pp_qlimits ppf (qlimit, qbytes)
  | Delete_class name -> Format.fprintf ppf "delete class %s" name
  | Attach_filter f ->
      Format.fprintf ppf "attach filter flow %d" f.fflow;
      (match f.fsrc with Some p -> Format.fprintf ppf " src %s" p | None -> ());
      (match f.fdst with Some p -> Format.fprintf ppf " dst %s" p | None -> ());
      (match f.fproto with
      | Some Pkt.Header.Tcp -> Format.fprintf ppf " proto tcp"
      | Some Pkt.Header.Udp -> Format.fprintf ppf " proto udp"
      | Some Pkt.Header.Icmp -> Format.fprintf ppf " proto icmp"
      | Some (Pkt.Header.Other n) -> Format.fprintf ppf " proto %d" n
      | None -> ());
      (match f.fsport with
      | Some (lo, hi) -> Format.fprintf ppf " sport %d %d" lo hi
      | None -> ());
      (match f.fdport with
      | Some (lo, hi) -> Format.fprintf ppf " dport %d %d" lo hi
      | None -> ())
  | Detach_filter flow -> Format.fprintf ppf "detach filter flow %d" flow
  | Stats None -> Format.fprintf ppf "stats"
  | Stats (Some n) -> Format.fprintf ppf "stats %s" n
  | Trace Trace_on -> Format.fprintf ppf "trace on"
  | Trace Trace_off -> Format.fprintf ppf "trace off"
  | Trace Trace_dump -> Format.fprintf ppf "trace dump"
  | Set_limit { lpkts; lbytes; lpolicy } ->
      Format.fprintf ppf "limit";
      (match lpkts with
      | Some v -> Format.fprintf ppf " pkts %a" pp_limit_val v
      | None -> ());
      (match lbytes with
      | Some v -> Format.fprintf ppf " bytes %a" pp_limit_val v
      | None -> ());
      (match lpolicy with
      | Some Policy_tail -> Format.fprintf ppf " policy tail"
      | Some Policy_longest -> Format.fprintf ppf " policy longest"
      | None -> ())
  | Link_add { link; rate; backend } ->
      Format.fprintf ppf "link add %s rate %a" link pp_rate rate;
      (match backend with
      | Backend.Hfsc_kind -> ()
      | Backend.Rr_kind -> Format.fprintf ppf " backend rr")
  | Link_delete name -> Format.fprintf ppf "link delete %s" name
  | Link_list -> Format.fprintf ppf "link list"

let pp ppf { target; op } =
  (match target with
  | Default_link -> ()
  | On_link name -> Format.fprintf ppf "link %s " name);
  pp_op ppf op

let is_mutating { op; _ } =
  match op with
  | Add_class _ | Modify_class _ | Delete_class _ | Attach_filter _
  | Detach_filter _ | Set_limit _ | Link_add _ | Link_delete _ ->
      true
  | Stats _ | Trace _ | Link_list -> false
