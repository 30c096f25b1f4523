(* The re-summing H-FSC admission check, kept as the reference the
   incremental one in [Runtime.Backend.of_hfsc] is pinned against. Every
   check rebuilds the full curve list from the scheduler — every leaf's
   rsc, or every sibling's fsc — and sums it through
   [Analysis.Admission.violating_breakpoint]: O(n·k) per check, which is
   why the runtime keeps breakpoint ledgers instead. Verdicts, codes and
   messages must match the runtime's byte for byte.

   [check_op] is the differential hook: given the engine an op is about
   to run on, it evaluates the runtime's pure [admit_add]/[admit_modify]
   and this reference on the same state and arguments, and fails on any
   difference. *)

module Pw = Curve.Piecewise
module B = Runtime.Backend

let errf = B.errf

let pp_violation ~what (at, demand, capacity) =
  if Float.is_finite at then
    Printf.sprintf
      "%s infeasible at breakpoint t=%.6gs: demand %.0f B > capacity %.0f B"
      what at demand capacity
  else
    Printf.sprintf
      "%s infeasible asymptotically: demand rate %.0f B/s > capacity %.0f B/s"
      what demand capacity

let ( let* ) = Result.bind

let check_rsc ~link_rate sched ~target ~replace =
  let curves =
    List.filter_map
      (fun c ->
        match target with
        | Some tc when tc == c -> replace
        | _ -> if Hfsc.is_leaf c then Hfsc.rsc c else None)
      (Hfsc.classes sched)
  in
  let curves =
    match target with None -> Option.to_list replace @ curves | Some _ -> curves
  in
  match
    Analysis.Admission.violating_breakpoint
      ~capacity:(Pw.linear ~slope:link_rate) curves
  with
  | None -> Ok ()
  | Some v ->
      errf B.Admission_realtime "%s" (pp_violation ~what:"real-time guarantees" v)

let check_fsc_under ~parent ~target ~replace =
  match Hfsc.fsc parent with
  | None -> Ok ()
  | Some pfsc -> (
      let curves =
        List.filter_map
          (fun c ->
            match target with Some tc when tc == c -> replace | _ -> Hfsc.fsc c)
          (Hfsc.children parent)
      in
      let curves =
        match target with
        | None -> Option.to_list replace @ curves
        | Some _ -> curves
      in
      match
        Analysis.Admission.violating_breakpoint
          ~capacity:(Pw.of_service_curve pfsc) curves
      with
      | None -> Ok ()
      | Some v ->
          errf B.Admission_linkshare "%s"
            (pp_violation
               ~what:
                 (Printf.sprintf "link-sharing under class %S"
                    (Hfsc.name parent))
               v))

let check_usc ~name ~rsc ~usc =
  match (rsc, usc) with
  | Some rsc, Some usc -> (
      match Analysis.Admission.usc_violating_breakpoint ~rsc ~usc with
      | None -> Ok ()
      | Some v ->
          errf B.Admission_ulimit "%s"
            (pp_violation
               ~what:
                 (Printf.sprintf "upper limit of class %S against its rsc" name)
               v))
  | _ -> Ok ()

let check_params ~name (p : B.params) =
  let* () =
    match p.quantum with
    | Some _ ->
        errf B.Bad_value
          "class %S: quantum applies to rr-backend links (hfsc classes take \
           curves)"
          name
    | None -> Ok ()
  in
  let envelope tag = function
    | None -> Ok ()
    | Some s ->
        Result.map_error
          (fun message -> { B.code = B.Bad_value; message })
          (Analysis.Admission.check_curve
             ~what:(Printf.sprintf "class %S: %s" name tag)
             s)
  in
  let* () = envelope "rsc" p.rsc in
  let* () = envelope "fsc" p.fsc in
  envelope "ulimit" p.usc

let cls_of sched id = List.find (fun c -> Hfsc.id c = id) (Hfsc.classes sched)

let admit_add ~link_rate sched ~parent ~name (p : B.params) =
  let* () = check_params ~name p in
  let parent = cls_of sched parent in
  let* () =
    match p.rsc with
    | Some _ -> check_rsc ~link_rate sched ~target:None ~replace:p.rsc
    | None -> Ok ()
  in
  let eff_fsc = match p.fsc with Some _ as f -> f | None -> p.rsc in
  let* () = check_fsc_under ~parent ~target:None ~replace:eff_fsc in
  check_usc ~name ~rsc:p.rsc ~usc:p.usc

let admit_modify ~link_rate sched ~id ~name (p : B.params) =
  let* () = check_params ~name p in
  let cls = cls_of sched id in
  let* () =
    match p.rsc with
    | Some _ -> check_rsc ~link_rate sched ~target:(Some cls) ~replace:p.rsc
    | None -> Ok ()
  in
  let* () =
    match (p.fsc, Hfsc.parent cls) with
    | Some _, Some par -> check_fsc_under ~parent:par ~target:(Some cls) ~replace:p.fsc
    | _ -> Ok ()
  in
  let* () =
    match p.fsc with
    | Some nfsc when not (Hfsc.is_leaf cls) -> (
        match
          Analysis.Admission.violating_breakpoint
            ~capacity:(Pw.of_service_curve nfsc)
            (List.filter_map Hfsc.fsc (Hfsc.children cls))
        with
        | None -> Ok ()
        | Some v ->
            errf B.Admission_linkshare "%s"
              (pp_violation
                 ~what:
                   (Printf.sprintf "children of class %S against its new fsc"
                      name)
                 v))
    | _ -> Ok ()
  in
  let eff_rsc = match p.rsc with Some _ as r -> r | None -> Hfsc.rsc cls in
  let eff_usc = match p.usc with Some _ as u -> u | None -> Hfsc.usc cls in
  check_usc ~name ~rsc:eff_rsc ~usc:eff_usc

(* --- the differential hook -------------------------------------------- *)

let show = function
  | Ok () -> "ok"
  | Error e -> Printf.sprintf "%s: %s" (B.error_code_name e.B.code) e.B.message

let checks = ref 0

(* Compare the runtime's admission with the reference on the op [eng]
   is about to execute, wherever the engine would consult it (an add
   under an existing parent, a modify of an existing class; rr links
   have no curves to compare). Raises [Failure] on any difference. *)
let check_op eng (op : Runtime.Command.op) =
  let be = Runtime.Engine.backend eng in
  match be.B.raw_hfsc with
  | None -> ()
  | Some sched -> (
      let link_rate = be.B.link_rate in
      let params (c : Runtime.Command.curve_updates) quantum =
        { B.rsc = c.rsc; fsc = c.fsc; usc = c.usc; quantum }
      in
      let compare what got want =
        incr checks;
        if show got <> show want then
          failwith
            (Printf.sprintf
               "admission differs from the reference on %s:\n\
               \  runtime:   %s\n\
               \  reference: %s"
               what (show got) (show want))
      in
      match op with
      | Add_class { name; parent; curves; quantum; _ } -> (
          match be.B.find_id parent with
          | None -> ()
          | Some pid ->
              let p = params curves quantum in
              compare
                (Printf.sprintf "add class %S under %S" name parent)
                (be.B.admit_add ~parent:pid ~name p)
                (admit_add ~link_rate sched ~parent:pid ~name p))
      | Modify_class { name; curves; quantum; _ } -> (
          match be.B.find_id name with
          | None -> ()
          | Some id ->
              let p = params curves quantum in
              compare
                (Printf.sprintf "modify class %S" name)
                (be.B.admit_modify ~id ~name p)
                (admit_modify ~link_rate sched ~id ~name p))
      | _ -> ())

(* The same hook for a router command: resolve the engine the router
   would hand the op to, if any. *)
let check_router_cmd r { Runtime.Command.target; op } =
  let eng =
    match target with
    | Runtime.Command.On_link name -> Runtime.Router.find_link r name
    | Runtime.Command.Default_link -> (
        match Runtime.Router.links r with [ (_, e) ] -> Some e | _ -> None)
  in
  Option.iter (fun e -> check_op e op) eng
