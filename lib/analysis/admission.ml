module P = Curve.Piecewise
module Sc = Curve.Service_curve

let sum_curves curves =
  List.fold_left
    (fun acc sc -> P.sum acc (P.of_service_curve sc))
    P.zero curves

let excess ~link_rate curves =
  if link_rate <= 0. then invalid_arg "Admission.excess: link_rate must be > 0";
  P.vdev (sum_curves curves) (P.linear ~slope:link_rate)

let admissible ~link_rate curves = excess ~link_rate curves <= 1e-6

let rate_utilization ~link_rate curves =
  if link_rate <= 0. then
    invalid_arg "Admission.rate_utilization: link_rate must be > 0";
  List.fold_left (fun acc sc -> acc +. Curve.Service_curve.rate sc) 0. curves
  /. link_rate

let violating_breakpoint ~capacity curves =
  let demand = sum_curves curves in
  let xs =
    List.sort_uniq Float.compare
      (List.map (fun (x, _, _) -> x) (P.segments demand)
      @ List.map (fun (x, _, _) -> x) (P.segments capacity))
  in
  let worst =
    List.fold_left
      (fun acc x ->
        let d = P.eval demand x and c = P.eval capacity x in
        match acc with
        | Some (_, d0, c0) when d0 -. c0 >= d -. c -> acc
        | _ when d -. c > 1e-6 -> Some (x, d, c)
        | acc -> acc)
      None xs
  in
  match worst with
  | Some _ as v -> v
  | None ->
      let dr = P.final_slope demand and cr = P.final_slope capacity in
      if dr > cr +. 1e-9 then Some (infinity, dr, cr) else None

let hierarchy_consistent ~parent children =
  P.vdev (sum_curves children) (P.of_service_curve parent) <= 1e-6

let usc_violating_breakpoint ~rsc ~usc =
  violating_breakpoint ~capacity:(P.of_service_curve usc) [ rsc ]

let usc_feasible ~rsc ~usc = usc_violating_breakpoint ~rsc ~usc = None

(* --- the fixed-point envelope ----------------------------------------- *)

let check_rate ~what r =
  let max_rate = Curve.Fixed_point.max_slope in
  if r < max_rate then Ok ()
  else
    Error
      (Printf.sprintf
         "%s %.0f B/s is outside the fixed-point envelope: rates and slopes \
          must be below 2^32 B/s (%.0f B/s, about %.2f Gbit/s)"
         what r max_rate (max_rate *. 8. /. 1e9))

let check_curve ~what (s : Curve.Service_curve.t) =
  Result.bind (check_rate ~what:(what ^ " slope") s.m1) (fun () ->
      check_rate ~what:(what ^ " slope") s.m2)

(* --- the breakpoint ledger -------------------------------------------- *)

module Ledger = struct
  module Fmap = Map.Make (Float)

  (* A compensated (Neumaier) running sum. The ledger adds and later
     subtracts the same slopes for as long as a daemon runs; plain
     float accumulation would drift by an ulp of the sum per update,
     this keeps the error O(eps) of the current sum however long the
     churn. *)
  type acc = { mutable hi : float; mutable lo : float }

  let acc_add a x =
    let s = a.hi +. x in
    (if Float.abs a.hi >= Float.abs x then a.lo <- a.lo +. (a.hi -. s +. x)
     else a.lo <- a.lo +. (x -. s +. a.hi));
    a.hi <- s

  let acc_value a = a.hi +. a.lo

  (* The curves whose knee sits at one abscissa: how many, and their
     summed first and second slopes. Linear curves live at 0 with
     [m1 = m2], so they only ever contribute slope. *)
  type entry = { mutable n : int; e_m1 : acc; e_m2 : acc }
  type t = { mutable knees : entry Fmap.t; mutable curves : int }

  let create () = { knees = Fmap.empty; curves = 0 }
  let curves l = l.curves
  let breakpoints l = Fmap.cardinal l.knees

  (* The two-piece normal form of [Piecewise.of_service_curve]. *)
  let knee (s : Sc.t) =
    if s.d = 0. || s.m1 = s.m2 then (0., s.m2, s.m2) else (s.d, s.m1, s.m2)

  let add l s =
    let x, m1, m2 = knee s in
    let e =
      match Fmap.find_opt x l.knees with
      | Some e -> e
      | None ->
          let e =
            { n = 0; e_m1 = { hi = 0.; lo = 0. }; e_m2 = { hi = 0.; lo = 0. } }
          in
          l.knees <- Fmap.add x e l.knees;
          e
    in
    e.n <- e.n + 1;
    acc_add e.e_m1 m1;
    acc_add e.e_m2 m2;
    l.curves <- l.curves + 1

  let remove l s =
    let x, m1, m2 = knee s in
    match Fmap.find_opt x l.knees with
    | None -> invalid_arg "Admission.Ledger.remove: curve not in the ledger"
    | Some e ->
        e.n <- e.n - 1;
        l.curves <- l.curves - 1;
        if e.n = 0 then l.knees <- Fmap.remove x l.knees
        else begin
          acc_add e.e_m1 (-.m1);
          acc_add e.e_m2 (-.m2)
        end

  let same_sum a b =
    let close x y = Float.abs (x -. y) <= 1e-9 *. (Float.abs x +. Float.abs y) in
    a.curves = b.curves
    && Fmap.equal
         (fun e f ->
           e.n = f.n
           && close (acc_value e.e_m1) (acc_value f.e_m1)
           && close (acc_value e.e_m2) (acc_value f.e_m2))
         a.knees b.knees

  (* One walk over the knees in ascending order, carrying the demand as
     [a·t + b] on the segment being crossed: a knee at [x] bending from
     [m1] to [m2] adds [m2 - m1] to [a] and [(m1 - m2)·x] to [b], which
     keeps the sum continuous. Between knees both sides are linear, so
     the knees of either side and the final slopes decide. A point
     clears when the demand stays below the capacity by the relative
     margin; anything closer, or over, is left to the oracle. *)
  let clears l ?drop ?extra ~capacity () =
    let adjust sign = function
      | None -> []
      | Some s ->
          let x, m1, m2 = knee s in
          [ (x, sign *. m1, sign *. m2) ]
    in
    let cap_knee =
      let x, _, _ = knee capacity in
      if x > 0. then [ (x, 0., 0.) ] else []
    in
    let side =
      List.sort
        (fun (x, _, _) (y, _, _) -> Float.compare x y)
        (adjust (-1.) drop @ adjust 1. extra @ cap_knee)
    in
    let a0 = List.fold_left (fun a (_, m1, _) -> a +. m1) 0. side in
    let a0, events =
      Fmap.fold
        (fun x e (a, acc) ->
          let m1 = acc_value e.e_m1 in
          (a +. m1, (x, m1, acc_value e.e_m2) :: acc))
        l.knees (a0, [])
    in
    let events =
      List.merge
        (fun (x, _, _) (y, _, _) -> Float.compare x y)
        (List.rev events) side
    in
    let clear d c = d -. c <= -1e-9 *. (d +. c) in
    let rec walk a b = function
      | [] -> clear a capacity.Sc.m2
      | (x, m1, m2) :: rest ->
          (x = 0. || clear ((a *. x) +. b) (Sc.eval capacity x))
          && walk (a +. (m2 -. m1)) (b +. ((m1 -. m2) *. x)) rest
    in
    walk a0 0. events
end
