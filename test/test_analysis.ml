(* Tests for the analysis toolkit (lib/analysis): arrival envelopes,
   Theorem 1+2 delay bounds, the SCED admission condition, and the
   fairness metrics. *)

module Sc = Curve.Service_curve
module P = Curve.Piecewise

let qt ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- arrival curves --------------------------------------------------- *)

let test_arrival_cbr () =
  let a = Analysis.Arrival_curve.of_cbr ~rate:1000. ~pkt_size:100 in
  Alcotest.(check (float 1e-9)) "burst of one packet" 100. (P.eval a 0.);
  Alcotest.(check (float 1e-9)) "rate" 1100. (P.eval a 1.)

let test_arrival_on_off () =
  let a =
    Analysis.Arrival_curve.of_on_off ~peak_rate:1000. ~mean_rate:100.
      ~burst:500.
  in
  (* short horizon limited by the peak, long by the mean+burst *)
  Alcotest.(check (float 1e-9)) "peak limited at 0.1" 100. (P.eval a 0.1);
  Alcotest.(check (float 1e-9)) "mean limited at 10" 1500. (P.eval a 10.);
  Alcotest.(check bool) "peak < mean rejected" true
    (try
       ignore
         (Analysis.Arrival_curve.of_on_off ~peak_rate:10. ~mean_rate:100.
            ~burst:1.);
       false
     with Invalid_argument _ -> true)

(* --- delay bounds ------------------------------------------------------ *)

let test_bound_token_bucket_linear () =
  (* sigma/r for a token bucket through a rate-r curve *)
  let alpha = Analysis.Arrival_curve.token_bucket ~sigma:1000. ~rho:100. in
  let beta = Sc.linear 500. in
  Alcotest.(check (float 1e-9)) "sigma/r" 2.
    (Analysis.Delay_bound.fluid ~alpha ~beta)

let test_bound_concave_two_piece () =
  (* one-packet burst against its of_requirements curve: exactly dmax *)
  let alpha = Analysis.Arrival_curve.of_cbr ~rate:8000. ~pkt_size:160 in
  let beta = Sc.of_requirements ~umax:160. ~dmax:0.005 ~rate:8000. in
  Alcotest.(check (float 1e-9)) "dmax" 0.005
    (Analysis.Delay_bound.fluid ~alpha ~beta)

let test_bound_hfsc_adds_lmax () =
  let alpha = Analysis.Arrival_curve.of_cbr ~rate:8000. ~pkt_size:160 in
  let beta = Sc.of_requirements ~umax:160. ~dmax:0.005 ~rate:8000. in
  Alcotest.(check (float 1e-12)) "fluid + Lmax/R"
    (0.005 +. (1500. /. 1e6))
    (Analysis.Delay_bound.hfsc ~alpha ~beta ~lmax:1500 ~link_rate:1e6)

let test_bound_validation () =
  let alpha = P.linear ~slope:1. in
  let beta = Sc.linear 1. in
  Alcotest.(check bool) "bad lmax" true
    (try
       ignore (Analysis.Delay_bound.hfsc ~alpha ~beta ~lmax:0 ~link_rate:1.);
       false
     with Invalid_argument _ -> true)

let coupled_rate_solves =
  qt ~count:50 "coupled_linear_rate is the minimal rate"
    QCheck2.Gen.(
      pair (float_range 100. 10_000.) (float_range 0.001 0.5))
    (fun (sigma, target) ->
      let alpha = Analysis.Arrival_curve.token_bucket ~sigma ~rho:100. in
      let r = Analysis.Delay_bound.coupled_linear_rate ~alpha ~target_delay:target in
      (* analytic answer: delay = sigma / r, so r = sigma / target
         (when that rate also covers rho) *)
      let expect = Float.max (sigma /. target) 100. in
      Float.abs (r -. expect) /. expect < 1e-6
      &&
      let d r = P.hdev alpha (P.of_service_curve (Sc.linear r)) in
      d r <= target +. 1e-9 && d (r *. 0.99) > target -. 1e-9)

let test_coupled_rate_factor () =
  (* the paper's motivating over-reservation: a 160 B / 8 kB/s audio flow
     needing 10 ms must reserve 2x its rate under WFQ *)
  let alpha = Analysis.Arrival_curve.of_cbr ~rate:8000. ~pkt_size:160 in
  let r =
    Analysis.Delay_bound.coupled_linear_rate ~alpha ~target_delay:0.01
  in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.0f = 2x" r)
    true
    (Float.abs (r -. 16_000.) < 10.)

(* --- admission ---------------------------------------------------------- *)

let test_admission_exact_fit () =
  let c1 = Sc.make ~m1:7e5 ~d:1. ~m2:1e5 in
  let c2 = Sc.make ~m1:3e5 ~d:1. ~m2:9e5 in
  (* first pieces sum to 1e6 = link rate; second pieces too *)
  Alcotest.(check bool) "tight set admissible" true
    (Analysis.Admission.admissible ~link_rate:1e6 [ c1; c2 ]);
  Alcotest.(check (float 1e-6)) "zero excess" 0.
    (Analysis.Admission.excess ~link_rate:1e6 [ c1; c2 ])

let test_admission_over () =
  let c1 = Sc.make ~m1:8e5 ~d:1. ~m2:1e5 in
  let c2 = Sc.make ~m1:3e5 ~d:1. ~m2:9e5 in
  Alcotest.(check bool) "oversubscribed burst" false
    (Analysis.Admission.admissible ~link_rate:1e6 [ c1; c2 ]);
  Alcotest.(check (float 1e-6)) "1e5 bytes over" 1e5
    (Analysis.Admission.excess ~link_rate:1e6 [ c1; c2 ])

let test_admission_rate_only_over () =
  (* rates exceed the link even though bursts fit *)
  let cs = [ Sc.linear 6e5; Sc.linear 6e5 ] in
  Alcotest.(check bool) "rate oversubscription" false
    (Analysis.Admission.admissible ~link_rate:1e6 cs);
  Alcotest.(check (float 1e-9)) "utilization" 1.2
    (Analysis.Admission.rate_utilization ~link_rate:1e6 cs)

let admission_scaling =
  qt "admissible sets stay admissible when scaled down"
    QCheck2.Gen.(
      list_size (int_range 1 5)
        (triple (float_range 0. 3e5) (float_range 0.01 2.) (float_range 0. 3e5)))
    (fun specs ->
      let cs = List.map (fun (m1, d, m2) -> Sc.make ~m1 ~d ~m2) specs in
      let n = float_of_int (List.length cs) in
      let scaled = List.map (fun c -> Sc.scale c (1. /. n)) cs in
      (* each curve has slopes <= 3e5 <= link, so the 1/n scaling makes
         the sum admissible on a 3e5 link *)
      Analysis.Admission.admissible ~link_rate:3e5 scaled)

let test_hierarchy_consistent () =
  let parent = Sc.linear 1e6 in
  Alcotest.(check bool) "fits" true
    (Analysis.Admission.hierarchy_consistent ~parent
       [ Sc.linear 6e5; Sc.linear 4e5 ]);
  Alcotest.(check bool) "does not fit" false
    (Analysis.Admission.hierarchy_consistent ~parent
       [ Sc.linear 6e5; Sc.linear 5e5 ])

(* --- multi-hop --------------------------------------------------------- *)

let test_multihop_latencies_add () =
  (* n identical rate-latency hops: latency n*L, burst paid once *)
  let alpha = Analysis.Arrival_curve.token_bucket ~sigma:1000. ~rho:100. in
  let hop = Sc.make ~m1:0. ~d:0.01 ~m2:500. in
  let bound n =
    Analysis.Multi_hop.bound ~alpha
      ~hops:(List.init n (fun _ -> (hop, 1e6)))
      ~lmax:1000
  in
  (* single hop: 10ms latency + 1000/500 burst + 1ms packetization *)
  Alcotest.(check (float 1e-9)) "one hop" (0.01 +. 2. +. 0.001) (bound 1);
  (* three hops: only latency and packetization triple *)
  Alcotest.(check (float 1e-9)) "three hops" (0.03 +. 2. +. 0.003) (bound 3)

let test_multihop_pay_bursts_once () =
  let alpha = Analysis.Arrival_curve.token_bucket ~sigma:1000. ~rho:100. in
  let hops = List.init 3 (fun _ -> (Sc.make ~m1:0. ~d:0.01 ~m2:500., 1e6)) in
  let e2e = Analysis.Multi_hop.bound ~alpha ~hops ~lmax:1000 in
  let naive =
    Analysis.Multi_hop.sum_of_per_hop_bounds ~alpha ~hops ~lmax:1000
  in
  Alcotest.(check bool)
    (Printf.sprintf "e2e %.3f < naive %.3f" e2e naive)
    true (e2e < naive);
  (* the naive bound pays the 2s burst term at every hop *)
  Alcotest.(check bool) "gap ~ 2 extra bursts" true (naive -. e2e > 2.)

let test_multihop_convexify () =
  let concave = Sc.make ~m1:1000. ~d:1. ~m2:100. in
  let c = Analysis.Multi_hop.convexify concave in
  Alcotest.(check bool) "linear at long-run rate" true
    (Curve.Service_curve.is_linear c);
  Alcotest.(check (float 0.)) "rate kept" 100. (Curve.Service_curve.rate c);
  let convex = Sc.make ~m1:0. ~d:1. ~m2:100. in
  Alcotest.(check bool) "convex unchanged" true
    (Curve.Service_curve.equal convex (Analysis.Multi_hop.convexify convex))

let test_multihop_validation () =
  let alpha = P.linear ~slope:1. in
  Alcotest.(check bool) "no hops" true
    (try
       ignore (Analysis.Multi_hop.bound ~alpha ~hops:[] ~lmax:1);
       false
     with Invalid_argument _ -> true)

(* --- the breakpoint ledger ----------------------------------------------- *)

module L = Analysis.Admission.Ledger

(* Two-piece curves over a small set of knees, concave, convex or
   linear, and a capacity that is linear or two-piece. *)
let curve_gen =
  QCheck2.Gen.(
    let* m1 = float_range 0. 4000. in
    let* m2 = float_range 0. 4000. in
    let* d = oneofl [ 0.; 0.005; 0.01; 0.02; 0.05 ] in
    return (Sc.make ~m1 ~d ~m2))

let ledger_case_gen =
  QCheck2.Gen.(
    let* curves = list_size (int_range 0 12) curve_gen in
    let* capacity =
      let* r = float_range 1000. 40000. in
      let* shape = int_range 0 2 in
      return
        (match shape with
        | 0 -> Sc.linear r
        | 1 -> Sc.make ~m1:(2. *. r) ~d:0.01 ~m2:r
        | _ -> Sc.make ~m1:0. ~d:0.01 ~m2:r)
    in
    let* drop = if curves = [] then return None else map Option.some (oneofl curves) in
    let* extra = opt curve_gen in
    return (curves, capacity, drop, extra))

let ledger_of curves =
  let l = L.create () in
  List.iter (L.add l) curves;
  l

(* The ledger never accepts what the oracle refuses: [clears] implies no
   violating breakpoint on the same curves. *)
let ledger_clears_sound =
  qt ~count:2000 "ledger clears => oracle admits" ledger_case_gen
    (fun (curves, capacity, drop, extra) ->
      let rec without x = function
        | [] -> []
        | c :: cs -> if c == x then cs else c :: without x cs
      in
      let set =
        Option.to_list extra
        @ match drop with None -> curves | Some d -> without d curves
      in
      (not (L.clears (ledger_of curves) ?drop ?extra ~capacity ()))
      || Analysis.Admission.violating_breakpoint
           ~capacity:(P.of_service_curve capacity) set
         = None)

(* ... and it does accept what fits with room to spare. *)
let ledger_clears_complete =
  qt ~count:1000 "ledger clears a set at 90% of its own sum" ledger_case_gen
    (fun (curves, _, _, _) ->
      let sum =
        List.fold_left
          (fun acc (c : Sc.t) -> acc +. Float.max c.m1 c.m2)
          1. curves
      in
      L.clears (ledger_of curves) ~capacity:(Sc.linear (sum /. 0.9)) ())

let test_ledger_bookkeeping () =
  let l = L.create () in
  let c d = Sc.make ~m1:2000. ~d ~m2:1000. in
  List.iter (fun d -> L.add l (c d)) [ 0.01; 0.02; 0.01; 0.05 ];
  L.add l (Sc.linear 500.);
  Alcotest.(check int) "curves" 5 (L.curves l);
  Alcotest.(check int) "k = distinct knees (linear at 0)" 4 (L.breakpoints l);
  L.remove l (c 0.01);
  Alcotest.(check int) "shared knee stays" 4 (L.breakpoints l);
  L.remove l (c 0.01);
  Alcotest.(check int) "last curve at a knee drops it" 3 (L.breakpoints l);
  List.iter (L.remove l) [ c 0.02; c 0.05; Sc.linear 500. ];
  Alcotest.(check int) "empty" 0 (L.breakpoints l);
  Alcotest.(check bool) "removing an absent curve raises" true
    (try
       L.remove l (c 0.02);
       false
     with Invalid_argument _ -> true);
  (* an exact fit is on the bound: the ledger leaves it to the oracle,
     which admits it *)
  let l = ledger_of [ Sc.linear 600.; Sc.linear 400. ] in
  Alcotest.(check bool) "exact fit is not cleared" false
    (L.clears l ~capacity:(Sc.linear 1000.) ());
  Alcotest.(check bool) "oracle admits the exact fit" true
    (Analysis.Admission.violating_breakpoint
       ~capacity:(P.linear ~slope:1000.)
       [ Sc.linear 600.; Sc.linear 400. ]
    = None);
  Alcotest.(check bool) "room to spare is cleared" true
    (L.clears l ~drop:(Sc.linear 400.) ~extra:(Sc.linear 300.)
       ~capacity:(Sc.linear 1000.) ())

(* --- fairness metrics ----------------------------------------------------- *)

let test_jain () =
  Alcotest.(check (float 1e-9)) "equal" 1.
    (Analysis.Fairness.jain_index [| 5.; 5.; 5. |]);
  Alcotest.(check bool) "unequal < 1" true
    (Analysis.Fairness.jain_index [| 10.; 1.; 1. |] < 0.7);
  Alcotest.(check (float 1e-9)) "single" 1.
    (Analysis.Fairness.jain_index [| 42. |])

let test_normalized_gap () =
  let a = Analysis.Fairness.normalized ~rate:10. [| 100.; 200. |] in
  let b = Analysis.Fairness.normalized ~rate:20. [| 100.; 200. |] in
  Alcotest.(check (float 1e-9)) "gap" 10. (Analysis.Fairness.max_gap a b);
  Alcotest.(check bool) "length mismatch" true
    (try
       ignore (Analysis.Fairness.max_gap [| 1. |] [||]);
       false
     with Invalid_argument _ -> true)

let test_shares () =
  let s = Analysis.Fairness.throughput_shares [ ("a", 75.); ("b", 25.) ] in
  Alcotest.(check (list (pair string (float 1e-9))))
    "normalized"
    [ ("a", 0.75); ("b", 0.25) ]
    s;
  Alcotest.(check (list (pair string (float 1e-9))))
    "zero total"
    [ ("a", 0.) ]
    (Analysis.Fairness.throughput_shares [ ("a", 0.) ])

let () =
  Alcotest.run "analysis"
    [
      ( "arrival_curve",
        [
          Alcotest.test_case "cbr" `Quick test_arrival_cbr;
          Alcotest.test_case "on-off" `Quick test_arrival_on_off;
        ] );
      ( "delay_bound",
        [
          Alcotest.test_case "token bucket / linear" `Quick
            test_bound_token_bucket_linear;
          Alcotest.test_case "concave two-piece" `Quick
            test_bound_concave_two_piece;
          Alcotest.test_case "hfsc adds Lmax/R" `Quick
            test_bound_hfsc_adds_lmax;
          Alcotest.test_case "validation" `Quick test_bound_validation;
          Alcotest.test_case "2x over-reservation example" `Quick
            test_coupled_rate_factor;
          coupled_rate_solves;
        ] );
      ( "admission",
        [
          Alcotest.test_case "exact fit" `Quick test_admission_exact_fit;
          Alcotest.test_case "oversubscribed burst" `Quick test_admission_over;
          Alcotest.test_case "rate oversubscription" `Quick
            test_admission_rate_only_over;
          Alcotest.test_case "hierarchy consistency" `Quick
            test_hierarchy_consistent;
          admission_scaling;
        ] );
      ( "ledger",
        [
          ledger_clears_sound;
          ledger_clears_complete;
          Alcotest.test_case "bookkeeping" `Quick test_ledger_bookkeeping;
        ] );
      ( "multi_hop",
        [
          Alcotest.test_case "latencies add, burst once" `Quick
            test_multihop_latencies_add;
          Alcotest.test_case "pay bursts only once" `Quick
            test_multihop_pay_bursts_once;
          Alcotest.test_case "convexify" `Quick test_multihop_convexify;
          Alcotest.test_case "validation" `Quick test_multihop_validation;
        ] );
      ( "fairness",
        [
          Alcotest.test_case "jain index" `Quick test_jain;
          Alcotest.test_case "normalized gap" `Quick test_normalized_gap;
          Alcotest.test_case "shares" `Quick test_shares;
        ] );
    ]
