(* Property tests for Curve.Fixed_point against the float
   Curve.Runtime_curve oracle: the documented per-operation error
   bounds of the shifted-integer arithmetic (see fixed_point.mli and
   DESIGN.md §12), split-multiply exactness, monotonicity, and
   curve-level agreement under evaluation, inversion and min_with.

   The bounds asserted here are the ones the scheduler's correctness
   argument leans on: every eligible/deadline/virtual-time the integer
   datapath computes is within these envelopes of the exact rational
   value, so quantization can shift a scheduling decision only between
   near-ties — never invent or lose service. *)

module Fp = Curve.Fixed_point
module Rc = Curve.Runtime_curve
module Sc = Curve.Service_curve

let qt ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Log-uniform rate over the documented safe envelope [1 KB/s, 2 GB/s]. *)
let rate_gen = QCheck2.Gen.(map (fun e -> 10. ** e) (float_range 3. 9.3))

(* --- per-operation bounds (the .mli's contract) -------------------- *)

(* |seg_x2y x (m2sm m) - x*m/tick_hz| <= x/tick_hz/2 + 1 bytes:
   half a byte per elapsed second of slope rounding, plus the split
   multiply's floor. The 1e-3 slack covers the float evaluation of the
   exact value itself. *)
let forward_bound =
  qt "seg_x2y within documented bound of x*m/tick_hz"
    QCheck2.Gen.(pair rate_gen (int_range 0 (1 lsl 40)))
    (fun (m, x) ->
      let got = float_of_int (Fp.seg_x2y x (Fp.m2sm m)) in
      let exact = float_of_int x *. m /. Fp.tick_hz in
      let bound = (float_of_int x /. Fp.tick_hz /. 2.) +. 1. in
      Float.abs (got -. exact) <= bound +. 1e-3)

(* |seg_y2x y (m2ism m) - y*tick_hz/m| <= y/2^(ism_shift+1) + 1 ticks. *)
let inverse_bound =
  qt "seg_y2x within documented bound of y*tick_hz/m"
    QCheck2.Gen.(pair rate_gen (int_range 0 (1 lsl 24)))
    (fun (m, y) ->
      let got = float_of_int (Fp.seg_y2x y (Fp.m2ism m)) in
      let exact = float_of_int y *. Fp.tick_hz /. m in
      let bound =
        (float_of_int y /. float_of_int (1 lsl (Fp.ism_shift + 1))) +. 1.
      in
      Float.abs (got -. exact) <= bound +. 1e-3)

(* The split multiply is an exact floor wherever the direct product
   fits in 62 bits — the overflow-avoidance rearrangement loses
   nothing. *)
let split_exact_x2y =
  qt "seg_x2y = floor(x*sm / 2^sm_shift) (direct product check)"
    QCheck2.Gen.(pair (int_range 0 (1 lsl 31)) (int_range 0 (1 lsl 30)))
    (fun (x, sm) -> Fp.seg_x2y x sm = (x * sm) asr Fp.sm_shift)

let split_exact_y2x =
  qt "seg_y2x = floor(y*ism / 2^ism_shift) (direct product check)"
    QCheck2.Gen.(pair (int_range 0 (1 lsl 25)) (int_range 0 (1 lsl 36)))
    (fun (y, ism) -> Fp.seg_y2x y ism = (y * ism) asr Fp.ism_shift)

(* --- scalar conversions -------------------------------------------- *)

(* seconds_of_ticks is exact and ticks_of_seconds floors, so the
   round-trip is the identity — what Hfsc.next_ready_time relies on:
   the instant it reports, converted back by the caller's poll, lands
   on the same tick. *)
let tick_roundtrip =
  qt "ticks_of_seconds (seconds_of_ticks k) = k"
    QCheck2.Gen.(int_range 0 (1 lsl 45))
    (fun k -> Fp.ticks_of_seconds (Fp.seconds_of_ticks k) = k)

let test_scalar_edges () =
  Alcotest.(check int) "slope quantum is 1 B/s" 1000 (Fp.m2sm 1000.);
  Alcotest.(check int) "zero slope inverts to never" Fp.ht_infinity
    (Fp.m2ism 0.);
  Alcotest.(check bool) "ht_infinity maps to infinity" true
    (Fp.seconds_of_ticks Fp.ht_infinity = infinity);
  Alcotest.(check int) "floor: 1.5 ticks -> 1" 1
    (Fp.ticks_of_seconds (1.5 /. Fp.tick_hz))

(* --- curve generators ---------------------------------------------- *)

let sc_gen =
  QCheck2.Gen.(
    let* m1 = rate_gen and* m2 = rate_gen and* d = float_range 0. 0.05 in
    let* shape = int_range 0 3 in
    return
      (match shape with
      | 0 -> Sc.linear m2
      | 1 -> Sc.make ~m1:0. ~d ~m2 (* convex, flat first piece *)
      | _ -> Sc.make ~m1 ~d ~m2))

(* An anchored pair: the same service curve as a float runtime curve
   and as an integer one, at the same (tick-aligned, hence exactly
   representable) origin. *)
let anchored_gen =
  QCheck2.Gen.(
    let* sc = sc_gen
    and* xt = int_range 0 (1 lsl 38)
    and* y = int_range 0 (1 lsl 30) in
    return (sc, xt, y))

let float_of_anchor sc xt y =
  Rc.of_service_curve sc ~x:(Fp.seconds_of_ticks xt) ~y:(float_of_int y)

let int_of_anchor sc xt y = Fp.of_isc (Fp.isc_of_sc sc) ~x:xt ~y

(* Composed evaluation bound: per-segment slope rounding accumulates
   half a byte per elapsed second, and breakpoint/floor quantization
   adds a small constant (d rounds to half a tick — under a byte at
   2 GB/s — plus three floors). *)
let eval_bound dt_ticks = (Fp.seconds_of_ticks dt_ticks /. 2.) +. 6.

let eval_agree =
  qt "x2y within composed bound of Runtime_curve.eval"
    QCheck2.Gen.(pair anchored_gen (int_range 0 (1 lsl 38)))
    (fun ((sc, xt, y), dt) ->
      let cf = float_of_anchor sc xt y and ci = int_of_anchor sc xt y in
      let got = float_of_int (Fp.x2y ci (xt + dt)) in
      let exact = Rc.eval cf (Fp.seconds_of_ticks (xt + dt)) in
      Float.abs (got -. exact) <= eval_bound dt +. 1e-2)

(* Composed inversion bound, in seconds: the ism rounding contributes
   dv/2^(ism_shift+1) ticks, inverting the rounded-vs-true slope
   contributes up to dv/(2 m^2) seconds per segment, and breakpoint
   quantization up to a few bytes' worth of time at the slower slope. *)
let inverse_agree =
  qt "y2x within composed bound of Runtime_curve.inverse"
    QCheck2.Gen.(
      pair
        (let* m1 = rate_gen and* m2 = rate_gen and* d = float_range 0. 0.05 in
         let* xt = int_range 0 (1 lsl 38) and* y = int_range 0 (1 lsl 30) in
         return (Sc.make ~m1 ~d ~m2, xt, y))
        (int_range 0 (1 lsl 24)))
    (fun ((sc, xt, y), dv) ->
      let cf = float_of_anchor sc xt y and ci = int_of_anchor sc xt y in
      let got = Fp.seconds_of_ticks (Fp.y2x ci (y + dv)) in
      let exact = Rc.inverse cf (float_of_int (y + dv)) in
      let mmin = Float.min sc.Sc.m1 sc.Sc.m2 in
      let dvf = float_of_int dv in
      let bound =
        (dvf /. float_of_int (1 lsl (Fp.ism_shift + 1)) /. Fp.tick_hz)
        +. (dvf /. (2. *. mmin *. mmin))
        +. (8. /. mmin) +. 1e-6
      in
      Float.abs (got -. exact) <= bound)

let x2y_monotone =
  qt "x2y is nondecreasing"
    QCheck2.Gen.(
      pair anchored_gen (pair (int_range 0 (1 lsl 38)) (int_range 0 (1 lsl 20))))
    (fun ((sc, xt, y), (dt, step)) ->
      let ci = int_of_anchor sc xt y in
      Fp.x2y ci (xt + dt) <= Fp.x2y ci (xt + dt + step))

let y2x_monotone =
  qt "y2x is nondecreasing"
    QCheck2.Gen.(
      pair anchored_gen (pair (int_range 0 (1 lsl 24)) (int_range 0 (1 lsl 16))))
    (fun ((sc, xt, y), (dv, step)) ->
      let ci = int_of_anchor sc xt y in
      Fp.y2x ci (y + dv) <= Fp.y2x ci (y + dv + step))

(* y2x never overshoots: the tick it reports for a value the curve
   already reached at [t] is at most [t] plus the inversion slack —
   this is what keeps quantized deadlines from drifting late. *)
let roundtrip =
  qt "y2x (x2y t) <= t + inversion slack"
    QCheck2.Gen.(
      pair
        (let* m1 = rate_gen and* m2 = rate_gen and* d = float_range 0. 0.05 in
         let* xt = int_range 0 (1 lsl 38) and* y = int_range 0 (1 lsl 30) in
         return (Sc.make ~m1 ~d ~m2, xt, y))
        (int_range 0 (1 lsl 30)))
    (fun ((sc, xt, y), dt) ->
      let ci = int_of_anchor sc xt y in
      let v = Fp.x2y ci (xt + dt) in
      let dvf = float_of_int (v - y) in
      let mmin = Float.min sc.Sc.m1 sc.Sc.m2 in
      (* ism rounding + forward-vs-inverse slope rounding (the two are
         rounded independently from m) + a few bytes of floors at the
         slower slope *)
      let slack =
        int_of_float
          ((dvf /. float_of_int (1 lsl (Fp.ism_shift + 1)))
          +. (dvf *. Fp.tick_hz /. (2. *. mmin *. mmin))
          +. (8. *. Fp.tick_hz /. mmin))
        + 2
      in
      Fp.y2x ci v <= xt + dt + slack)

(* --- isc construction ---------------------------------------------- *)

let isc_consistent =
  qt "isc: dy is the quantized rise, concavity on quantized slopes"
    sc_gen
    (fun sc ->
      let i = Fp.isc_of_sc sc in
      i.Fp.dy = Fp.seg_x2y i.Fp.dx i.Fp.sm1
      && Fp.isc_concave i = (i.Fp.sm1 > i.Fp.sm2))

(* --- min_with differential ----------------------------------------- *)

(* Fold the same activation sequence through the float and the integer
   min_with and compare the resulting curves pointwise. Where the two
   representations could take different branches — the comparands of
   Fig. 8's tests within quantization error of each other — the curves
   may legitimately differ (both remain within the error envelope of
   the true minimum, but of different shapes), so near-tie steps are
   skipped rather than asserted. *)
let min_with_agree =
  qt ~count:500 "min_with within composed bound of Runtime_curve.min_with"
    QCheck2.Gen.(
      let* m1 = rate_gen and* m2 = rate_gen and* d = float_range 0. 0.02 in
      let* convex = bool in
      let sc =
        if convex then Sc.make ~m1:0. ~d ~m2 else Sc.make ~m1 ~d ~m2
      in
      let* steps =
        list_size (int_range 1 4)
          (pair (int_range 1 (1 lsl 34)) (int_range 0 (1 lsl 22)))
      in
      let* dt = int_range 0 (1 lsl 34) in
      return (sc, steps, dt))
    (fun (sc, steps, dt) ->
      let isc = Fp.isc_of_sc sc in
      let cf = ref (float_of_anchor sc 0 0) in
      let ci = ref (int_of_anchor sc 0 0) in
      let xt = ref 0 in
      let tie = ref false in
      List.iter
        (fun (dx, dy) ->
          (* activation at a later instant, with the class's cumulative
             service bumped the way update_ed/update_vf do *)
          xt := !xt + dx;
          let y = Fp.x2y !ci !xt + dy in
          let margin = eval_bound !xt +. 16. in
          let xf = Fp.seconds_of_ticks !xt and yf = float_of_int y in
          (* near-tie detection on the float side's branch comparands *)
          let y1 = Rc.eval !cf xf in
          if Float.abs (y1 -. yf) <= margin then tie := true
          else if sc.Sc.m1 > sc.Sc.m2 && y1 > yf then begin
            let y2 = Rc.eval !cf (xf +. sc.Sc.d) in
            if Float.abs (y2 -. (yf +. (sc.Sc.m1 *. sc.Sc.d))) <= margin then
              tie := true
          end;
          cf := Rc.min_with !cf sc ~x:xf ~y:yf;
          ci := Fp.min_with !ci isc ~x:!xt ~y)
        steps;
      !tie
      ||
      let t = !xt + dt in
      let got = float_of_int (Fp.x2y !ci t) in
      let exact = Rc.eval !cf (Fp.seconds_of_ticks t) in
      let bound =
        eval_bound t +. (8. *. float_of_int (List.length steps)) +. 16.
      in
      Float.abs (got -. exact) <= bound)

(* --- the slope envelope ------------------------------------------------ *)

(* The forward bound holds for every slope below [max_slope], whatever
   the low bits of the tick count: (2^30 - 1)·sm stays below 2^62. *)
let forward_bound_to_envelope =
  qt "seg_x2y bound holds up to max_slope"
    QCheck2.Gen.(
      pair
        (map (fun e -> 2. ** e) (float_range 30. 32.))
        (int_range 0 (1 lsl 40)))
    (fun (m, x) ->
      let m = Float.min m (Fp.max_slope -. 1.) in
      let got = float_of_int (Fp.seg_x2y x (Fp.m2sm m)) in
      let exact = float_of_int x *. m /. Fp.tick_hz in
      let bound = (float_of_int x /. Fp.tick_hz /. 2.) +. 1. in
      Float.abs (got -. exact) <= bound +. 1e-3)

let test_envelope_edges () =
  Alcotest.(check (float 0.)) "max_slope is 2^32 B/s" 4294967296. Fp.max_slope;
  (* one second less a tick, at the largest admitted slope: exact *)
  let x = (1 lsl Fp.tick_shift) - 1 in
  let m = Fp.max_slope -. 1. in
  let exact = float_of_int x *. m /. Fp.tick_hz in
  Alcotest.(check bool) "just inside: within a byte" true
    (Float.abs (float_of_int (Fp.seg_x2y x (Fp.m2sm m)) -. exact) <= 1.5);
  (* past the bound the low-bits product wraps: the reason for it *)
  let m = 2. *. Fp.max_slope in
  let exact = float_of_int x *. m /. Fp.tick_hz in
  Alcotest.(check bool) "outside: the split multiply wraps" true
    (Float.abs (float_of_int (Fp.seg_x2y x (Fp.m2sm m)) -. exact) > 1e6);
  Alcotest.(check bool) "check_rate refuses the bound itself" true
    (Result.is_error
       (Analysis.Admission.check_rate ~what:"rate" Fp.max_slope));
  Alcotest.(check bool) "check_rate admits just below" true
    (Result.is_ok
       (Analysis.Admission.check_rate ~what:"rate" (Fp.max_slope -. 1.)))

let () =
  Alcotest.run "fixedpoint"
    [
      ( "per-op bounds",
        [ forward_bound; inverse_bound; split_exact_x2y; split_exact_y2x ] );
      ( "scalars",
        [
          tick_roundtrip;
          Alcotest.test_case "edges" `Quick test_scalar_edges;
        ] );
      ( "curves",
        [
          eval_agree;
          inverse_agree;
          x2y_monotone;
          y2x_monotone;
          roundtrip;
          isc_consistent;
        ] );
      ("min_with", [ min_with_agree ]);
      ( "envelope",
        [
          forward_bound_to_envelope;
          Alcotest.test_case "edges" `Quick test_envelope_edges;
        ] );
    ]
