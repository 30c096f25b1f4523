(** Admission control for service-curve schedulers (Section II): SCED —
    and hence H-FSC's real-time criterion — can guarantee curves
    [S_1..S_n] on a link with linear service curve [R·t] iff
    [sum_i S_i(t) <= R·t] for all [t]. *)

val admissible :
  link_rate:float -> Curve.Service_curve.t list -> bool
(** Exact test of the SCED schedulability condition. *)

val excess : link_rate:float -> Curve.Service_curve.t list -> float
(** Worst-case over-subscription in bytes:
    [sup_t (sum_i S_i(t) - R t)]; 0 when admissible. *)

val rate_utilization :
  link_rate:float -> Curve.Service_curve.t list -> float
(** [sum of asymptotic rates / link_rate] — the long-run load the
    curves commit the link to. *)

val violating_breakpoint :
  capacity:Curve.Piecewise.t ->
  Curve.Service_curve.t list ->
  (float * float * float) option
(** Where (if anywhere) [sum curves] escapes [capacity]:
    [Some (t, demand, capacity_at_t)] at the breakpoint of either side
    with the largest excess, or [(infinity, demand_rate, capacity_rate)]
    when the breakpoints all fit but the asymptotic rates do not; [None]
    when admissible. Since both sides are piecewise linear, checking
    breakpoints plus final slopes is exact — this is the report the
    runtime control plane attaches to a rejected command. *)

val hierarchy_consistent :
  parent:Curve.Service_curve.t -> Curve.Service_curve.t list -> bool
(** Do the children's fair service curves fit under the parent's
    ([sum children <= parent] pointwise)? The configuration the
    link-sharing examples of the paper assume (Fig. 3 sets each interior
    curve to the sum of its children's). *)

(** {2 Upper-limit feasibility}

    An upper-limit curve caps the {e total} service a class may
    receive, while the real-time curve is a floor on the service it
    {e must} receive — so a configuration is feasible only when
    [rsc(t) <= usc(t)] for all [t]. A usc that dips below the rsc makes
    the guarantee unkeepable: once the cap binds, the class's deadlines
    pass while it is ineligible for service, and the real-time
    criterion's per-leaf bound (Theorem 1) no longer holds. Both curves
    are two-piece linear, so checking every breakpoint of either curve
    plus the asymptotic slopes is an exact test (same argument as
    {!violating_breakpoint}). Classes without one of the two curves are
    trivially feasible. *)

val usc_violating_breakpoint :
  rsc:Curve.Service_curve.t ->
  usc:Curve.Service_curve.t ->
  (float * float * float) option
(** Where (if anywhere) [rsc] escapes above [usc]:
    [Some (t, rsc_at_t, usc_at_t)] at the worst breakpoint,
    [(infinity, rsc_rate, usc_rate)] when only the asymptotic rates
    conflict, [None] when the pair is feasible. *)

val usc_feasible :
  rsc:Curve.Service_curve.t -> usc:Curve.Service_curve.t -> bool
(** [usc_violating_breakpoint ~rsc ~usc = None]. *)

(** {2 The fixed-point envelope}

    The scheduler evaluates curves in shifted integers
    ({!Curve.Fixed_point}), which carry slopes only below
    {!Curve.Fixed_point.max_slope}. A link rate or curve slope at or
    above it would be accepted and then served wrongly, so the control
    plane refuses it up front. *)

val check_rate : what:string -> float -> (unit, string) result
(** [Ok ()] below {!Curve.Fixed_point.max_slope} ([2^32] B/s, about
    34.36 Gbit/s); otherwise a message naming [what], the value and the
    bound. *)

val check_curve : what:string -> Curve.Service_curve.t -> (unit, string) result
(** {!check_rate} on both slopes ([m1], then [m2]). *)

(** {2 Incremental admission}

    A ledger keeps the sum of a changing set of two-piece curves as a
    sorted map from knee abscissa to the summed first and second slopes
    of the curves bending there. Adding or removing one curve is
    O(log k), for k distinct knees (the distinct [d] values of the
    set; linear curves share the knee at 0). Checking the sum, with
    one curve swapped out and one swapped in, against a two-piece
    capacity is one O(k) walk over the knees of both sides and the
    final slopes — exact, because both sides are linear between knees.

    The ledger only ever {e accepts}. It says a set clears only when
    every knee, and the final slope, stays below the capacity by more
    than [1e-9·(demand + capacity)]; near or over the bound the caller
    runs {!violating_breakpoint} on the full curve list. Every refusal,
    with its reported breakpoint, is therefore the oracle's, and float
    summation order cannot flip a verdict: within the margin the
    oracle decides. Slope sums are compensated (Neumaier), so their
    error stays within a few ulps of the current sum however many
    updates a long-running link applies. *)

module Ledger : sig
  type t

  val create : unit -> t
  val add : t -> Curve.Service_curve.t -> unit

  val remove : t -> Curve.Service_curve.t -> unit
  (** Remove one copy of a curve previously {!add}ed.
      @raise Invalid_argument if no curve with its knee is present. *)

  val curves : t -> int
  (** How many curves the ledger sums. *)

  val breakpoints : t -> int
  (** k: the number of distinct knees. *)

  val same_sum : t -> t -> bool
  (** The same knees, as many curves at each, and slope sums equal to
      within [1e-9] relative: how an audit compares a ledger kept by
      updates with one rebuilt from the curves. *)

  val clears :
    t ->
    ?drop:Curve.Service_curve.t ->
    ?extra:Curve.Service_curve.t ->
    capacity:Curve.Service_curve.t ->
    unit ->
    bool
  (** Whether the ledger's sum, minus [drop] and plus [extra], stays
      clear of [capacity] by the margin at every knee and
      asymptotically. [true] implies {!violating_breakpoint} finds no
      violation on the same curves; [false] means "ask it". Pure. *)
end
