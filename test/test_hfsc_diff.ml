(* Differential tests: the persistent ED/VT trees the reference
   scheduler rides against a brute-force model on random operation
   sequences, and the optimized scheduler (Hfsc, whose intrusive trees
   are hand-specialised) against the frozen reference (Hfsc_ref) on
   random hierarchies and traffic — asserting bit-identical dequeue
   decisions and float aggregates.

   Between the deterministic big runs and the QCheck cases this drives
   well over 10k operations through each pair. *)

let qt ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- ED/VT trees under the scheduler's op mix ------------------------ *)

(* The persistent trees back the [Hfsc_ref] oracle, so they are driven
   here the way a scheduler drives them — insert, remove, and
   reposition (remove + mutate the key + reinsert) — against a list of
   the live elements, every query answered by a linear scan. *)

type ede = { eid : int; mutable el : float; mutable dl : float }

module EdP = Ds.Ed_tree.Make (struct
  type t = ede

  let id c = c.eid
  let eligible c = c.el
  let deadline c = c.dl
end)

type vte = { vid : int; mutable v : float; mutable ft : float }

module VtP = Ds.Vt_tree.Make (struct
  type t = vte

  let id c = c.vid
  let vt c = c.v
  let fit c = c.ft
end)

(* the least element under [lt], by linear scan *)
let min_by lt =
  List.fold_left
    (fun acc c -> match acc with Some b when not (lt c b) -> acc | _ -> Some c)
    None

(* Random op sequence over one tree and its model, comparing every
   query answer and the full in-order contents. [mk rng id] makes an
   element, [rekey rng x] mutates its key, [agree now live t] compares
   the queries, [key] orders the model's in-order listing. *)
let diff_run (type e tree) ~seed ~nops ~(mk : Random.State.t -> int -> e)
    ~(rekey : Random.State.t -> e -> unit) ~(insert : e -> tree -> tree)
    ~(remove : e -> tree -> tree) ~(empty : tree) ~(to_list : tree -> e list)
    ~(cardinal : tree -> int) ~(agree : float -> e list -> tree -> bool)
    ~(cmp : e -> e -> int) =
  let rng = Random.State.make [| seed |] in
  let live = ref [] and nlive = ref 0 in
  let t = ref empty in
  let ok = ref true in
  let pick () = List.nth !live (Random.State.int rng !nlive) in
  for id = 1 to nops do
    let r = Random.State.float rng 1. in
    if r < 0.4 || !nlive = 0 then begin
      let x = mk rng id in
      t := insert x !t;
      live := x :: !live;
      incr nlive
    end
    else if r < 0.6 then begin
      let x = pick () in
      live := List.filter (fun y -> y != x) !live;
      decr nlive;
      t := remove x !t
    end
    else if r < 0.75 then begin
      let x = pick () in
      t := remove x !t;
      rekey rng x;
      t := insert x !t
    end
    else
      ok :=
        !ok
        && agree (Random.State.float rng 11.) !live !t
        && cardinal !t = !nlive
  done;
  !ok && to_list !t = List.sort cmp !live

let ed_diff_run ~seed ~nops =
  let by_dl a b = a.dl < b.dl || (a.dl = b.dl && a.eid < b.eid) in
  let by_el a b = a.el < b.el || (a.el = b.el && a.eid < b.eid) in
  let same a b =
    match (a, b) with
    | None, None -> true
    | Some x, Some y -> x.eid = y.eid
    | _ -> false
  in
  diff_run ~seed ~nops
    ~mk:(fun rng eid ->
      { eid; el = Random.State.float rng 10.; dl = Random.State.float rng 10. })
    ~rekey:(fun rng x ->
      x.el <- Random.State.float rng 10.;
      x.dl <- Random.State.float rng 10.)
    ~insert:EdP.insert ~remove:EdP.remove ~empty:EdP.empty
    ~to_list:EdP.to_list ~cardinal:EdP.cardinal
    ~agree:(fun now live t ->
      same
        (EdP.min_deadline_eligible t ~now)
        (min_by by_dl (List.filter (fun c -> c.el <= now) live))
      && same (EdP.min_eligible t) (min_by by_el live))
    ~cmp:(fun a b -> if by_el a b then -1 else if by_el b a then 1 else 0)

let vt_diff_run ~seed ~nops =
  let by_v a b = a.v < b.v || (a.v = b.v && a.vid < b.vid) in
  let same a b =
    match (a, b) with
    | None, None -> true
    | Some x, Some y -> x.vid = y.vid
    | _ -> false
  in
  diff_run ~seed ~nops
    ~mk:(fun rng vid ->
      { vid; v = Random.State.float rng 10.; ft = Random.State.float rng 10. })
    ~rekey:(fun rng x ->
      x.v <- Random.State.float rng 10.;
      x.ft <- Random.State.float rng 10.)
    ~insert:VtP.insert ~remove:VtP.remove ~empty:VtP.empty
    ~to_list:VtP.to_list ~cardinal:VtP.cardinal
    ~agree:(fun now live t ->
      same
        (VtP.first_fit t ~now)
        (min_by by_v (List.filter (fun c -> c.ft <= now) live))
      && same (VtP.min_vt t) (min_by by_v live)
      && same (VtP.max_vt t) (min_by (fun a b -> by_v b a) live)
      && VtP.min_fit t
         = List.fold_left (fun m c -> Float.min m c.ft) infinity live)
    ~cmp:(fun a b -> if by_v a b then -1 else if by_v b a then 1 else 0)

let test_ed_diff_big () =
  Alcotest.(check bool) "ed trees agree over 6000 ops" true
    (ed_diff_run ~seed:7 ~nops:6000)

let test_vt_diff_big () =
  Alcotest.(check bool) "vt trees agree over 6000 ops" true
    (vt_diff_run ~seed:11 ~nops:6000)

let ed_diff_random =
  qt ~count:40 "ed trees: random op sequences agree"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed -> ed_diff_run ~seed ~nops:300)

let vt_diff_random =
  qt ~count:40 "vt trees: random op sequences agree"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed -> vt_diff_run ~seed ~nops:300)

(* --- full schedulers: Hfsc vs Hfsc_ref ----------------------------- *)

(* Drive a scheduler through a seeded enqueue/dequeue schedule and
   render every decision and the final per-class aggregates into a
   string; two implementations agree iff the strings are equal. Floats
   are printed with %h, so agreement is bit-exact. *)
module Trace (H : module type of Hfsc) = struct
  module B = Hfsc_gen.Build (H)

  let crit_int (c : H.criterion) =
    match c with H.Realtime -> 0 | H.Linkshare -> 1

  let run ~spec ~seed ~nops =
    let link_rate = 1e6 in
    let t, leaves = B.build_tree link_rate spec in
    let leaves = Array.of_list leaves in
    let nl = Array.length leaves in
    let rng = Random.State.make [| seed |] in
    let now = ref 0. in
    let seqs = Array.make nl 0 in
    let buf = Buffer.create (64 * nops) in
    for _ = 1 to nops do
      now := !now +. Random.State.float rng 0.002;
      if Random.State.float rng 1. < 0.6 then begin
        let i = Random.State.int rng nl in
        let flow, cls, _ = leaves.(i) in
        let size = 40 + Random.State.int rng 1460 in
        let p = Pkt.Packet.make ~flow ~size ~seq:seqs.(i) ~arrival:!now in
        seqs.(i) <- seqs.(i) + 1;
        let accepted = H.enqueue t ~now:!now cls p in
        Buffer.add_string buf
          (Printf.sprintf "E%d:%d:%b;" flow p.Pkt.Packet.seq accepted)
      end
      else
        match H.dequeue t ~now:!now with
        | None -> Buffer.add_string buf "D-;"
        | Some (p, c, crit) ->
            Buffer.add_string buf
              (Printf.sprintf "D%d:%d:%s:%d;" p.Pkt.Packet.flow
                 p.Pkt.Packet.seq (H.name c) (crit_int crit))
    done;
    List.iter
      (fun c ->
        Buffer.add_string buf
          (Printf.sprintf "C%s:%h:%h:%h:%d;" (H.name c) (H.total_bytes c)
             (H.realtime_bytes c) (H.virtual_time c) (H.queue_length c)))
      (H.classes t);
    Buffer.contents buf
end

module TOpt = Trace (Hfsc)
module TRef = Trace (Hfsc_ref)

let det_spec =
  let leaf k u =
    Hfsc_gen.Leaf { rsc_kind = k; with_usc = u; share = 0.4; qlimit = 60 }
  in
  Hfsc_gen.Node
    ( 0.9,
      [
        Hfsc_gen.Node (0.5, [ leaf 1 false; leaf 3 false; leaf 0 false ]);
        Hfsc_gen.Node (0.5, [ leaf 2 false; leaf 1 true ]);
        leaf 3 false;
      ] )

let test_sched_diff_big () =
  let a = TOpt.run ~spec:det_spec ~seed:42 ~nops:12_000 in
  let b = TRef.run ~spec:det_spec ~seed:42 ~nops:12_000 in
  Alcotest.(check string) "identical 12k-op trace" b a

let sched_diff_random =
  qt ~count:25 "random hierarchy + schedule: Hfsc = Hfsc_ref"
    QCheck2.Gen.(pair Hfsc_gen.tree_gen (int_range 0 100_000))
    (fun (spec, seed) ->
      TOpt.run ~spec ~seed ~nops:400 = TRef.run ~spec ~seed ~nops:400)

(* --- batched entry points vs singles -------------------------------- *)

(* The batch API's contract is bit-identity with the equivalent single
   calls. Drive the shared op stream (which includes Enq_burst and
   Deq_burst ops) through the optimized scheduler in both modes and
   through the reference, and require one trace — the short default
   form of the @fuzz four-way differential. *)
module BOpt = Hfsc_gen.Drive (Hfsc)
module BRef = Hfsc_gen.Drive (Hfsc_ref)

let batch_identity =
  qt ~count:25 "batched = singles = reference over random op streams"
    QCheck2.Gen.(pair Hfsc_gen.tree_gen (int_range 0 100_000))
    (fun (spec, seed) ->
      let rng = Random.State.make [| 0xba7c4; seed |] in
      let ops =
        Hfsc_gen.gen_ops ~rng
          ~nleaves:(Hfsc_gen.leaves_of_spec spec)
          ~nops:400
      in
      let batched = BOpt.run ~expand_bursts:false ~spec ~ops () in
      let singles = BOpt.run ~expand_bursts:true ~spec ~ops () in
      let ref_b = BRef.run ~expand_bursts:false ~spec ~ops () in
      batched = singles && batched = ref_b)

(* --- set_curves while the hierarchy holds backlog ------------------- *)

(* The runtime control plane reconfigures passive classes while their
   siblings stay backlogged. Drive that exact pattern through both
   implementations: serve a greedy [a] for a while, change passive
   [b]'s curves mid-run (including giving it an rsc), then let [b]
   start its next backlogged period and compete. Decisions and
   aggregates must stay bit-identical to the frozen reference. *)
module Reconf (H : module type of Hfsc) = struct
  let crit_int (c : H.criterion) =
    match c with H.Realtime -> 0 | H.Linkshare -> 1

  let run ~seed ~nops =
    let link = 1e6 in
    let t = H.create ~link_rate:link () in
    let a =
      H.add_class t ~parent:(H.root t) ~name:"a"
        ~fsc:(Curve.Service_curve.linear (0.5 *. link))
        ~qlimit:200 ()
    in
    let b =
      H.add_class t ~parent:(H.root t) ~name:"b"
        ~fsc:(Curve.Service_curve.linear (0.5 *. link))
        ~qlimit:200 ()
    in
    let rng = Random.State.make [| seed |] in
    let now = ref 0. in
    let seqs = [| 0; 0 |] in
    let buf = Buffer.create (64 * nops) in
    let enq flow cls =
      let size = 40 + Random.State.int rng 1460 in
      let p =
        Pkt.Packet.make ~flow ~size ~seq:seqs.(flow) ~arrival:!now
      in
      seqs.(flow) <- seqs.(flow) + 1;
      Buffer.add_string buf
        (Printf.sprintf "E%d:%b;" flow (H.enqueue t ~now:!now cls p))
    in
    let deq () =
      match H.dequeue t ~now:!now with
      | None -> Buffer.add_string buf "D-;"
      | Some (p, c, crit) ->
          Buffer.add_string buf
            (Printf.sprintf "D%d:%d:%s:%d;" p.Pkt.Packet.flow
               p.Pkt.Packet.seq (H.name c) (crit_int crit))
    in
    (* phase 1: only [a] backlogged *)
    for _ = 1 to nops do
      now := !now +. Random.State.float rng 0.002;
      if Random.State.float rng 1. < 0.55 then enq 0 a else deq ()
    done;
    (* mid-run, with [a]'s backlog live: give passive [b] a concave rsc
       and a bigger share — the control plane's modify *)
    H.set_curves t b
      ~rsc:(Curve.Service_curve.make ~m1:(0.6 *. link) ~d:0.01
              ~m2:(0.25 *. link))
      ~fsc:(Curve.Service_curve.linear (0.6 *. link))
      ();
    Buffer.add_string buf "M;";
    (* phase 2: [b]'s next backlogged period begins under the new curves *)
    for _ = 1 to nops do
      now := !now +. Random.State.float rng 0.002;
      let r = Random.State.float rng 1. in
      if r < 0.3 then enq 0 a
      else if r < 0.6 then enq 1 b
      else deq ()
    done;
    List.iter
      (fun c ->
        Buffer.add_string buf
          (Printf.sprintf "C%s:%h:%h:%h:%d;" (H.name c) (H.total_bytes c)
             (H.realtime_bytes c) (H.virtual_time c) (H.queue_length c)))
      (H.classes t);
    Buffer.contents buf
end

module ROpt = Reconf (Hfsc)
module RRef = Reconf (Hfsc_ref)

let test_reconf_diff_big () =
  let a = ROpt.run ~seed:5 ~nops:3000 in
  let b = RRef.run ~seed:5 ~nops:3000 in
  Alcotest.(check string) "identical trace across set_curves" b a

let reconf_diff_random =
  qt ~count:30 "set_curves mid-backlog: Hfsc = Hfsc_ref"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed -> ROpt.run ~seed ~nops:300 = RRef.run ~seed ~nops:300)

(* The semantic half of the guarantee: the new curves govern the next
   backlogged period. After [b]'s fair curve is tripled, a greedy [b]
   must draw ~3x [a]'s service in the following window. *)
let test_reconf_takes_effect () =
  let link = 1e6 in
  let t = Hfsc.create ~link_rate:link () in
  let mk name r =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name
      ~fsc:(Curve.Service_curve.linear r) ~qlimit:5000 ()
  in
  let a = mk "a" (0.5 *. link) in
  let b = mk "b" (0.5 *. link) in
  let now = ref 0. in
  let seq = ref 0 in
  let feed cls flow =
    ignore
      (Hfsc.enqueue t ~now:!now cls
         (Pkt.Packet.make ~flow ~size:1000 ~seq:!seq ~arrival:!now));
    incr seq
  in
  (* both greedy: equal split under the initial equal curves *)
  let run_window () =
    let a0 = Hfsc.total_bytes a and b0 = Hfsc.total_bytes b in
    for _ = 1 to 2000 do
      now := !now +. 0.001;
      feed a 0;
      feed a 0;
      feed b 1;
      feed b 1;
      ignore (Hfsc.dequeue t ~now:!now);
      ignore (Hfsc.dequeue t ~now:!now)
    done;
    (Hfsc.total_bytes a -. a0, Hfsc.total_bytes b -. b0)
  in
  let da, db = run_window () in
  Alcotest.(check bool) "equal shares before" true
    (abs_float (db /. da -. 1.) < 0.1);
  (* drain b, reconfigure it, resume *)
  let rec drain_b () =
    if Hfsc.queue_length b > 0 then begin
      now := !now +. 0.001;
      ignore (Hfsc.dequeue t ~now:!now);
      drain_b ()
    end
  in
  drain_b ();
  Hfsc.set_curves t b ~fsc:(Curve.Service_curve.linear (1.5 *. link)) ();
  let da, db = run_window () in
  Alcotest.(check bool) "3:1 after (next backlogged period)" true
    (abs_float ((db /. da /. 3.) -. 1.) < 0.15)

let () =
  Alcotest.run "hfsc-diff"
    [
      ( "trees",
        [
          Alcotest.test_case "ed big run" `Quick test_ed_diff_big;
          Alcotest.test_case "vt big run" `Quick test_vt_diff_big;
          ed_diff_random;
          vt_diff_random;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "deterministic big run" `Quick
            test_sched_diff_big;
          sched_diff_random;
        ] );
      ("batch", [ batch_identity ]);
      ( "set_curves",
        [
          Alcotest.test_case "mid-backlog big run" `Quick
            test_reconf_diff_big;
          reconf_diff_random;
          Alcotest.test_case "takes effect next period" `Quick
            test_reconf_takes_effect;
        ] );
    ]
