(* E14 — reconfiguration transients. The hierarchy is built and then
   reshaped entirely through the runtime control plane while packets
   flow; the question is whether the audio leaf's real-time guarantee
   survives the reshaping untouched. See e14_transient.mli. *)

let link = Common.mbit 45.
let audio_rate = Common.kbit 64.
let audio_pkt = 160
let data_pkt = 1000
let until = 2.0

(* the reconfiguration burst sits in the middle third of the run *)
let t_first = 0.6
let t_last = 1.2

(* Theorem 1 bound for a concave rsc met exactly at dmax, plus the
   non-preemption term: one maximum-size packet may already be on the
   wire when an audio packet becomes eligible. *)
let dmax = 0.005
let bound = dmax +. (float_of_int data_pkt /. link)

type result = {
  before_max : float;
  during_max : float;
  after_max : float;
  bound : float;
  commands_ok : int;
  data_drops_during : int;
}

(* every command must be accepted: the script only reconfigures what
   the admission test and the structural rules allow live *)
let script =
  [
    (* shrink the backlogged sibling's queue mid-run (live limit change
       on an active leaf; the overflow is dropped on the spot) ... *)
    (t_first, "modify class data qlimit 32");
    (* ... admit a brand-new sibling while audio is in flight ... *)
    (0.8, "add class voice2 parent cmu flow 5 rsc umax 160 dmax 5ms \
           rate 64Kbit fsc 64Kbit");
    (* ... restore the queue ... *)
    (1.0, "modify class data qlimit 1000000");
    (* ... and tear the new sibling down again (passive: no source) *)
    (t_last, "delete class voice2");
  ]

let run () =
  let sched = Hfsc.create ~link_rate:link () in
  let eng =
    Runtime.Engine.create ~audit_every:256 ~link_rate:link sched ~flow_map:[]
      ()
  in
  let exec line ~now =
    match Runtime.Command.parse line with
    | Error e -> failwith ("E14: bad command: " ^ e)
    | Ok cmd -> (
        match Runtime.Engine.exec eng ~now cmd with
        | Ok _ -> ()
        | Error e ->
            failwith ("E14: rejected: " ^ Runtime.Engine.error_message e))
  in
  (* the Fig. 1 shape of examples/control.hfsc, via the control plane *)
  List.iter
    (fun l -> exec l ~now:0.)
    [
      "add class cmu parent root fsc 20Mbit";
      "add class pitt parent root fsc 20Mbit";
      "add class audio parent cmu flow 1 rsc umax 160 dmax 5ms rate 64Kbit \
       fsc 64Kbit";
      (* 19.8 (not control.hfsc's 19.936) leaves cmu headroom for the
         mid-run voice2 admission *)
      "add class data parent cmu flow 3 fsc 19.8Mbit";
      "add class pdata parent pitt flow 4 fsc 20Mbit";
    ];
  let data_id =
    match Runtime.Engine.flow_class eng 3 with
    | Some id -> id
    | None -> failwith "E14: data class missing"
  in
  let drops_now () =
    match
      Runtime.Telemetry.snapshot_counters (Runtime.Engine.snapshot eng)
        ~id:data_id
    with
    | Some c -> c.Runtime.Telemetry.drop_pkts
    | None -> 0
  in
  let sim =
    Netsim.Sim.create ~link_rate:link ~sched:(Runtime.Engine.to_scheduler eng) ()
  in
  List.iter
    (Netsim.Sim.add_source sim)
    [
      Netsim.Source.cbr ~flow:1 ~rate:audio_rate ~pkt_size:audio_pkt ();
      (* both data flows saturate their shares, so the link never
         idles and the sibling stays backlogged across every command *)
      Netsim.Source.saturating ~flow:3 ~rate:(Common.mbit 30.)
        ~pkt_size:data_pkt ();
      Netsim.Source.saturating ~flow:4 ~rate:(Common.mbit 25.)
        ~pkt_size:data_pkt ();
    ];
  let ok = ref 0 in
  let drops_at_first = ref 0 and drops_at_last = ref 0 in
  List.iter
    (fun (at, line) ->
      Netsim.Sim.at sim at (fun ~now ->
          if at = t_first then drops_at_first := drops_now ();
          exec line ~now;
          incr ok;
          if at = t_last then drops_at_last := drops_now ()))
    script;
  let before = ref 0. and during = ref 0. and after = ref 0. in
  Netsim.Sim.on_departure sim (fun ~now served ->
      let p = served.Sched.Scheduler.pkt in
      if p.Pkt.Packet.flow = 1 then begin
        let d = now -. p.Pkt.Packet.arrival in
        let cell =
          if now < t_first then before
          else if now <= t_last then during
          else after
        in
        if d > !cell then cell := d
      end);
  Netsim.Sim.run sim ~until;
  {
    before_max = !before;
    during_max = !during;
    after_max = !after;
    bound;
    commands_ok = !ok;
    data_drops_during = !drops_at_last - !drops_at_first;
  }

let print r =
  Common.section
    "E14: real-time guarantee across mid-run reconfiguration (extension)";
  Common.table
    ~header:[ "window"; "audio max delay"; "bound"; "within" ]
    [
      [
        "before (0.0-0.6s)";
        Common.pp_delay r.before_max;
        Common.pp_delay r.bound;
        (if r.before_max <= r.bound then "yes" else "NO");
      ];
      [
        "during (0.6-1.2s)";
        Common.pp_delay r.during_max;
        Common.pp_delay r.bound;
        (if r.during_max <= r.bound then "yes" else "NO");
      ];
      [
        "after  (1.2-2.0s)";
        Common.pp_delay r.after_max;
        Common.pp_delay r.bound;
        (if r.after_max <= r.bound then "yes" else "NO");
      ];
    ];
  Printf.printf
    "%d control commands accepted mid-run; the qlimit squeeze dropped %d \
     sibling packets\n"
    r.commands_ok r.data_drops_during
