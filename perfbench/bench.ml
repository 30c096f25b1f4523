(* Entry point of the benchmark:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               --daemon PATH [--commit ID]

   prints one context line (host, toolchain, commit, seed), a line with
   the host's speed before and after the run (Common.host_probe) and,
   last, the result line: {"correct", "attempted", "failed", "metrics"}.
   With --trace 0 the metrics are the end-to-end ones; with --trace 1
   the per-layer ones from the traced peel. See README.md for
   definitions. *)

open Common

(* Tolerance on |sum of layer self times - end-to-end| / end-to-end in
   the traced run; above it the run is marked incorrect. The two sides
   are timed on different copies (forwarding) or in different processes
   (control), interleaved but not simultaneous, so host noise alone moves
   the residual; it measured 0.0004-0.06. *)
let residual_tolerance = 0.25

let workloads = [ "fwd_large"; "fwd_mc_small"; "ctl_churn" ]

(* --- metric sets ---------------------------------------------------------- *)

(* Tail latencies are per-layer metrics of the traced run
   ([fwd_round_p99_us], [daemon.*_p99_us]): over ten runs their spread
   reached 0.26-0.37 of the median on the noisy host, past any bound. *)
let e2e_metrics ~setup ~tput ~p50 ~recover ~rss =
  [
    metric "setup_s" "s" setup;
    metric "throughput_per_s" "1/s" tput;
    metric "latency_p50_us" "us" p50;
    metric "recover_s" "s" recover;
    metric "rss_peak_mb" "MB" rss;
  ]

(* Every per-layer metric, in a fixed order; a layer idle on a workload
   reports 0. *)
let layer_units =
  [
    ("classify.ns_per_hdr", "ns");
    ("classify.hdr_frac", "frac");
    ("router.ns_per_pkt", "ns");
    ("router.minor_words_per_pkt", "words");
    ("router_core.directory_ns_per_pkt", "ns");
    ("engine.ns_per_pkt", "ns");
    ("engine.minor_words_per_pkt", "words");
    ("engine.wrapper_ns_per_pkt", "ns");
    ("backend.ns_per_pkt", "ns");
    ("backend.minor_words_per_pkt", "words");
    ("backend.record_ns_per_pkt", "ns");
    ("hfsc.ns_per_pkt", "ns");
    ("hfsc.minor_words_per_pkt", "words");
    ("hls.ns_per_pkt", "ns");
    ("hls.minor_words_per_pkt", "words");
    ("mc_router.ns_per_pkt", "ns");
    ("mc_router.minor_words_per_pkt", "words");
    ("mc_router.hop_ns_per_pkt", "ns");
    ("hfsc.rt_frac", "frac");
    ("engine.backlog_pkts", "pkts");
    ("fwd_round_p99_us", "us");
    ("command.parse_us", "us");
    ("router.exec_write_us", "us");
    ("router.exec_read_us", "us");
    ("router_core.exec_self_us", "us");
    ("admission.us_per_write", "us");
    ("engine.exec_self_us", "us");
    ("journal.append_us", "us");
    ("journal.rotate_ms", "ms");
    ("journal.rotations", "count");
    ("journal.bytes_per_write", "B");
    ("router.fingerprint_us", "us");
    ("router.stats_json_us", "us");
    ("daemon.socket_us", "us");
    ("daemon.write_p50_us", "us");
    ("daemon.write_p99_us", "us");
    ("daemon.read_p50_us", "us");
    ("daemon.read_p99_us", "us");
    ("recover.read_s", "s");
    ("recover.replay_s", "s");
    ("recover.fingerprint_s", "s");
    ("layers.e2e_us_per_unit", "us");
    ("layers.sum_self_us_per_unit", "us");
    ("layers.residual_frac", "frac");
  ]

let layer_metrics values =
  List.map
    (fun (name, unit) ->
      metric name unit (Option.value (List.assoc_opt name values) ~default:0.))
    layer_units

(* The sum check of a traced run: the layers' self times must add up to
   the untraced end-to-end time per unit of work, and none of them may be
   negative beyond the same tolerance. Self times are differences between
   copies, so their sum telescopes to the top copy's own span; only the
   sign of each term shows that a layer is consistent with the one below
   it. [selfs] are (name, self time) in the unit of [e2e]. *)
let sum_check v ~e2e ~sum_self selfs =
  let residual = Float.abs (sum_self -. e2e) /. e2e in
  check v (residual <= residual_tolerance)
    "layer self times sum to %.4g us per unit, end to end is %.4g us (residual %.3f > %.2f)"
    sum_self e2e residual residual_tolerance;
  List.iter
    (fun (name, self) ->
      check v (self >= -.residual_tolerance *. e2e)
        "layer %s self time %.4g is negative (end to end %.4g, tolerance %.2f)" name self e2e
        residual_tolerance)
    selfs;
  [
    ("layers.e2e_us_per_unit", e2e);
    ("layers.sum_self_us_per_unit", sum_self);
    ("layers.residual_frac", residual);
  ]

(* --- forwarding ------------------------------------------------------------- *)

let warmup_rounds = 200
let window_rounds = 1024

(* The timed phase is cut into windows of [window_rounds] rounds; every
   round offers 64 packets and drains them, so windows do the same work
   and the quiet ones among them (Common.quiet_units) give the rate and
   the round latency. The phase runs in [fwd_segments] segments, each
   followed by restores from checkpoint, so the restores sample the whole
   run. [setup_s] and [recover_s] are the quiet sums (Common.quiet_sum)
   of the builds and of the restores. [rss_peak_mb] is read after the
   first segment's rounds, before any restore, so that it is the peak of
   the built, warmed and forwarding device and not of the restores'
   garbage. *)
let fwd_segments = 5

let fwd_untraced w ~seed ~seconds v =
  let setup = quiet_sum (Fwd.setup_times w) in
  let c = Fwd.make_copy ~seed w Fwd.E2e in
  Fwd.prefill c;
  for _ = 1 to warmup_rounds do
    Fwd.run_round c ~record:false;
    Fwd.settle c v
  done;
  let rates = samples () and restore_runs = ref [] and rss = ref nan in
  let w_ns = ref 0 and w_pk = ref 0 and w_n = ref 0 in
  for _ = 1 to fwd_segments do
    let deadline = now_ns () + int_of_float (seconds /. float_of_int fwd_segments *. 1e9) in
    while now_ns () < deadline do
      let ns0 = c.Fwd.a_top.ns in
      Fwd.run_round c ~record:true;
      w_ns := !w_ns + (c.Fwd.a_top.ns - ns0);
      w_pk := !w_pk + c.Fwd.npending;
      Fwd.settle c v;
      incr w_n;
      if !w_n = window_rounds then begin
        add rates (float_of_int !w_pk /. secs_of_ns !w_ns);
        w_ns := 0;
        w_pk := 0;
        w_n := 0
      end
    done;
    if Float.is_nan !rss then rss := rss_peak_mb 0;
    for _ = 1 to w.Fwd.restores do
      restore_runs := Fwd.restore_times c v :: !restore_runs
    done
  done;
  ignore (Fwd.finish c v);
  Fwd.stop c;
  check v (count rates > 0) "no complete window of %d rounds in %g s" window_rounds seconds;
  check v
    (List.for_all (fun r -> count r = count (List.hd !restore_runs)) !restore_runs)
    "restores took different numbers of steps";
  let kept = quiet_units rates ~higher_is_better:true in
  let lat = unit_percentile c.Fwd.lat ~k:window_rounds kept in
  e2e_metrics ~setup
    ~tput:(quiet_median rates ~higher_is_better:true)
    ~p50:(lat 50.)
    ~recover:(quiet_sum !restore_runs) ~rss:!rss

(* The peel: one identically built copy per layer, all fed the same
   stream, run in interleaved blocks so host noise falls on every layer
   alike, for [peel_share] of the run. For the rest, the end-to-end copy
   runs alone and gives the round tail, [fwd_round_p99_us]: in the peel
   the first rounds of each block start with caches another copy filled,
   and they are more than the 1% the p99 reads. *)
let peel_share = 0.8

let fwd_traced w ~seed ~seconds v =
  let layers =
    if w.Fwd.multicore then Fwd.[ E2e; Mc; Router_l; Engine_l; Backend_l; Core_l ]
    else Fwd.[ E2e; Router_l; Engine_l; Backend_l; Core_l ]
  in
  let copies = List.map (Fwd.make_copy ~seed w) layers in
  List.iter
    (fun c ->
      Fwd.prefill c;
      for _ = 1 to warmup_rounds do
        Fwd.run_round c ~record:false;
        Fwd.settle c v
      done)
    copies;
  let deadline = now_ns () + int_of_float (peel_share *. seconds *. 1e9) in
  while now_ns () < deadline do
    List.iter
      (fun c ->
        for _ = 1 to 64 do
          Fwd.run_round c ~record:true;
          Fwd.settle c v
        done)
      copies
  done;
  let get l = List.find (fun c -> c.Fwd.layer = l) copies in
  let e2e = get Fwd.E2e in
  List.iter
    (fun c ->
      check v
        (c.Fwd.digest = e2e.Fwd.digest && c.Fwd.drained = e2e.Fwd.drained)
        "layer %s drained a different stream than the end-to-end copy"
        (Fwd.layer_name c.Fwd.layer))
    copies;
  let e2e_ns = ns_per_unit e2e.Fwd.a_top in
  for _ = 1 to warmup_rounds do
    Fwd.run_round e2e ~record:false;
    Fwd.settle e2e v
  done;
  e2e.Fwd.lat.n <- 0;
  let deadline = now_ns () + int_of_float ((1. -. peel_share) *. seconds *. 1e9) in
  while now_ns () < deadline do
    Fwd.run_round e2e ~record:true;
    Fwd.settle e2e v
  done;
  let backlogs = List.map (fun c -> Fwd.finish c v) copies in
  let r = get Fwd.Router_l and en = get Fwd.Engine_l and b = get Fwd.Backend_l in
  let core = get Fwd.Core_l in
  let core_ns =
    float_of_int (core.Fwd.a_hfsc.ns + core.Fwd.a_hls.ns)
    /. float_of_int (max 1 (core.Fwd.a_hfsc.units + core.Fwd.a_hls.units))
  in
  let router_ns = ns_per_unit r.Fwd.a_top
  and engine_ns = ns_per_unit en.Fwd.a_top
  and backend_ns = ns_per_unit b.Fwd.a_top in
  let classify_per_pkt = float_of_int r.Fwd.a_classify.ns /. float_of_int (max 1 r.Fwd.a_top.units) in
  let mc_vals, top_ns, top_self =
    if w.Fwd.multicore then
      let m = get Fwd.Mc in
      let mc_ns = ns_per_unit m.Fwd.a_top in
      ( [
          ("mc_router.ns_per_pkt", mc_ns);
          ("mc_router.minor_words_per_pkt", words_per_unit m.Fwd.a_top);
          ("mc_router.hop_ns_per_pkt", mc_ns -. router_ns);
        ],
        mc_ns,
        [ ("mc_router.hop", (mc_ns -. router_ns) /. 1e3) ] )
    else ([], router_ns +. classify_per_pkt, [ ("classify", classify_per_pkt /. 1e3) ])
  in
  let sums =
    sum_check v ~e2e:(e2e_ns /. 1e3) ~sum_self:(top_ns /. 1e3)
      (top_self
      @ List.map
          (fun (n, x) -> (n, x /. 1e3))
          [
            ("router_core.directory", router_ns -. engine_ns);
            ("engine.wrapper", engine_ns -. backend_ns);
            ("backend.record", backend_ns -. core_ns);
            ("core", core_ns);
          ])
  in
  List.iter Fwd.stop copies;
  mc_vals @ sums
  @ [
      ("classify.ns_per_hdr", ns_per_unit r.Fwd.a_classify);
      ("classify.hdr_frac", float_of_int r.Fwd.a_classify.units /. float_of_int (max 1 r.Fwd.a_top.units));
      ("router.ns_per_pkt", router_ns);
      ("router.minor_words_per_pkt", words_per_unit r.Fwd.a_top);
      ("router_core.directory_ns_per_pkt", router_ns -. engine_ns);
      ("engine.ns_per_pkt", engine_ns);
      ("engine.minor_words_per_pkt", words_per_unit en.Fwd.a_top);
      ("engine.wrapper_ns_per_pkt", engine_ns -. backend_ns);
      ("backend.ns_per_pkt", backend_ns);
      ("backend.minor_words_per_pkt", words_per_unit b.Fwd.a_top);
      ("backend.record_ns_per_pkt", backend_ns -. core_ns);
      ("hfsc.ns_per_pkt", ns_per_unit core.Fwd.a_hfsc);
      ("hfsc.minor_words_per_pkt", words_per_unit core.Fwd.a_hfsc);
      ("hls.ns_per_pkt", ns_per_unit core.Fwd.a_hls);
      ("hls.minor_words_per_pkt", words_per_unit core.Fwd.a_hls);
      ("hfsc.rt_frac", float_of_int r.Fwd.rt /. float_of_int (max 1 r.Fwd.hfsc_drained));
      ("engine.backlog_pkts", float_of_int (List.hd backlogs));
      ("fwd_round_p99_us", percentile e2e.Fwd.lat 99.);
    ]

(* --- control plane ------------------------------------------------------------ *)

(* Set-ups per run, session segments, and restarts after each segment:
   the daemon is shut down and restarted after each segment, so the
   restarts sample the whole run, and every restart recovers the same
   amount of state (a segment ends at a journal rotation). [setup_s] is
   the quiet sum of the set-ups (Common.quiet_sum), [recover_s] the quiet
   median of the restarts. *)
let ctl_setups = 5
let ctl_segments = 10
let ctl_restarts = 3

let ctl_untraced ~exe ~run_dir ~seed ~seconds v =
  let dir = Filename.concat run_dir "state" and sock = Filename.concat run_dir "d.sock" in
  let setups = ref [] in
  let setup () =
    let d, times = Ctl.setup ~exe ~dir ~sock v in
    setups := times :: !setups;
    d
  in
  for _ = 2 to ctl_setups do
    Ctl.shutdown (setup ())
  done;
  let d0 = setup () in
  let s = Ctl.session () and g = Ctl.gen ~seed in
  let rss = ref 0. and recovers = samples () in
  (* the restart after set-up starts the first segment on a fresh journal
     generation, like every later one; it is checked, not timed *)
  s.Ctl.fp <- Result.value (Ctl.request d0 "fingerprint") ~default:"";
  let stop d =
    rss := Float.max !rss (rss_peak_mb d.Ctl.pid);
    Ctl.shutdown d
  in
  let restart d =
    stop d;
    Ctl.restart ~exe ~dir ~sock ~fp:s.Ctl.fp v
  in
  let d = ref (fst (restart d0)) in
  for _ = 1 to ctl_segments do
    Ctl.run_session s !d g ~seconds:(seconds /. float_of_int ctl_segments) v;
    for _ = 1 to ctl_restarts do
      let d', dt = restart !d in
      add recovers dt;
      d := d'
    done
  done;
  stop !d;
  check v (Ctl.oracle_fingerprint s = s.Ctl.fp)
    "sequential replay of the accepted lines disagrees with the daemon's fingerprint";
  Ctl.rm_rf dir;
  let kept = quiet_units s.Ctl.windows ~higher_is_better:true in
  let lat = unit_percentile s.Ctl.txn ~k:Ctl.window_txns kept in
  check v
    (List.for_all (fun r -> count r = count (List.hd !setups)) !setups)
    "set-ups took different numbers of steps";
  e2e_metrics ~setup:(quiet_sum !setups)
    ~tput:(quiet_median s.Ctl.windows ~higher_is_better:true)
    ~p50:(lat 50.)
    ~recover:(quiet_median recovers ~higher_is_better:false)
    ~rss:!rss

let ctl_traced_windows = 8

let ctl_traced ~exe ~run_dir ~seed ~seconds v =
  let dir = Filename.concat run_dir "state" and sock = Filename.concat run_dir "d.sock" in
  let d, _ = Ctl.setup ~exe ~dir ~sock v in
  let s = Ctl.session () and g = Ctl.gen ~seed in
  let p = Ctl.peel_start ~dir:(Filename.concat run_dir "peel") in
  (* one daemon window, then its replay, until the time is up, and for
     at least [ctl_traced_windows] windows: the sum check needs more than
     one window's worth of host noise averaged out *)
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  while s.Ctl.n < ctl_traced_windows * 2 * Ctl.window_txns || now_ns () < deadline do
    Ctl.run_session s d g ~seconds:0. v;
    Ctl.peel_upto p s v
  done;
  Ctl.shutdown d;
  Ctl.rm_rf dir;
  Ctl.peel_finish p s v;
  let lat k =
    let x = samples () in
    for i = 0 to s.Ctl.n - 1 do
      if k s.Ctl.reqs.(i).Ctl.kind then add x s.Ctl.lat_us.(i)
    done;
    x
  in
  let writes = lat (( = ) Ctl.Write)
  and reads = lat (( <> ) Ctl.Write)
  and pings = lat (( = ) Ctl.Ping)
  and all = lat (fun _ -> true) in
  let socket = mean pings in
  let tot a = float_of_int a.ns /. 1e3 in
  let router_exec = tot p.Ctl.p_exec_w +. tot p.Ctl.p_exec_r in
  let n = float_of_int s.Ctl.n in
  let grammar = float_of_int (max 1 p.Ctl.p_grammar) in
  let sum_self =
    (tot p.Ctl.p_parse +. router_exec +. tot p.Ctl.p_sjson +. tot p.Ctl.p_fp +. tot p.Ctl.p_append
     +. tot p.Ctl.p_rotate)
    /. n
    +. socket
  in
  let router_core_self = (router_exec -. tot p.Ctl.p_eng) /. grammar
  and engine_self = (tot p.Ctl.p_eng -. tot p.Ctl.p_admit) /. grammar in
  let sums =
    sum_check v ~e2e:(mean all) ~sum_self
      [ ("router_core.exec_self", router_core_self); ("engine.exec_self", engine_self) ]
  in
  let appends = max 1 p.Ctl.p_append.spans in
  sums
  @ [
      ("command.parse_us", us_per_unit p.Ctl.p_parse);
      ("router.exec_write_us", us_per_unit p.Ctl.p_exec_w);
      ("router.exec_read_us", us_per_unit p.Ctl.p_exec_r);
      ("router_core.exec_self_us", router_core_self);
      ("admission.us_per_write", us_per_unit p.Ctl.p_admit);
      ("engine.exec_self_us", engine_self);
      ("journal.append_us", us_per_unit p.Ctl.p_append);
      ("journal.rotate_ms", us_per_unit p.Ctl.p_rotate /. 1e3);
      ("journal.rotations", float_of_int p.Ctl.p_rotate.spans);
      ("journal.bytes_per_write", float_of_int p.Ctl.p_bytes /. float_of_int appends);
      ("router.fingerprint_us", us_per_unit p.Ctl.p_fp);
      ("router.stats_json_us", us_per_unit p.Ctl.p_sjson);
      ("daemon.socket_us", socket);
      ("daemon.write_p50_us", percentile writes 50.);
      ("daemon.write_p99_us", percentile writes 99.);
      ("daemon.read_p50_us", percentile reads 50.);
      ("daemon.read_p99_us", percentile reads 99.);
      ("recover.read_s", p.Ctl.rec_read);
      ("recover.replay_s", p.Ctl.rec_replay);
      ("recover.fingerprint_s", p.Ctl.rec_fp);
    ]

(* --- main ----------------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let daemon = ref "" and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of fwd_large, fwd_mc_small, ctl_churn");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer peel");
      ("--daemon", Arg.Set_string daemon, "PATH the hfsc_sim executable (ctl_churn)");
      ("--commit", Arg.Set_string commit, "ID source revision, recorded in the context line");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --daemon PATH";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  let traced = !trace = 1 in
  Printf.printf
    "{\"context\": {\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %d, \
     \"nproc\": %d, \"ocaml\": %S, \"commit\": %S}}\n%!"
    !workload !seed !seconds !trace (nproc ()) Sys.ocaml_version !commit;
  let probe_before = host_probe () in
  let v = verdict () in
  let run_dir = Filename.concat ".bench_run" (string_of_int (Unix.getpid ())) in
  let metrics =
    match !workload with
    | "ctl_churn" ->
        if not (Sys.file_exists ".bench_run") then Unix.mkdir ".bench_run" 0o755;
        Unix.mkdir run_dir 0o755;
        at_exit (fun () -> Ctl.rm_rf run_dir);
        if traced then layer_metrics (ctl_traced ~exe:!daemon ~run_dir ~seed:!seed ~seconds:!seconds v)
        else ctl_untraced ~exe:!daemon ~run_dir ~seed:!seed ~seconds:!seconds v
    | name ->
        let w = if name = "fwd_large" then Fwd.fwd_large ~seed:!seed else Fwd.fwd_mc_small ~seed:!seed in
        if traced then layer_metrics (fwd_traced w ~seed:!seed ~seconds:!seconds v)
        else fwd_untraced w ~seed:!seed ~seconds:!seconds v
  in
  let (b0, m0), (b1, m1) = (probe_before, host_probe ()) in
  Printf.printf "{\"host_probe_ms\": {\"before\": {\"fastest\": %.3f, \"median\": %.3f}, \
                 \"after\": {\"fastest\": %.3f, \"median\": %.3f}}}\n" b0 m0 b1 m1;
  let correct = v.failed = 0 in
  print_endline (result_line ~correct v metrics);
  exit (if correct then 0 else 1)
