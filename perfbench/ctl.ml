(* The durable control-plane workload: [hfsc_sim daemon --state-dir] as a
   child process, one closed-loop client connection, a seeded mix of
   writes and reads, a shutdown and restarts on the same state
   directory; and the traced peel that replays the identical request
   stream in-process, layer by layer. *)

open Runtime
open Common

(* --- the request stream --------------------------------------------------- *)

type kind = Write | Read | Ping | Fingerprint | Stats_json

type req = {
  line : string;
  kind : kind;
  expect : string option;  (** [None] = ok, [Some code] = that refusal *)
}

let n_int = 10
let n_leaf = 100
let per_link = n_int * n_leaf

let setup_lines () =
  let b = ref [] in
  let line fmt = Printf.ksprintf (fun s -> b := s :: !b) fmt in
  line "link add core rate 1Gbit";
  line "link add bulk rate 1Gbit backend rr";
  for i = 0 to n_int - 1 do
    line "link core add class c%d parent root fsc 90Mbit" i;
    for j = 0 to n_leaf - 1 do
      let f = (i * n_leaf) + j in
      if j mod 2 = 1 then
        line
          "link core add class c%d_%d parent c%d flow %d rsc umax 1500 dmax \
           20ms rate 400Kbit fsc 800Kbit"
          i j i f
      else line "link core add class c%d_%d parent c%d flow %d fsc 800Kbit" i j i f
    done
  done;
  for i = 0 to n_int - 1 do
    line "link bulk add class b%d parent root quantum 100000" i;
    for j = 0 to n_leaf - 1 do
      line "link bulk add class b%d_%d parent b%d flow %d quantum 1500" i j i
        (per_link + (i * n_leaf) + j)
    done
  done;
  List.rev !b

(* The generator of the measured phase: transactions of one write then
   one read, as an operator changes something and looks at the result,
   in windows of [window_txns]. Every window holds the same multiset of
   request kinds in a seeded order, and exactly 256 accepted writes,
   which is one journal generation of the daemon: so windows do the same
   work, each including one journal rotation, and their speed differs
   only by host noise (Common.quiet_units). Writes are chosen so that
   the generator alone knows their outcome: fsc and rsc changes stay
   inside their parents' budgets, temporary leaves alternate add/delete,
   filters are kept at about 64 attached, and 14 writes in a window are
   deliberate over-commits that must be refused. *)
type gen = {
  st : Random.State.t;
  mutable temp : (string * string) option;  (** live temporary leaf: link, name *)
  mutable temp_n : int;
  filtered : int array;  (** bulk flows with a filter attached, first [n_filtered] *)
  mutable n_filtered : int;
  mutable over_n : int;
}

let gen ~seed =
  {
    st = rng ~seed ~stream:3;
    temp = None;
    temp_n = 0;
    filtered = Array.make per_link 0;
    n_filtered = 0;
    over_n = 0;
  }

type write_kind = Over_rsc | Over_fsc | Rsc | Fsc | Temp | Quantum | Filter
type read_kind = R_ping | R_list | R_stats | R_json | R_fp

(* One window: (kind, count). Writes: 256 accepted + 14 refused. *)
let window_writes =
  [ (Over_rsc, 7); (Over_fsc, 7); (Rsc, 52); (Fsc, 51); (Temp, 52); (Quantum, 51); (Filter, 50) ]

let window_reads = [ (R_ping, 68); (R_list, 67); (R_stats, 112); (R_json, 1); (R_fp, 22) ]
let window_txns = List.fold_left (fun a (_, n) -> a + n) 0 window_writes
let filters_kept = 64

let leaf st prefix = Printf.sprintf "%s%d_%d" prefix (Random.State.int st n_int) (Random.State.int st n_leaf)
let rsc_leaf st = Printf.sprintf "c%d_%d" (Random.State.int st n_int) ((2 * Random.State.int st (n_leaf / 2)) + 1)

let write g kind =
  let st = g.st in
  let ok line = { line; kind = Write; expect = None } in
  match kind with
  | Over_rsc ->
      {
        line = Printf.sprintf "link core modify class %s rsc 2Gbit" (rsc_leaf st);
        kind = Write;
        expect = Some "admission-realtime";
      }
  | Over_fsc ->
      g.over_n <- g.over_n + 1;
      {
        line =
          Printf.sprintf "link core add class x%d parent c%d fsc 1Gbit" g.over_n
            (Random.State.int st n_int);
        kind = Write;
        expect = Some "admission-linkshare";
      }
  | Rsc ->
      ok
        (Printf.sprintf "link core modify class %s rsc umax 1500 dmax 20ms rate %dKbit"
           (rsc_leaf st)
           (200 + Random.State.int st 400))
  | Fsc ->
      ok (Printf.sprintf "link core modify class %s fsc %dKbit" (leaf st "c") (600 + Random.State.int st 250))
  | Temp -> (
      match g.temp with
      | Some (link, name) ->
          g.temp <- None;
          ok (Printf.sprintf "link %s delete class %s" link name)
      | None ->
          g.temp_n <- g.temp_n + 1;
          let name = Printf.sprintf "t%d" g.temp_n in
          let i = Random.State.int st n_int in
          if Random.State.bool st then begin
            g.temp <- Some ("core", name);
            ok (Printf.sprintf "link core add class %s parent c%d fsc 100Kbit" name i)
          end
          else begin
            g.temp <- Some ("bulk", name);
            ok (Printf.sprintf "link bulk add class %s parent b%d quantum 1500" name i)
          end)
  | Quantum ->
      ok (Printf.sprintf "link bulk modify class %s quantum %d" (leaf st "b") (500 + Random.State.int st 2500))
  | Filter ->
      if g.n_filtered >= filters_kept then begin
        let i = Random.State.int st g.n_filtered in
        let f = g.filtered.(i) in
        g.n_filtered <- g.n_filtered - 1;
        g.filtered.(i) <- g.filtered.(g.n_filtered);
        ok (Printf.sprintf "link bulk detach filter flow %d" f)
      end
      else begin
        let rec fresh () =
          let k = Random.State.int st per_link in
          let f = per_link + k in
          let rec mem i = i < g.n_filtered && (g.filtered.(i) = f || mem (i + 1)) in
          if mem 0 then fresh () else (k, f)
        in
        let k, f = fresh () in
        g.filtered.(g.n_filtered) <- f;
        g.n_filtered <- g.n_filtered + 1;
        ok
          (Printf.sprintf "link bulk attach filter flow %d dst 10.%d.%d.0/24 proto udp dport %d %d" f
             (1 + (k / 200)) (k mod 200) (1024 + k) (1024 + k))
      end

let read g kind =
  let st = g.st in
  match kind with
  | R_ping -> { line = "ping"; kind = Ping; expect = None }
  | R_list -> { line = "link list"; kind = Read; expect = None }
  | R_stats ->
      let line =
        if Random.State.bool st then Printf.sprintf "link core stats %s" (leaf st "c")
        else Printf.sprintf "link bulk stats %s" (leaf st "b")
      in
      { line; kind = Read; expect = None }
  | R_json -> { line = "stats-json"; kind = Stats_json; expect = None }
  | R_fp -> { line = "fingerprint"; kind = Fingerprint; expect = None }

let expand l = Array.of_list (List.concat_map (fun (k, n) -> List.init n (fun _ -> k)) l)

(* The next window's transactions, in send order. Writes are generated
   in order, as they depend on the state the earlier ones left. *)
let next_window g =
  let ws = expand window_writes and rs = expand window_reads in
  shuffle g.st ws;
  shuffle g.st rs;
  Array.map2
    (fun w r ->
      let w = write g w in
      (w, read g r))
    ws rs

(* --- the daemon child -------------------------------------------------------- *)

type daemon = { pid : int; conn : Daemon.Client.conn }

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

let live_pids : int list ref = ref []

(* Whatever happens to the run, no daemon outlives it: a termination
   signal exits through the same clean-up. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_pids);
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2))) [ Sys.sigterm; Sys.sigint ]

(* Spawn and connect, polling the socket every 0.5 ms (a doubling
   back-off would quantize the measured start time). Returns the daemon
   and the spawn time. *)
let spawn ~exe ~dir ~sock =
  let null = devnull () in
  let t0 = now_ns () in
  let pid =
    Unix.create_process exe
      [| exe; "daemon"; "--socket"; sock; "--state-dir"; dir |]
      null null null
  in
  Unix.close null;
  live_pids := pid :: !live_pids;
  let deadline = t0 + 60_000_000_000 in
  let rec connect () =
    match Daemon.Client.connect sock with
    | conn -> conn
    | exception Unix.Unix_error _ ->
        if now_ns () > deadline then failwith "daemon did not come up within 60 s";
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "daemon exited before listening"
        | exception Unix.Unix_error _ -> ());
        Unix.sleepf 0.0005;
        connect ()
  in
  ({ pid; conn = connect () }, t0)

let request d line =
  match Daemon.Client.request ~timeout:60. d.conn line with
  | Ok body -> Ok body
  | Error (code, _) -> Error code

let shutdown d =
  ignore (request d "shutdown");
  Daemon.Client.close d.conn;
  ignore (Unix.waitpid [] d.pid);
  live_pids := List.filter (( <> ) d.pid) !live_pids

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error _ -> ()

(* --- the session ---------------------------------------------------------------- *)

type session = {
  reqs : req array;  (** in send order *)
  lat_us : float array;  (** reply latency per request *)
  accepted : bool array;  (** reply was ok *)
  mutable n : int;
  txn : samples;  (** write+read transaction latency, us, in send order *)
  windows : samples;  (** requests/s of each whole window *)
  mutable fp : string;  (** fingerprint before shutdown *)
}

let session () =
  let cap = 1 lsl 20 in
  {
    reqs = Array.make cap { line = ""; kind = Ping; expect = None };
    lat_us = Array.make cap 0.;
    accepted = Array.make cap false;
    n = 0;
    txn = samples ();
    windows = samples ();
    fp = "";
  }

(* Drive [d] closed-loop in whole windows until [seconds] have passed,
   appending to [s]: one transaction (a write, then a read) at a time,
   each request sent when the previous reply arrived. A window's lines
   are generated before its timer starts. Ending on a window boundary
   leaves the daemon at a journal rotation, so every restart after a
   segment recovers the same amount of state. *)
let run_session s d g ~seconds v =
  let send r =
    let t0 = now_ns () in
    let res = request d r.line in
    let dt = now_ns () - t0 in
    let i = s.n in
    s.reqs.(i) <- r;
    s.lat_us.(i) <- float_of_int dt /. 1e3;
    s.accepted.(i) <- Result.is_ok res;
    s.n <- i + 1;
    v.attempted <- v.attempted + 1;
    let got = match res with Ok _ -> None | Error c -> Some c in
    check v (got = r.expect) "%S: expected %s, got %s" r.line
      (Option.value r.expect ~default:"ok")
      (Option.value got ~default:"ok");
    dt
  in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let first = ref true in
  while (!first || now_ns () < deadline) && s.n + (2 * window_txns) <= Array.length s.reqs do
    first := false;
    let txns = next_window g in
    let w_ns = ref 0 in
    Array.iter
      (fun (w, r) ->
        let dt = send w + send r in
        add s.txn (float_of_int dt /. 1e3);
        w_ns := !w_ns + dt)
      txns;
    add s.windows (float_of_int (2 * window_txns) /. secs_of_ns !w_ns)
  done;
  s.fp <- (match request d "fingerprint" with Ok fp -> fp | Error _ -> "")

(* Build the device over the socket from an empty state directory.
   Returns the live daemon and the times of the set-up's steps: the
   daemon's start until it accepts a connection, then each chunk of
   [step_lines] set-up lines (Common.quiet_sum). *)
let setup ~exe ~dir ~sock v =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let times = samples () in
  let d, t0 = spawn ~exe ~dir ~sock in
  add times (secs_of_ns (now_ns () - t0));
  timed_chunks times
    (List.iter (fun l ->
         match request d l with
         | Ok _ -> ()
         | Error c -> check v false "setup line %S refused: %s" l c))
    (setup_lines ());
  (d, times)

(* Restart on the same state directory until the first reply, and check
   that reply is the fingerprint from before the shutdown. *)
let restart ~exe ~dir ~sock ~fp v =
  let d, t0 = spawn ~exe ~dir ~sock in
  let got = request d "fingerprint" in
  let dt = secs_of_ns (now_ns () - t0) in
  check v (got = Ok fp) "recovered fingerprint differs from the one before shutdown";
  (d, dt)

(* The sequential oracle: a fresh in-process [Router] fed exactly the
   lines the daemon accepted. *)
let oracle_fingerprint s =
  let r = Router.create () in
  let exec l =
    match Command.parse l with
    | Ok c -> ignore (Router.exec r ~now:0. c)
    | Error _ -> ()
  in
  List.iter exec (setup_lines ());
  for i = 0 to s.n - 1 do
    if s.reqs.(i).kind = Write && s.accepted.(i) then exec s.reqs.(i).line
  done;
  Router.config_fingerprint r

(* --- the in-process peel ----------------------------------------------------------- *)

type peel = {
  p_parse : acc;
  p_exec_w : acc;  (** Router.exec on writes *)
  p_exec_r : acc;  (** Router.exec on reads *)
  p_sjson : acc;  (** the stats-json document, built and rendered *)
  p_fp : acc;
  p_eng : acc;  (** Engine.exec_op on the engine copy *)
  p_admit : acc;
  p_append : acc;
  p_rotate : acc;
  mutable p_bytes : int;
  mutable p_grammar : int;  (** requests that reach the command grammar *)
  mutable p_next : int;  (** the next session request to replay *)
  a : Router.t;  (** replayed through [Router.exec] + the journal *)
  b : Router.t;  (** replayed one layer down, through [Engine.exec_op] *)
  journal : Journal.writer;
  dir : string;
  mutable rec_read : float;
  mutable rec_replay : float;
  mutable rec_fp : float;
}

let build_router () =
  let r = Router.create () in
  List.iter
    (fun l ->
      match Command.parse l with
      | Ok c -> ignore (Router.exec r ~now:0. c)
      | Error e -> failwith e)
    (setup_lines ());
  r

let params_of (c : Command.curve_updates) quantum =
  { Backend.rsc = c.Command.rsc; fsc = c.Command.fsc; usc = c.Command.usc; quantum }

let journal_bytes dir gen =
  match Unix.stat (Filename.concat dir (Printf.sprintf "journal.%d" gen)) with
  | st -> st.Unix.st_size
  | exception Unix.Unix_error _ -> 0

(* The session's requests are replayed on two in-process copies built
   from the same lines: copy [a] through Router.exec with the journal the
   daemon keeps (append, rotate every 256 appends), copy [b] one layer
   down through Engine.exec_op with the pure admission check timed on its
   own. The replay is incremental ([peel_upto]), so a traced run can
   alternate daemon windows with their replay and host noise falls on
   both alike. *)
let peel_start ~dir =
  let a = build_router () and b = build_router () in
  rm_rf dir;
  {
    p_parse = acc "command.parse";
    p_exec_w = acc "router.exec_write";
    p_exec_r = acc "router.exec_read";
    p_sjson = acc "router.stats_json";
    p_fp = acc "router.fingerprint";
    p_eng = acc "engine.exec_op";
    p_admit = acc "admission";
    p_append = acc "journal.append";
    p_rotate = acc "journal.rotate";
    p_bytes = 0;
    p_grammar = 0;
    p_next = 0;
    a;
    b;
    journal =
      Journal.start ~dir ~generation:0 ~checkpoint:(Router.checkpoint a)
        ~digest:(Router.config_fingerprint a);
    dir;
    rec_read = 0.;
    rec_replay = 0.;
    rec_fp = 0.;
  }

let span a f units =
  let t0 = span_begin () and w0 = Gc.minor_words () in
  let x = f () in
  span_end a t0 w0 units;
  x

(* The pure admission check of [op] on the engine that owns it. *)
let admit p be (op : Command.op) =
  match op with
  | Command.Add_class { name; parent; curves; quantum; _ } ->
      Option.iter
        (fun parent ->
          ignore (span p.p_admit (fun () -> be.Backend.admit_add ~parent ~name (params_of curves quantum)) 1))
        (be.Backend.find_id parent)
  | Command.Modify_class { name; curves; quantum; _ } ->
      Option.iter
        (fun id ->
          ignore (span p.p_admit (fun () -> be.Backend.admit_modify ~id ~name (params_of curves quantum)) 1))
        (be.Backend.find_id name)
  | _ -> ()

let replay_one p s v i =
  let r = s.reqs.(i) in
  match r.kind with
  | Ping -> ()
  | Fingerprint ->
      let fp = span p.p_fp (fun () -> Router.config_fingerprint p.a) 1 in
      check v (String.length fp > 0) "empty fingerprint"
  | Stats_json -> ignore (span p.p_sjson (fun () -> Json_lite.to_string (Router.stats_json p.a)) 1)
  | Write | Read -> (
      p.p_grammar <- p.p_grammar + 1;
      match span p.p_parse (fun () -> Command.parse_script r.line) 1 with
      | Ok [ (_, cmd) ] -> (
          let res =
            span (if r.kind = Write then p.p_exec_w else p.p_exec_r) (fun () -> Router.exec p.a ~now:0. cmd) 1
          in
          check v (Result.is_ok res = s.accepted.(i)) "in-process %S disagrees with the daemon" r.line;
          (match res with
          | Ok _ when Command.is_mutating cmd ->
              span p.p_append (fun () -> Journal.append p.journal ~now:0. cmd) 1;
              if Journal.appended p.journal >= 256 then begin
                p.p_bytes <- p.p_bytes + journal_bytes p.dir (Journal.generation p.journal);
                span p.p_rotate
                  (fun () ->
                    Journal.rotate p.journal ~checkpoint:(Router.checkpoint p.a)
                      ~digest:(Router.config_fingerprint p.a))
                  1
              end
          | _ -> ());
          match cmd.Command.target with
          | Command.On_link name ->
              Option.iter
                (fun e ->
                  admit p (Engine.backend e) cmd.Command.op;
                  let res' = span p.p_eng (fun () -> Engine.exec_op e ~now:0. cmd.Command.op) 1 in
                  check v (Result.is_ok res' = Result.is_ok res) "engine-level %S disagrees with the router" r.line)
                (Router.find_link p.b name)
          | Command.Default_link -> ())
      | Ok _ | Error _ -> check v false "request %S does not parse to one command" r.line)

(* Replay every session request not replayed yet. *)
let peel_upto p s v =
  for i = p.p_next to s.n - 1 do
    replay_one p s v i
  done;
  p.p_next <- s.n

(* Close the journal, compare with the daemon, and time the recovery of
   the replay's state directory, split: read, replay, fingerprint. *)
let peel_finish p s v =
  p.p_bytes <- p.p_bytes + journal_bytes p.dir (Journal.generation p.journal);
  Journal.close p.journal;
  let fp = Router.config_fingerprint p.a in
  check v (fp = s.fp) "in-process replay fingerprint differs from the daemon's";
  let t0 = now_ns () in
  (match Journal.recover ~dir:p.dir with
  | Error c -> check v false "journal recovery: %s" (Journal.corruption_text c)
  | Ok rc ->
      let t1 = now_ns () in
      let r = Router.create () in
      List.iter
        (fun (at, c) -> check v (Result.is_ok (Router.exec r ~now:at c)) "recovery replay refused a command")
        (rc.Journal.r_checkpoint @ rc.Journal.r_tail);
      let t2 = now_ns () in
      let fp' = Router.config_fingerprint r in
      let t3 = now_ns () in
      check v (fp' = fp) "recovered fingerprint differs from the replayed device";
      p.rec_read <- secs_of_ns (t1 - t0);
      p.rec_replay <- secs_of_ns (t2 - t1);
      p.rec_fp <- secs_of_ns (t3 - t2));
  rm_rf p.dir
