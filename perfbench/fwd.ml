(* The forwarding workloads: a seeded, closed-loop, saturating packet
   stream driven through the sequential [Router] ([fwd_large]) or the
   multicore [Mc_router] ([fwd_mc_small]), and the traced peel that
   replays the identical stream one layer lower at a time.

   The loop: every leaf is prefilled with [prefill.(flow)] packets, then
   each round offers one packet per packet drained in the previous round,
   to the same flow (round 0 offers a seeded initial set), and drains
   exactly as many packets from each link as were offered to it. Every
   leaf therefore stays backlogged at about its prefill, no queue
   ever overflows, and the stream is a pure function of the seed and the
   (deterministic) schedulers. A round's packets are built before its
   timer starts; its correctness checks run after the timer stops. *)

open Runtime
open Common

type link_kind = Hfsc_link | Rr_link

type workload = {
  lines : string list;  (** the device, as control-plane command lines *)
  link_names : string array;
  link_kinds : link_kind array;
  flow_link : int array;  (** flow id -> index into [link_names] *)
  flow_hdr : Pkt.Header.t option array;
      (** flows that arrive as headers and take the classifier *)
  sizes : int array;  (** packet sizes, drawn uniformly *)
  initial : int array;  (** round 0's offer, one flow per packet *)
  prefill : int array;  (** packets each flow is kept backlogged at *)
  multicore : bool;
  builds : int;  (** set-up repetitions for [setup_s] *)
  restores : int;  (** checkpoint restores after each segment, for [recover_s] *)
}

let round_pkts = 64
let link_rate = 125e6 (* 1 Gbit in bytes/second, every link *)

(* --- the workloads ------------------------------------------------------ *)

(* [fwd_large]: an H-FSC link of 20 x 100 leaves (every second leaf with
   a real-time curve) beside a round-robin link of 20 x 100 classes, 256
   header filters on the rr link, 12 or 13 under each rr interior class.
   Filtered classes carry 7x the quantum of the rest and are kept 16
   packets deep, enough to use a whole quantum per visit, so they take
   about half of that link's departures: with the replacement loop about
   one packet in four arrives as a header. *)
let fwd_large ~seed =
  let st = rng ~seed ~stream:1 in
  let n_int = 20 and n_leaf = 100 and n_filters = 256 in
  let per_link = n_int * n_leaf in
  let nflows = 2 * per_link in
  let filtered =
    Array.init n_filters (fun k ->
        let i = k mod n_int in
        per_link + (i * n_leaf) + ((k / n_int * 7) + Random.State.int st 7))
  in
  shuffle st filtered;
  let is_filtered = Array.make nflows (-1) in
  Array.iteri (fun k f -> is_filtered.(f) <- k) filtered;
  let b = Buffer.create (1 lsl 18) in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "link add core rate 1Gbit";
  line "link add bulk rate 1Gbit backend rr";
  for i = 0 to n_int - 1 do
    line "link core add class c%d parent root fsc 48Mbit" i;
    for j = 0 to n_leaf - 1 do
      let f = (i * n_leaf) + j in
      if j mod 2 = 1 then
        line
          "link core add class c%d_%d parent c%d flow %d rsc umax 1500 dmax \
           20ms rate 400Kbit fsc 460Kbit"
          i j i f
      else line "link core add class c%d_%d parent c%d flow %d fsc 460Kbit" i j i f
    done
  done;
  for i = 0 to n_int - 1 do
    line "link bulk add class b%d parent root quantum 100000" i;
    for j = 0 to n_leaf - 1 do
      let f = per_link + (i * n_leaf) + j in
      line "link bulk add class b%d_%d parent b%d flow %d quantum %d" i j i f
        (if is_filtered.(f) >= 0 then 10500 else 1500)
    done
  done;
  let flow_hdr = Array.make nflows None in
  Array.iteri
    (fun k f ->
      let a = 1 + (k / 200) and c = k mod 200 in
      let dport = 1024 + Random.State.int st 60000 in
      line "link bulk attach filter flow %d dst 10.%d.%d.0/24 proto udp dport %d %d"
        f a c dport dport;
      flow_hdr.(f) <-
        Some
          (Pkt.Header.make
             ~src:(Printf.sprintf "192.168.%d.%d" (Random.State.int st 256)
                     (1 + Random.State.int st 254))
             ~dst:(Printf.sprintf "10.%d.%d.%d" a c (1 + Random.State.int st 254))
             ~proto:Pkt.Header.Udp
             ~sport:(1024 + Random.State.int st 60000)
             ~dport ()))
    filtered;
  let initial =
    Array.init round_pkts (fun i ->
        (if i < round_pkts / 2 then 0 else per_link) + Random.State.int st per_link)
  in
  {
    lines = String.split_on_char '\n' (Buffer.contents b) |> List.filter (( <> ) "");
    link_names = [| "core"; "bulk" |];
    link_kinds = [| Hfsc_link; Rr_link |];
    flow_link = Array.init nflows (fun f -> if f < per_link then 0 else 1);
    flow_hdr;
    sizes = [| 64; 576; 1500 |];
    initial;
    prefill = Array.init nflows (fun f -> if is_filtered.(f) >= 0 then 16 else 4);
    multicore = false;
    builds = 3;
    restores = 1;
  }

(* [fwd_mc_small]: four links of 16 flat leaves (three fsc-only H-FSC
   links and one rr link) on one worker domain; 64-byte packets on the
   flow-id path only, so the scheduler cores do little and the SPSC hop
   dominates. *)
let fwd_mc_small ~seed =
  let st = rng ~seed ~stream:1 in
  let nl = 4 and nleaf = 16 in
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  for l = 0 to nl - 1 do
    if l = nl - 1 then line "link add l%d rate 1Gbit backend rr" l
    else line "link add l%d rate 1Gbit" l
  done;
  for l = 0 to nl - 1 do
    for j = 0 to nleaf - 1 do
      let f = (l * nleaf) + j in
      if l = nl - 1 then line "link l%d add class l%d_%d parent root flow %d quantum 1500" l l j f
      else line "link l%d add class l%d_%d parent root flow %d fsc 60Mbit" l l j f
    done
  done;
  let nflows = nl * nleaf in
  {
    lines = String.split_on_char '\n' (Buffer.contents b) |> List.filter (( <> ) "");
    link_names = Array.init nl (Printf.sprintf "l%d");
    link_kinds = Array.init nl (fun l -> if l = nl - 1 then Rr_link else Hfsc_link);
    flow_link = Array.init nflows (fun f -> f / nleaf);
    flow_hdr = Array.make nflows None;
    sizes = [| 64 |];
    initial =
      Array.init round_pkts (fun i -> (i mod nl * nleaf) + Random.State.int st nleaf);
    prefill = Array.make nflows 4;
    multicore = true;
    builds = 100;
    restores = 40;
  }

(* --- building the device ------------------------------------------------ *)

let parse_lines lines =
  List.map
    (fun l ->
      match Command.parse l with
      | Ok c -> c
      | Error e -> failwith (Printf.sprintf "setup line %S: %s" l e))
    lines

(* Parse and execute set-up lines, as an operator's script would; any
   refusal aborts the run (the workload is built to be admissible). *)
let exec_lines exec lines =
  List.iter
    (fun c ->
      match exec ~now:0. c with
      | Ok _ -> ()
      | Error e -> failwith ("setup refused: " ^ Engine.error_message e))
    (parse_lines lines)

let build_router w =
  let r = Router.create () in
  exec_lines (Router.exec r) w.lines;
  r

let build_mc w =
  let m = Mc_router.create ~domains:1 () in
  exec_lines (Mc_router.exec m) w.lines;
  m

(* --- one copy of the device, driven at one layer ------------------------- *)

type layer = E2e | Mc | Router_l | Engine_l | Backend_l | Core_l

let layer_name = function
  | E2e -> "e2e"
  | Mc -> "mc_router"
  | Router_l -> "router"
  | Engine_l -> "engine"
  | Backend_l -> "backend"
  | Core_l -> "core"

type core = Hc of Hfsc.t * Hfsc.cls array | Lc of Sched.Hls.t * Sched.Hls.cls array
type dev = Seq of Router.t | Multi of Mc_router.t

type copy = {
  layer : layer;
  w : workload;
  dev : dev;
  engs : Engine.t array;  (** the links' engines; empty on a [Multi] copy *)
  bes : Backend.t array;
  cores : core array;
  flow_id : int array;  (** flow -> class id on its link *)
  (* generator *)
  st : Random.State.t;
  seq : int array;  (** next seq to offer, per flow *)
  last : int array;  (** last seq drained, per flow *)
  mutable pending : int array;
  mutable npending : int;
  mutable now : float;
  (* the round being built: router view ... *)
  hpkt : Pkt.Packet.t array;
  hhdr : Pkt.Header.t array;
  mutable nh : int;
  mutable flow_arr : Pkt.Packet.t array;
  (* ... and the per-link view the lower layers take *)
  lpk : Pkt.Packet.t array array;
  lhdr : bool array array;
  lk : int array;
  (* classify results, written inside the timed region *)
  c_link : int array;
  c_id : int array;
  (* drain buffers *)
  bb : Backend.batch array array;  (** [bb.(l).(k)] has capacity k *)
  hb : Hfsc.batch array array;
  rb : Sched.Hls.batch array array;
  mc_out : Pkt.Packet.t array array;
  mc_rt : bool array array;
  mc_n : int array;
  mc_f : (pkt:Pkt.Packet.t -> cls:string -> rt:bool -> unit) array;
  (* accounting *)
  mutable offered : int;
  mutable drained : int;
  mutable refused : int;
  mutable rt : int;
  mutable hfsc_drained : int;
  mutable digest : int;  (** running hash of the drained (flow, seq) stream *)
  (* spans *)
  a_top : acc;  (** the whole round: the e2e copy, or this copy's layer *)
  a_classify : acc;
  a_hfsc : acc;
  a_hls : acc;
  lat : samples;  (** per-round wall time, microseconds *)
}

let dummy_pkt = Pkt.Packet.make ~flow:0 ~size:1 ~seq:0 ~arrival:0.
let dummy_hdr = Pkt.Header.make ~src:"0.0.0.0" ~dst:"0.0.0.0" ~proto:Pkt.Header.Udp ()

let core_of_backend (b : Backend.t) =
  match (b.Backend.raw_hfsc, b.Backend.raw_hls) with
  | Some h, _ ->
      let cls = Hfsc.classes h in
      let a = Array.make (List.length cls) (Hfsc.root h) in
      List.iter (fun c -> a.(Hfsc.id c) <- c) cls;
      Hc (h, a)
  | None, Some l ->
      let cls = Sched.Hls.classes l in
      let a = Array.make (List.length cls) (Sched.Hls.root l) in
      List.iter (fun c -> a.(Sched.Hls.id c) <- c) cls;
      Lc (l, a)
  | None, None -> failwith "backend exposes no scheduler"

let make_copy ~seed w layer =
  let nl = Array.length w.link_names in
  let nflows = Array.length w.flow_link in
  let dev =
    match layer with
    | Mc | E2e when w.multicore -> Multi (build_mc w)
    | _ -> Seq (build_router w)
  in
  (* the flow -> class-id map comes from a sequential twin when the copy
     itself is multicore: same lines, same dense ids *)
  let seq_r = match dev with Seq r -> r | Multi _ -> build_router w in
  let engs =
    Array.map
      (fun n ->
        match Router.find_link seq_r n with
        | Some e -> e
        | None -> failwith ("no link " ^ n))
      w.link_names
  in
  let flow_id =
    Array.init nflows (fun f ->
        match Router.flow_class seq_r f with
        | Some (_, id) -> id
        | None -> failwith (Printf.sprintf "flow %d unmapped after set-up" f))
  in
  let engs = match dev with Seq _ -> engs | Multi _ -> [||] in
  let bes = Array.map Engine.backend engs in
  let cores = Array.map core_of_backend bes in
  let batches make = Array.init (round_pkts + 1) (fun k -> make (max 1 k)) in
  let copy =
    {
      layer;
      w;
      dev;
      engs;
      bes;
      cores;
      flow_id;
      st = rng ~seed ~stream:2;
      seq = Array.make nflows 0;
      last = Array.make nflows (-1);
      pending = Array.copy w.initial;
      npending = Array.length w.initial;
      now = 0.;
      hpkt = Array.make round_pkts dummy_pkt;
      hhdr = Array.make round_pkts dummy_hdr;
      nh = 0;
      flow_arr = [||];
      lpk = Array.init nl (fun _ -> Array.make round_pkts dummy_pkt);
      lhdr = Array.init nl (fun _ -> Array.make round_pkts false);
      lk = Array.make nl 0;
      c_link = Array.make round_pkts 0;
      c_id = Array.make round_pkts 0;
      bb = Array.init nl (fun _ -> batches (fun capacity -> Engine.make_batch ~capacity ()));
      hb = Array.init nl (fun _ -> batches (fun capacity -> Hfsc.batch ~capacity ()));
      rb = Array.init nl (fun _ -> batches (fun capacity -> Sched.Hls.batch ~capacity ()));
      mc_out = Array.init nl (fun _ -> Array.make round_pkts dummy_pkt);
      mc_rt = Array.init nl (fun _ -> Array.make round_pkts false);
      mc_n = Array.make nl 0;
      mc_f = [||];
      offered = 0;
      drained = 0;
      refused = 0;
      rt = 0;
      hfsc_drained = 0;
      digest = 0;
      a_top = acc (layer_name layer);
      a_classify = acc "classify";
      a_hfsc = acc "hfsc";
      a_hls = acc "hls";
      lat = samples ();
    }
  in
  let mc_f =
    Array.init nl (fun l ~pkt ~cls:_ ~rt ->
        let i = copy.mc_n.(l) in
        copy.mc_out.(l).(i) <- pkt;
        copy.mc_rt.(l).(i) <- rt;
        copy.mc_n.(l) <- i + 1)
  in
  { copy with mc_f }

let new_packet c f =
  let size = c.w.sizes.(Random.State.int c.st (Array.length c.w.sizes)) in
  let seq = c.seq.(f) in
  c.seq.(f) <- seq + 1;
  c.offered <- c.offered + 1;
  Pkt.Packet.make ~flow:f ~size ~seq ~arrival:c.now

(* Every leaf gets its prefill, in a seeded order, through the copy's
   own top entry point; not timed. *)
let prefill c =
  let nflows = Array.length c.w.flow_link in
  let order = Array.init nflows Fun.id in
  shuffle c.st order;
  let depth = Array.fold_left max 0 c.w.prefill in
  let pkts =
    Array.concat
      (List.init depth (fun k ->
           Array.of_list
             (List.filter_map
                (fun f -> if c.w.prefill.(f) > k then Some (new_packet c f) else None)
                (Array.to_list order))))
  in
  let accepted =
    match c.dev with
    | Seq r -> Router.enqueue_flow_batch r ~now:0. pkts
    | Multi m -> Mc_router.enqueue_flow_batch m ~now:0. pkts
  in
  c.refused <- c.refused + (Array.length pkts - accepted)

(* Build the round's packets from the flows drained last round: header
   packets first (classified), then the flow-id batch; per link the
   order is the same, so every layer sees the same per-link sequence. *)
let gen_round c =
  let w = c.w in
  Array.fill c.lk 0 (Array.length c.lk) 0;
  c.nh <- 0;
  let flows = Array.make c.npending dummy_pkt in
  let nf = ref 0 in
  for i = 0 to c.npending - 1 do
    let f = c.pending.(i) in
    let p = new_packet c f in
    match w.flow_hdr.(f) with
    | Some h ->
        c.hpkt.(c.nh) <- p;
        c.hhdr.(c.nh) <- h;
        c.nh <- c.nh + 1
    | None ->
        flows.(!nf) <- p;
        incr nf
  done;
  c.flow_arr <- Array.sub flows 0 !nf;
  let put p hdr =
    let l = w.flow_link.(p.Pkt.Packet.flow) in
    c.lpk.(l).(c.lk.(l)) <- p;
    c.lhdr.(l).(c.lk.(l)) <- hdr;
    c.lk.(l) <- c.lk.(l) + 1
  in
  for i = 0 to c.nh - 1 do
    put c.hpkt.(i) true
  done;
  Array.iter (fun p -> put p false) c.flow_arr

let link_index c name =
  let names = c.w.link_names in
  let rec go i = if i = Array.length names then -1 else if names.(i) = name then i else go (i + 1) in
  go 0

(* --- the timed part of a round, one function per entry layer ------------ *)

let enq_ok c ok = if not ok then c.refused <- c.refused + 1

let router_ingress c r =
  for i = 0 to c.nh - 1 do
    let p = c.hpkt.(i) in
    let l = c.c_link.(i) in
    if l >= 0 then enq_ok c (Engine.enqueue c.engs.(l) ~now:c.now c.c_id.(i) p)
    else c.refused <- c.refused + 1
  done;
  let acc = Router.enqueue_flow_batch r ~now:c.now c.flow_arr in
  c.refused <- c.refused + (Array.length c.flow_arr - acc)

let classify_all c r =
  for i = 0 to c.nh - 1 do
    match Router.classify r c.hhdr.(i) with
    | Some (name, id) ->
        c.c_link.(i) <- link_index c name;
        c.c_id.(i) <- id
    | None -> c.c_link.(i) <- -1
  done

let engine_drain c =
  for l = 0 to Array.length c.engs - 1 do
    let k = c.lk.(l) in
    if k > 0 then ignore (Engine.dequeue_batch c.engs.(l) ~now:c.now c.bb.(l).(k))
  done

let mc_round c m =
  let acc = Mc_router.enqueue_flow_batch m ~now:c.now c.flow_arr in
  c.refused <- c.refused + (Array.length c.flow_arr - acc);
  let names = c.w.link_names in
  for l = 0 to Array.length names - 1 do
    c.mc_n.(l) <- 0;
    if c.lk.(l) > 0 then
      ignore (Mc_router.post_dequeue m ~link:names.(l) ~now:c.now ~max:c.lk.(l))
  done;
  for l = 0 to Array.length names - 1 do
    if c.lk.(l) > 0 then ignore (Mc_router.finish_dequeue m ~link:names.(l) ~f:c.mc_f.(l))
  done

let engine_round c =
  for l = 0 to Array.length c.engs - 1 do
    let e = c.engs.(l) in
    for i = 0 to c.lk.(l) - 1 do
      let p = c.lpk.(l).(i) in
      if c.lhdr.(l).(i) then enq_ok c (Engine.enqueue e ~now:c.now c.flow_id.(p.Pkt.Packet.flow) p)
      else enq_ok c (Engine.enqueue_flow e ~now:c.now p)
    done
  done;
  engine_drain c

let backend_round c =
  for l = 0 to Array.length c.bes - 1 do
    let b = c.bes.(l) in
    let k = c.lk.(l) in
    for i = 0 to k - 1 do
      let p = c.lpk.(l).(i) in
      enq_ok c (b.Backend.enqueue ~now:c.now c.flow_id.(p.Pkt.Packet.flow) p)
    done;
    if k > 0 then ignore (b.Backend.deq_fill ~now:c.now c.bb.(l).(k))
  done

let core_link c l =
  let k = c.lk.(l) in
  match c.cores.(l) with
  | Hc (h, cls) ->
      for i = 0 to k - 1 do
        let p = c.lpk.(l).(i) in
        enq_ok c (Hfsc.enqueue h ~now:c.now cls.(c.flow_id.(p.Pkt.Packet.flow)) p)
      done;
      if k > 0 then ignore (Hfsc.dequeue_batch h ~now:c.now c.hb.(l).(k))
  | Lc (h, cls) ->
      for i = 0 to k - 1 do
        let p = c.lpk.(l).(i) in
        enq_ok c (Sched.Hls.enqueue h ~now:c.now cls.(c.flow_id.(p.Pkt.Packet.flow)) p)
      done;
      if k > 0 then ignore (Sched.Hls.dequeue_batch h ~now:c.now c.rb.(l).(k))

(* One round at the copy's layer. [record] is false during warm-up.
   The e2e copy is timed as a whole; a traced copy records one span per
   layer boundary it crosses. *)
let run_round c ~record =
  gen_round c;
  let npk = c.npending in
  (match c.layer with
  | E2e ->
      let t0 = span_begin () and w0 = Gc.minor_words () in
      (match c.dev with
      | Seq r ->
          classify_all c r;
          router_ingress c r;
          engine_drain c
      | Multi m -> mc_round c m);
      let t1 = now_ns () in
      if record then begin
        span_end c.a_top t0 w0 npk;
        add c.lat (float_of_int (t1 - t0) /. 1e3)
      end
  | Mc ->
      let t0 = span_begin () and w0 = Gc.minor_words () in
      (match c.dev with Multi m -> mc_round c m | Seq _ -> assert false);
      if record then span_end c.a_top t0 w0 npk
  | Router_l ->
      let r = match c.dev with Seq r -> r | Multi _ -> assert false in
      let t0 = span_begin () and w0 = Gc.minor_words () in
      classify_all c r;
      if record then span_end c.a_classify t0 w0 c.nh;
      let t0 = span_begin () and w0 = Gc.minor_words () in
      router_ingress c r;
      engine_drain c;
      if record then span_end c.a_top t0 w0 npk
  | Engine_l ->
      let t0 = span_begin () and w0 = Gc.minor_words () in
      engine_round c;
      if record then span_end c.a_top t0 w0 npk
  | Backend_l ->
      let t0 = span_begin () and w0 = Gc.minor_words () in
      backend_round c;
      if record then span_end c.a_top t0 w0 npk
  | Core_l ->
      for l = 0 to Array.length c.cores - 1 do
        let a = match c.cores.(l) with Hc _ -> c.a_hfsc | Lc _ -> c.a_hls in
        let t0 = span_begin () and w0 = Gc.minor_words () in
        core_link c l;
        if record then span_end a t0 w0 c.lk.(l)
      done)

(* --- after the timer: read the drained packets and check them ------------- *)

let settle c v =
  let next = Array.make round_pkts 0 in
  let nn = ref 0 in
  let max_dt = ref 0. in
  for l = 0 to Array.length c.w.link_names - 1 do
    let k = c.lk.(l) in
    let got, pkt_at, rt_at =
      match (c.layer, c.dev) with
      | _, Multi _ ->
          (c.mc_n.(l), (fun i -> c.mc_out.(l).(i)), fun i -> c.mc_rt.(l).(i))
      | Core_l, _ -> (
          match c.cores.(l) with
          | Hc _ ->
              let b = c.hb.(l).(k) in
              ( (if k = 0 then 0 else Hfsc.batch_count b),
                Hfsc.batch_pkt b,
                fun i -> Hfsc.batch_crit b i = Hfsc.Realtime )
          | Lc _ ->
              let b = c.rb.(l).(k) in
              ((if k = 0 then 0 else Sched.Hls.batch_count b), Sched.Hls.batch_pkt b, fun _ -> false))
      | _ ->
          let b = c.bb.(l).(k) in
          ((if k = 0 then 0 else Backend.batch_count b), Backend.batch_pkt b, Backend.batch_realtime b)
    in
    check v (got = k) "%s: link %s drained %d of %d offered" (layer_name c.layer)
      c.w.link_names.(l) got k;
    let bytes = ref 0 in
    for i = 0 to got - 1 do
      let p = pkt_at i in
      let f = p.Pkt.Packet.flow in
      v.attempted <- v.attempted + 1;
      check v (c.w.flow_link.(f) = l) "flow %d drained from link %s, not its owner" f
        c.w.link_names.(l);
      check v (p.Pkt.Packet.seq = c.last.(f) + 1) "flow %d out of order: seq %d after %d" f
        p.Pkt.Packet.seq c.last.(f);
      c.last.(f) <- p.Pkt.Packet.seq;
      if c.w.link_kinds.(l) = Hfsc_link then begin
        c.hfsc_drained <- c.hfsc_drained + 1;
        if rt_at i then c.rt <- c.rt + 1
      end;
      c.digest <- Hashtbl.hash (c.digest, f, p.Pkt.Packet.seq);
      bytes := !bytes + p.Pkt.Packet.size;
      if !nn < round_pkts then begin
        next.(!nn) <- f;
        incr nn
      end
    done;
    c.drained <- c.drained + got;
    max_dt := Float.max !max_dt (float_of_int !bytes /. link_rate)
  done;
  (* classify agrees with the directory, for every header of the round *)
  let classified = match c.dev with Seq _ -> c.layer = Router_l || c.layer = E2e | Multi _ -> false in
  if classified then
    for i = 0 to c.nh - 1 do
      let f = c.hpkt.(i).Pkt.Packet.flow in
      check v
        (c.c_link.(i) = c.w.flow_link.(f) && c.c_id.(i) = c.flow_id.(f))
        "classify sent flow %d to link %d class %d" f c.c_link.(i) c.c_id.(i)
    done;
  c.pending <- next;
  c.npending <- !nn;
  c.now <- c.now +. !max_dt

(* Backlog as the copy's own layer sees it. *)
let backlog c =
  match (c.dev, c.layer) with
  | Seq _, Core_l ->
      Array.fold_left
        (fun a -> function
          | Hc (h, _) -> a + Hfsc.backlog_pkts h
          | Lc (h, _) -> a + Sched.Hls.backlog_pkts h)
        0 c.cores
  | Seq _, Backend_l -> Array.fold_left (fun a b -> a + b.Backend.backlog_pkts ()) 0 c.bes
  | Seq _, _ -> Array.fold_left (fun a e -> a + Engine.backlog_pkts e) 0 c.engs
  | Multi m, _ ->
      Array.fold_left
        (fun a n -> a + match Mc_router.backlog m ~link:n with Some (p, _) -> p | None -> 0)
        0 c.w.link_names

(* End-of-run checks: conservation and the device's own auditor. *)
let finish c v =
  let bl = backlog c in
  check v
    (c.offered = c.drained + bl + c.refused)
    "%s: conservation: offered %d <> drained %d + backlog %d + refused %d"
    (layer_name c.layer) c.offered c.drained bl c.refused;
  check v (c.refused = 0) "%s: %d packets refused or unroutable" (layer_name c.layer) c.refused;
  let problems =
    match c.dev with
    | Seq r -> if c.layer = Core_l || c.layer = Backend_l then [] else Router.audit r
    | Multi m -> Mc_router.audit m
  in
  List.iter (fun p -> check v false "%s: audit: %s" (layer_name c.layer) p) problems;
  let core_problems =
    Array.to_list c.bes |> List.concat_map (fun b -> b.Backend.audit ())
  in
  List.iter (fun p -> check v false "%s: scheduler audit: %s" (layer_name c.layer) p) core_problems;
  bl

let stop c = match c.dev with Multi m -> ignore (Mc_router.stop m) | Seq _ -> ()

(* --- set-up and restore timings ------------------------------------------ *)

(* Time [w.builds] builds of the device through its command lines. *)
let setup_times w =
  List.init w.builds (fun _ ->
      let times = samples () in
      (if w.multicore then begin
         let m = timed times (fun () -> Mc_router.create ~domains:1 ()) in
         timed_chunks times (exec_lines (Mc_router.exec m)) w.lines;
         ignore (Mc_router.stop m)
       end
       else
         let r = timed times Router.create in
         timed_chunks times (exec_lines (Router.exec r)) w.lines);
      times)

(* Restore the device from its own checkpoint into a fresh router of the
   same kind and check the fingerprint: the in-process counterpart of a
   daemon restart. Returns the times of its steps. *)
let restore_times c v =
  let times = samples () in
  let ok = ref true in
  let replay exec chunk =
    let res = exec chunk in
    ok := !ok && List.length res = List.length chunk && List.for_all (fun (_, _, r) -> Result.is_ok r) res
  in
  let fp, fp' =
    match c.dev with
    | Seq r ->
        let r' = timed times Router.create in
        timed_chunks times (replay (Router.exec_script r')) (Router.checkpoint r);
        (Router.config_fingerprint r, timed times (fun () -> Router.config_fingerprint r'))
    | Multi m ->
        let m' = timed times (fun () -> Mc_router.create ~domains:1 ()) in
        timed_chunks times (replay (Mc_router.exec_script m')) (Mc_router.checkpoint m);
        let fp' = timed times (fun () -> Mc_router.config_fingerprint m') in
        ignore (Mc_router.stop m');
        (Mc_router.config_fingerprint m, fp')
  in
  check v !ok "restore: checkpoint replay refused a line";
  check v (fp' = fp) "restore: fingerprint %s <> %s" fp' fp;
  times
