(* Tests for the configuration DSL (lib/config): statements lower onto
   commands and load through a router's exec. *)

let qt ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let ok = function Ok v -> v | Error e -> Alcotest.fail e
let err = function Ok _ -> Alcotest.fail "expected error" | Error e -> e

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

(* --- unit parsing (the command grammar's token parsers) ------------- *)

module C = Runtime.Command
module E = Runtime.Engine

let test_rates () =
  Alcotest.(check (float 1e-9)) "Mbit" 5_625_000. (ok (C.parse_rate "45Mbit"));
  Alcotest.(check (float 1e-9)) "Kbit" 8_000. (ok (C.parse_rate "64Kbit"));
  Alcotest.(check (float 1e-9)) "Gbit" 125_000_000. (ok (C.parse_rate "1Gbit"));
  Alcotest.(check (float 1e-9)) "bps" 1000. (ok (C.parse_rate "8000bps"));
  Alcotest.(check (float 1e-9)) "MBps" 2_500_000. (ok (C.parse_rate "2.5MBps"));
  Alcotest.(check (float 1e-9)) "Bps" 42. (ok (C.parse_rate "42Bps"));
  Alcotest.(check bool) "missing unit" true
    (contains (err (C.parse_rate "100")) "unit");
  Alcotest.(check bool) "negative" true
    (contains (err (C.parse_rate "-5Mbit")) "non-negative")

let test_times () =
  Alcotest.(check (float 1e-12)) "ms" 0.005 (ok (C.parse_time "5ms"));
  Alcotest.(check (float 1e-12)) "us" 2e-5 (ok (C.parse_time "20us"));
  Alcotest.(check (float 1e-12)) "s" 1.5 (ok (C.parse_time "1.5s"));
  Alcotest.(check bool) "missing unit" true
    (contains (err (C.parse_time "7")) "unit")

(* --- whole configurations ------------------------------------------- *)

(* Load [text] the one way there is: parse, then apply into a fresh
   router. *)
let load text =
  match Config.parse text with
  | Error e -> Error e
  | Ok cfg ->
      let r = Runtime.Router.create () in
      Result.map
        (fun () -> (cfg, r))
        (Config.apply cfg ~exec:(Runtime.Router.exec r ~now:0.))

let sole_link r =
  match Runtime.Router.links r with
  | [ (_, eng) ] -> eng
  | _ -> Alcotest.fail "expected one link"

let minimal =
  {|
link rate 8Mbit
class a parent root flow 1 fsc 4Mbit
class b parent root flow 2 fsc 4Mbit
source cbr flow 1 rate 1Mbit pkt 500
source greedy flow 2 rate 8Mbit pkt 1000
|}

let test_minimal () =
  let cfg, r = ok (load minimal) in
  (* each statement lowers onto one command, tagged with its line *)
  Alcotest.(check (list (pair int string)))
    "lowered commands"
    [
      (2, "link add link0 rate 1000000Bps");
      (3, "link link0 add class a parent root flow 1 fsc 500000Bps");
      (4, "link link0 add class b parent root flow 2 fsc 500000Bps");
    ]
    (List.map
       (fun (line, c) -> (line, Format.asprintf "%a" C.pp c))
       cfg.Config.commands);
  let eng = sole_link r in
  Alcotest.(check (float 1e-9)) "link" 1e6 (E.link_rate eng);
  Alcotest.(check (list int)) "two flows" [ 1; 2 ]
    (List.sort compare (E.flows eng));
  Alcotest.(check int) "two sources" 2
    (List.length (cfg.Config.sources ~until:1.))

let test_hierarchy_and_curves () =
  let _, r =
    ok
      (load
         {|
link rate 45Mbit
class cmu parent root fsc 25Mbit
class audio parent cmu flow 1 rsc umax 160 dmax 5ms rate 64Kbit
class capped parent cmu flow 2 fsc m1 1Mbit d 10ms m2 2Mbit ulimit 3Mbit qlimit 50
|})
  in
  let sched = E.scheduler (sole_link r) in
  let cls name =
    match Hfsc.find_class sched name with
    | Some c -> c
    | None -> Alcotest.failf "no class %s" name
  in
  let audio = cls "audio" in
  (match Hfsc.rsc audio with
  | Some sc ->
      Alcotest.(check bool) "concave rsc" true
        (Curve.Service_curve.is_concave sc);
      Alcotest.(check (float 1e-6)) "rate" 8000. (Curve.Service_curve.rate sc)
  | None -> Alcotest.fail "audio should have an rsc");
  let capped = cls "capped" in
  (match Hfsc.fsc capped with
  | Some sc ->
      Alcotest.(check (float 1e-6)) "m2" 250_000. (Curve.Service_curve.rate sc)
  | None -> Alcotest.fail "capped should have an fsc");
  Alcotest.(check bool) "usc present" true (Hfsc.usc capped <> None);
  (* parent chain *)
  match Hfsc.parent audio with
  | Some p -> Alcotest.(check string) "parent" "cmu" (Hfsc.name p)
  | None -> Alcotest.fail "expected parent"

let test_comments_and_whitespace () =
  let _, r =
    ok
      (load
         "  # leading comment\n\
          link   rate\t8Mbit   # trailing\n\
          \n\
          class a parent root flow 1 fsc 8Mbit\n\
          source cbr flow 1 rate 1Mbit pkt 100\n")
  in
  Alcotest.(check (list int)) "parsed" [ 1 ] (E.flows (sole_link r))

(* Every load error reads FILE:LINE: CODE: message — syntax as
   [parse-error], a statement the control plane refuses with the
   engine's own code. *)
let expect_error text prefix =
  let e = err (load text) in
  Alcotest.(check bool)
    (Printf.sprintf "%S starts %S" e prefix)
    true
    (String.starts_with ~prefix e)

let test_errors () =
  expect_error "class a parent root fsc 1Mbit" "-: parse-error: missing 'link";
  expect_error "link rate 1Mbit\nlink rate 2Mbit" "-:2: parse-error:";
  expect_error "link rate 1Mbit\nclass a parent nosuch fsc 1Mbit"
    "-:2: unknown-class:";
  expect_error
    "link rate 1Mbit\nclass a parent root fsc 1Mbit\nclass a parent root fsc 1Mbit"
    "-:3: duplicate-class:";
  expect_error "link rate 1Mbit\nclass a parent root flow 1 fsc 1Mbit\n\
                class b parent root flow 1 fsc 1Mbit"
    "-:3: duplicate-flow:";
  expect_error "link rate 1Mbit\nbogus stuff" "-:2: parse-error: unknown statement";
  expect_error "link rate 1Mbit\nclass a parent root flow 1 fsc 1Mbit\n\
                source cbr flow 2 rate 1Mbit pkt 10"
    "-:3: parse-error: source refers to unmapped flow";
  expect_error "link rate 1Mbit\nclass a parent root flow 1 fsc 1Mbit\n\
                source poisson flow 1 rate 1Mbit pkt 10"
    "-:3: parse-error: poisson source needs rate, pkt and seed";
  expect_error "link rate 1Mbit\nclass a parent root flow 1 fsc 1Mbit\n\
                source warp flow 1 rate 1Mbit pkt 10"
    "-:3: parse-error: unknown source kind";
  expect_error "link rate 1Mbit\nclass a parent root fsc nounits" "-:2: parse-error:";
  (* a curve-less hfsc class reaches the engine, which refuses it *)
  expect_error "link rate 1Mbit\nclass a parent root flow 1" "-:2: structural:";
  expect_error "link rate 1Mbit\nlimit pkts 10\nlimit bytes 10" "-:3: parse-error:";
  (* a loaded file names itself *)
  match Config.load "/nonexistent/x.hfsc" with
  | Ok _ -> Alcotest.fail "loaded a missing file"
  | Error e -> Alcotest.(check bool) "names the file" true (contains e "x.hfsc")

let test_end_to_end_sim () =
  (* a loaded config must actually run and respect its curves (the rt
     leaf spells out a linear fsc: its rsc-derived concave one would
     push the root's link-sharing sum past the link at 5 ms) *)
  let cfg, r =
    ok
      (load
         {|
link rate 8Mbit
class rt parent root flow 1 rsc umax 160 dmax 5ms rate 64Kbit fsc 64Kbit
class be parent root flow 2 fsc 7.936Mbit
source cbr flow 1 rate 64Kbit pkt 160
source greedy flow 2 rate 8Mbit pkt 1000
|})
  in
  let eng = sole_link r in
  let sim =
    Netsim.Sim.create ~link_rate:(E.link_rate eng) ~sched:(E.to_scheduler eng) ()
  in
  List.iter (Netsim.Sim.add_source sim) (cfg.Config.sources ~until:3.);
  Netsim.Sim.run sim ~until:3.;
  match Netsim.Sim.delay_of_flow sim 1 with
  | Some d ->
      Alcotest.(check bool) "rt guarantee honored" true
        (Netsim.Stats.Delay.max d <= 0.005 +. (1000. /. 1e6) +. 1e-9)
  | None -> Alcotest.fail "no rt packets"

(* sources from a config are freshly instantiated on each call *)
let test_sources_fresh () =
  let cfg = ok (Config.parse minimal) in
  let take srcs =
    List.map
      (fun s ->
        match Netsim.Source.next s with Some (t, _) -> t | None -> -1.)
      srcs
  in
  let a = take (cfg.Config.sources ~until:1.) in
  let b = take (cfg.Config.sources ~until:1.) in
  Alcotest.(check (list (float 0.))) "identical fresh streams" a b

(* What the runtime would refuse, a configuration refuses at load —
   nothing is built that a restart could not rebuild. *)
let test_inadmissible_refused () =
  (* two 8 Mbit real-time leaves on a 10 Mbit link *)
  expect_error
    "link rate 10Mbit\nclass a parent root flow 1 rsc 8Mbit\n\
     class b parent root flow 2 rsc 8Mbit\n"
    "-:3: admission-realtime:";
  (* children outgrow their parent's fair curve *)
  expect_error
    "link rate 10Mbit\nclass p parent root fsc 2Mbit\n\
     class a parent p flow 1 fsc 2Mbit\nclass b parent p flow 2 fsc 2Mbit\n"
    "-:4: admission-linkshare:";
  (* a ulimit below the class's own rsc *)
  expect_error
    "link rate 10Mbit\nclass a parent root flow 1 rsc 2Mbit ulimit 1Mbit\n"
    "-:2: admission-ulimit:";
  (* a leaf without a source is workload, not configuration: it loads *)
  ignore (ok (load "link rate 1Mbit\nclass a parent root flow 1 fsc 1Mbit\n"))

(* --- multi-link (sectioned) configurations ------------------------- *)

let multi_text =
  {|
link west rate 8Mbit
class a parent root flow 1 fsc 4Mbit
class g parent root fsc 2Mbit
class g1 parent g flow 2 fsc 1Mbit
limit pkts 100

link east rate 4Mbit
class b parent root flow 3 fsc 2Mbit

source cbr flow 1 rate 1Mbit pkt 500
source cbr flow 3 rate 1Mbit pkt 500
|}

let test_multi_link_sections () =
  let _, r = ok (load multi_text) in
  let links = Runtime.Router.links r in
  Alcotest.(check (list string)) "names in file order" [ "west"; "east" ]
    (List.map fst links);
  let west = List.assoc "west" links and east = List.assoc "east" links in
  Alcotest.(check (float 1e-9)) "west rate" 1e6 (E.link_rate west);
  Alcotest.(check (float 1e-9)) "east rate" 5e5 (E.link_rate east);
  (* classes bind to the section they follow *)
  Alcotest.(check int) "west classes (incl. root)" 4
    (List.length (Hfsc.classes (E.scheduler west)));
  Alcotest.(check int) "east classes (incl. root)" 2
    (List.length (Hfsc.classes (E.scheduler east)));
  (* limit binds to its section too *)
  Alcotest.(check int) "west aggregate limit" 100
    (Hfsc.aggregate_limit_pkts (E.scheduler west));
  (* flow maps are per link, flow ids device-wide unique *)
  Alcotest.(check (list int)) "west flows" [ 1; 2 ]
    (List.sort compare (E.flows west));
  Alcotest.(check (list int)) "east flows" [ 3 ] (E.flows east);
  (* a single-link file reads in any order: its link is hoisted *)
  let _, one = ok (load "class a parent root flow 1 fsc 1Mbit\nlink rate 2Mbit\n") in
  Alcotest.(check (list int)) "hoisted link" [ 1 ] (E.flows (sole_link one))

let test_multi_link_errors () =
  (* every link after the first needs a name *)
  expect_error "link west rate 1Mbit\nlink rate 2Mbit" "-:2: parse-error:";
  expect_error
    "link a rate 1Mbit\nclass x parent root fsc 1Mbit\n\
     link a rate 2Mbit\nclass y parent root fsc 1Mbit"
    "-:3: duplicate-link:";
  (* router verbs cannot name a link *)
  expect_error "link add rate 1Mbit" "-:1: bad-value:";
  expect_error "link list rate 1Mbit" "-:1: bad-value:";
  (* with several links, every class must fall inside a section (a
     single-link file keeps the order-insensitive reading) *)
  expect_error
    "class a parent root fsc 1Mbit\nlink west rate 1Mbit\n\
     link east rate 1Mbit\nclass b parent root fsc 1Mbit"
    "-:1: parse-error:";
  (* flow ids are device-wide unique across links *)
  expect_error
    "link a rate 1Mbit\nclass x parent root flow 1 fsc 1Mbit\n\
     link b rate 1Mbit\nclass y parent root flow 1 fsc 1Mbit"
    "-:4: duplicate-flow:";
  (* sources resolve against every link's flows *)
  expect_error
    "link a rate 1Mbit\nclass x parent root flow 1 fsc 1Mbit\n\
     link b rate 1Mbit\nclass y parent root flow 2 fsc 1Mbit\n\
     source cbr flow 9 rate 1Kbit pkt 100"
    "-:5: parse-error:"

let roundtrip_rate =
  qt "rate parsing scales linearly"
    QCheck2.Gen.(float_range 0.001 10_000.)
    (fun v ->
      let s = Printf.sprintf "%.6fMbit" v in
      match Runtime.Command.parse_rate s with
      | Ok r -> Float.abs (r -. (v *. 1e6 /. 8.)) < 1e-3 *. v *. 1e6
      | Error _ -> false)

let () =
  Alcotest.run "config"
    [
      ( "units",
        [
          Alcotest.test_case "rates" `Quick test_rates;
          Alcotest.test_case "times" `Quick test_times;
          roundtrip_rate;
        ] );
      ( "configs",
        [
          Alcotest.test_case "minimal" `Quick test_minimal;
          Alcotest.test_case "hierarchy + curves" `Quick
            test_hierarchy_and_curves;
          Alcotest.test_case "comments/whitespace" `Quick
            test_comments_and_whitespace;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "end-to-end simulation" `Quick
            test_end_to_end_sim;
          Alcotest.test_case "sources are fresh" `Quick test_sources_fresh;
          Alcotest.test_case "inadmissible statements refused" `Quick
            test_inadmissible_refused;
          Alcotest.test_case "multi-link sections" `Quick
            test_multi_link_sections;
          Alcotest.test_case "multi-link errors" `Quick test_multi_link_errors;
        ] );
    ]
