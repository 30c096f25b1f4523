(* The JSON printer against its reference (test/json_ref.ml, the
   printer before it wrote numbers, pads and escapes straight into the
   buffer): byte-identical output on the edge cases, on random trees,
   and on the committed bench baseline parsed and printed again. *)

module J = Json_lite
module G = QCheck2.Gen

let same what v =
  Alcotest.(check string) what (Json_ref.to_string v) (J.to_string v)

(* [%.0f] and [%.17g] disagree with a naive integer path exactly here:
   the sign of zero, the 1e15 switch-over, negatives, non-integers. *)
let edge_nums =
  [
    0.; -0.; 1.; -1.; 7.; -42.; 1e15; -1e15; 1e15 -. 1.; -.(1e15 -. 1.);
    999_999_999_999_999.5; 1e15 +. 2.; 4_503_599_627_370_496.; 9.007199254740993e15;
    0.5; -0.5; -2.5; 0.1; 1e-7; -1e-300; 5e-324; 1e300; -1.7976931348623157e308;
    123456789.125; 1234.; max_float; min_float; float_of_int max_int;
    float_of_int min_int;
  ]

let edge_strs =
  [ ""; "plain"; "\""; "\\"; "\n"; "a\"b\\c\nd"; "\"\"\\\\\n\n"; "tab\there"; "\r" ]

let test_edges () =
  List.iter (fun f -> same (Printf.sprintf "%h" f) (J.Num f)) edge_nums;
  List.iter (fun s -> same (Printf.sprintf "%S" s) (J.Str s)) edge_strs;
  List.iter
    (fun s -> same (Printf.sprintf "key %S" s) (J.Obj [ (s, J.Str s) ]))
    edge_strs;
  same "empty containers" (J.List [ J.List []; J.Obj []; J.Null; J.Bool true ]);
  (* deeper than the printer's run of spaces *)
  let rec nest n v = if n = 0 then v else nest (n - 1) (J.List [ v ]) in
  same "deep nesting" (nest 70 (J.Obj [ ("x", J.Num (-0.)) ]))

let num_gen =
  G.oneof
    [
      G.oneofl edge_nums;
      G.map float_of_int (G.int_range (-1_000_000) 1_000_000);
      G.map float_of_int (G.int_range (-2_000_000_000_000_000) 2_000_000_000_000_000);
      G.map float_of_int G.int;
      G.map (fun f -> if Float.is_finite f then f else 0.25) G.float;
    ]

let str_gen =
  G.string_size
    ~gen:(G.oneof [ G.oneofl [ '"'; '\\'; '\n'; ' '; 'a' ]; G.char ])
    (G.int_bound 12)

let tree_gen =
  G.sized
  @@ G.fix (fun self n ->
         let leaf =
           G.oneof
             [
               G.return J.Null;
               G.map (fun b -> J.Bool b) G.bool;
               G.map (fun f -> J.Num f) num_gen;
               G.map (fun s -> J.Str s) str_gen;
             ]
         in
         if n <= 0 then leaf
         else
           G.frequency
             [
               (2, leaf);
               (1, G.map (fun l -> J.List l) (G.list_size (G.int_bound 4) (self (n / 3))));
               ( 1,
                 G.map
                   (fun l -> J.Obj l)
                   (G.list_size (G.int_bound 4) (G.pair str_gen (self (n / 3)))) );
             ])

let random_trees =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"printer = reference on random trees"
       ~print:Json_ref.to_string tree_gen (fun v ->
         J.to_string v = Json_ref.to_string v))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_bench_baseline () =
  let text = read_file "../BENCH_hfsc.json" in
  let v = J.parse text in
  Alcotest.(check string) "parse then print gives the file back" text (J.to_string v);
  same "and equals the reference" v

let () =
  Alcotest.run "json"
    [
      ( "printer",
        [
          Alcotest.test_case "edge cases" `Quick test_edges;
          random_trees;
          Alcotest.test_case "BENCH_hfsc.json round trip" `Quick
            test_bench_baseline;
        ] );
    ]
