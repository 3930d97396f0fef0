(* Tests of the benchmark's own helpers: metric names, order
   statistics, span self-time, the verdict reference, and agreement of
   the metric catalog with BENCHMARK.json. *)

open Perfbench

let check_float msg expected actual =
  Alcotest.(check (float 1e-9)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Metric names                                                         *)

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) ("valid " ^ n) true (Metric.valid_name n))
    [ "setup_s"; "soak.scenario_p50_us.read-heavy"; "9lives"; String.make 64 'a' ];
  List.iter
    (fun n -> Alcotest.(check bool) ("invalid " ^ n) false (Metric.valid_name n))
    [ ""; "_x"; ".x"; "-x"; "a b"; "a/b"; "ä"; String.make 65 'a' ];
  List.iter
    (fun u -> Alcotest.(check bool) ("valid unit " ^ u) true (Metric.valid_unit u))
    [ "ms"; "s"; "1/s"; "%"; "words/op"; "count" ];
  List.iter
    (fun u -> Alcotest.(check bool) ("invalid unit " ^ u) false (Metric.valid_unit u))
    [ ""; "m s"; String.make 17 'x'; "a:b" ]

let test_catalog_checks () =
  let m name unit = { Metric.name; unit } in
  Alcotest.(check bool) "catalog ok" true
    (Metric.check_catalog (Catalog.end_to_end @ Catalog.per_layer) = Ok ());
  Alcotest.(check bool) "duplicate refused" true
    (Result.is_error (Metric.check_catalog [ m "a" "s"; m "a" "ms" ]));
  Alcotest.(check bool) "bad unit refused" true
    (Result.is_error (Metric.check_catalog [ m "a" "m s" ]))

let test_result_line () =
  let cat = [ { Metric.name = "a_s"; unit = "s" }; { Metric.name = "n"; unit = "count" } ] in
  Alcotest.(check string) "line"
    "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"a_s\":{\"value\":0.25,\"unit\":\"s\"},\"n\":{\"value\":7,\"unit\":\"count\"}}}"
    (Metric.result_line ~correct:true ~attempted:3 ~failed:0 ~catalog:cat
       [ ("n", 7.); ("a_s", 0.25) ]);
  Alcotest.check_raises "missing metric"
    (Invalid_argument "Metric.result_line: missing metric n") (fun () ->
      ignore (Metric.result_line ~correct:true ~attempted:1 ~failed:0 ~catalog:cat [ ("a_s", 1.) ]));
  Alcotest.check_raises "non-finite"
    (Invalid_argument "Metric.json_number: non-finite value") (fun () ->
      ignore (Metric.json_number Float.nan))

(* ------------------------------------------------------------------ *)
(* Median / quartiles                                                   *)

let test_median () =
  check_float "odd" 3. (Stats.median [ 5.; 1.; 3. ]);
  check_float "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  check_float "single" 7. (Stats.median [ 7. ])

(* Reference values from Python 3: statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q xs = Stats.quantiles ~n:4 xs in
  Alcotest.(check (list (float 1e-9))) "1..10" [ 2.75; 5.5; 8.25 ]
    (q (List.init 10 (fun i -> float_of_int (i + 1))));
  (* Python extrapolates past the data when there are few samples. *)
  Alcotest.(check (list (float 1e-9))) "two samples" [ 0.75; 1.5; 2.25 ] (q [ 2.; 1. ]);
  Alcotest.(check (list (float 1e-9))) "three samples" [ 1.; 2.; 3. ] (q [ 3.; 1.; 2. ]);
  (* Python refuses a single sample; the helper repeats it. *)
  Alcotest.(check (list (float 1e-9))) "one sample" [ 4.; 4.; 4. ] (q [ 4. ]);
  check_float "iqr" 5.5 (Stats.iqr (List.init 10 (fun i -> float_of_int (i + 1))));
  check_float "iqr of equal samples" 0. (Stats.iqr [ 3.; 3.; 3. ])

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "p50" 50. (Stats.percentile 50. xs);
  check_float "p99" 99. (Stats.percentile 99. xs);
  check_float "p100" 100. (Stats.percentile 100. xs);
  check_float "p0" 1. (Stats.percentile 0. xs);
  check_float "safe_div" 0. (Stats.safe_div 1. 0.)

(* ------------------------------------------------------------------ *)
(* Self time                                                            *)

let span ?parent ?(trace = 0) ~id ~layer t0 t1 =
  { Spans.id; parent; trace; layer; name = layer; t0; t1 }

let self_of spans id =
  snd (List.find (fun ((s : Spans.span), _) -> s.Spans.id = id) (Spans.self_times spans))

let test_self_nested () =
  let spans =
    [
      span ~id:0 ~layer:"harness" 0. 10.;
      span ~id:1 ~parent:0 ~layer:"corpus" 2. 4.;
      span ~id:2 ~parent:0 ~layer:"observe" 6. 7.;
    ]
  in
  check_float "parent self" 7. (self_of spans 0);
  check_float "child self" 2. (self_of spans 1);
  Alcotest.(check (list (pair string (float 1e-9))))
    "per layer"
    [ ("harness", 7.); ("corpus", 2.); ("observe", 1.) ]
    (Spans.layer_self spans)

let test_self_overlapping () =
  (* Children overlapping each other and running past the parent's end
     are charged once, inside the parent. *)
  let spans =
    [
      span ~id:0 ~layer:"harness" 0. 10.;
      span ~id:1 ~parent:0 ~layer:"corpus" 1. 5.;
      span ~id:2 ~parent:0 ~layer:"corpus" 3. 6.;
      span ~id:3 ~parent:0 ~layer:"corpus" 8. 12.;
    ]
  in
  check_float "parent self" 3. (self_of spans 0);
  check_float "union" 7. (Spans.union_length [ (1., 5.); (3., 6.); (8., 10.) ])

let test_self_zero_width () =
  let spans =
    [
      span ~id:0 ~layer:"harness" 5. 5.;
      span ~id:1 ~parent:0 ~layer:"core" 5. 5.;
      span ~id:2 ~layer:"runtime" 0. 2.;
      span ~id:3 ~parent:2 ~layer:"px86" 1. 1.;
    ]
  in
  check_float "zero-width parent" 0. (self_of spans 0);
  check_float "zero-width child" 0. (self_of spans 1);
  check_float "parent of zero-width child" 2. (self_of spans 2);
  check_float "inverted interval" 0. (Spans.union_length [ (3., 1.) ])

let test_uncovered () =
  let spans =
    [ span ~id:0 ~layer:"harness" 1. 4.; span ~id:1 ~parent:0 ~layer:"corpus" 2. 3.;
      span ~id:2 ~layer:"observe" 6. 7. ]
  in
  check_float "gaps" 6. (Spans.uncovered ~t0:0. ~t1:10. spans);
  check_float "clipped" 0. (Spans.uncovered ~t0:2. ~t1:3. spans)

let test_recorder () =
  let tr = Spans.create () in
  Spans.with_span tr ~layer:"off" ~name:"x" (fun () -> ());
  Alcotest.(check int) "disabled records nothing" 0 (List.length (Spans.spans tr));
  Spans.set_enabled tr true;
  Spans.set_trace tr 4;
  let v =
    Spans.with_span tr ~layer:"harness" ~name:"outer" (fun () ->
        Spans.with_span tr ~layer:"corpus" ~name:"inner" (fun () -> 42))
  in
  Alcotest.(check int) "value" 42 v;
  (match Spans.spans tr with
  | [ inner; outer ] ->
      Alcotest.(check (option int)) "inner parent" (Some outer.Spans.id) inner.Spans.parent;
      Alcotest.(check (option int)) "outer parent" None outer.Spans.parent;
      Alcotest.(check int) "trace id" 4 inner.Spans.trace
  | _ -> Alcotest.fail "expected two spans");
  (* A raising call still closes its span. *)
  (try Spans.with_span tr ~layer:"core" ~name:"boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "span closed on raise" 3 (List.length (Spans.spans tr));
  let other =
    Domain.join
      (Domain.spawn (fun () ->
           Spans.with_span tr ~layer:"core" ~name:"elsewhere" (fun () -> ());
           List.length (Spans.spans tr)))
  in
  Alcotest.(check int) "other domains do not record" 3 other

(* ------------------------------------------------------------------ *)
(* Verdict reference                                                    *)

let sample_ref =
  {|# comment
w | A | race | f1
w | A | benign | f0

w | B | none |
v | A | race | g
|}

let test_reference_parse () =
  match Reference.parse sample_ref with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check (list string)) "units" [ "A"; "B" ] (Reference.units r ~workload:"w");
      Alcotest.(check bool) "exact set" true
        (Reference.matches r ~workload:"w" ~unit:"A"
           [ ("f1", Reference.Race); ("f0", Reference.Benign); ("f1", Reference.Race) ]);
      Alcotest.(check bool) "kind matters" false
        (Reference.matches r ~workload:"w" ~unit:"A"
           [ ("f1", Reference.Benign); ("f0", Reference.Benign) ]);
      Alcotest.(check bool) "missing field" false
        (Reference.matches r ~workload:"w" ~unit:"A" [ ("f1", Reference.Race) ]);
      Alcotest.(check bool) "within" true
        (Reference.within r ~workload:"w" ~unit:"A" [ ("f1", Reference.Race) ]);
      Alcotest.(check bool) "extra field not within" false
        (Reference.within r ~workload:"w" ~unit:"A" [ ("zz", Reference.Race) ]);
      Alcotest.(check bool) "none unit" true (Reference.matches r ~workload:"w" ~unit:"B" []);
      Alcotest.(check bool) "unknown unit" false (Reference.matches r ~workload:"w" ~unit:"C" []);
      Alcotest.(check bool) "workloads separate" true
        (Reference.matches r ~workload:"v" ~unit:"A" [ ("g", Reference.Race) ])

let test_reference_errors () =
  let err text expect =
    match Reference.parse text with
    | Ok _ -> Alcotest.fail ("accepted: " ^ text)
    | Error e ->
        Alcotest.(check bool) (Printf.sprintf "%S in %S" expect e) true
          (String.length e >= String.length expect
          && String.sub e 0 (String.length expect) = expect)
  in
  err "w | A | race" "line 1:";
  err "\n\nw | A | maybe | f" "line 3:";
  err "w | A | race |" "line 1:";
  err "w | A | none | f" "line 1:";
  err "w | A | race | f\nw | A | race | f" "line 2:";
  err "w | A | none |\nw | A | race | f" "line 2:";
  err "w | A | race | f\nw | A | none |" "line 2:";
  err " | A | race | f" "line 1:"

(* The committed reference: the counts the paper's tables give. *)
let test_committed_reference () =
  match Reference.load "../reference/verdicts.txt" with
  | Error e -> Alcotest.fail e
  | Ok r ->
      let races w =
        List.length
          (List.concat_map
             (fun u ->
               List.filter
                 (fun (_, k) -> k = Reference.Race)
                 (Option.get (Reference.expected r ~workload:w ~unit:u)))
             (Reference.units r ~workload:w))
      in
      Alcotest.(check int) "mc-suite programs" 13
        (List.length (Reference.units r ~workload:"mc-suite"));
      Alcotest.(check int) "mc-suite race fields (29)" 29 (races "mc-suite");
      Alcotest.(check int) "recovery-grid race fields (7)" 7 (races "recovery-grid");
      Alcotest.(check int) "soak labels (9)" 9
        (List.length
           (List.concat_map
              (fun u -> Option.get (Reference.expected r ~workload:"soak-service" ~unit:u))
              (Reference.units r ~workload:"soak-service")))

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json agrees with the catalog                               *)

(* Every {"name": ..., "unit": ...} object, in file order; workloads
   have no unit. *)
let json_entries text =
  let re_field key s i =
    let pat = "\"" ^ key ^ "\": \"" in
    let lp = String.length pat in
    let rec find j =
      if j + lp > String.length s then None
      else if String.sub s j lp = pat then
        let k = String.index_from s (j + lp) '"' in
        Some (String.sub s (j + lp) (k - j - lp))
      else find (j + 1)
    in
    find i
  in
  List.filter_map
    (fun line ->
      match re_field "name" line 0 with
      | None -> None
      | Some n -> Some (n, re_field "unit" line 0))
    (String.split_on_char '\n' text)

let test_benchmark_json () =
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let entries = json_entries text in
  let expected =
    List.map (fun w -> (w, None)) Catalog.workloads
    @ List.map
        (fun (m : Metric.t) -> (m.Metric.name, Some m.Metric.unit))
        (Catalog.end_to_end @ Catalog.per_layer)
  in
  Alcotest.(check (list (pair string (option string)))) "names and units" expected entries

let () =
  Alcotest.run "perfbench"
    [
      ( "metric",
        [
          Alcotest.test_case "name and unit validation" `Quick test_names;
          Alcotest.test_case "catalog checks" `Quick test_catalog_checks;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
          Alcotest.test_case "percentile" `Quick test_percentile;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nested self time" `Quick test_self_nested;
          Alcotest.test_case "overlapping children" `Quick test_self_overlapping;
          Alcotest.test_case "zero-width spans" `Quick test_self_zero_width;
          Alcotest.test_case "uncovered time" `Quick test_uncovered;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ( "reference",
        [
          Alcotest.test_case "parse" `Quick test_reference_parse;
          Alcotest.test_case "positioned errors" `Quick test_reference_errors;
          Alcotest.test_case "committed reference" `Quick test_committed_reference;
        ] );
      ( "benchmark-json",
        [ Alcotest.test_case "catalog matches BENCHMARK.json" `Quick test_benchmark_json ] );
    ]
