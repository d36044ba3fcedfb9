(* bench_gate logic tests, driven on synthetic bench JSON through the
   gate_core library — no processes, no files. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* a minimal schema-3 figures document with one group *)
let doc cases =
  let case (name, median, minv, n) =
    Printf.sprintf "%S: {\"median_s\": %f, \"min_s\": %f, \"max_s\": %f, \"n\": %d}" name median
      minv (median *. 2.) n
  in
  Printf.sprintf "{\"schema\": 3, \"figures\": {\"g\": {%s}}}"
    (String.concat ", " (List.map case cases))

let cases_of cases = Gate.cases_of_json (Jsonx.parse (doc cases))

let count p verdicts = List.length (List.filter p verdicts)
let is_regressed = function Gate.Regressed _ -> true | _ -> false
let is_ok = function Gate.Ok_case _ -> true | _ -> false
let is_skipped = function Gate.Skipped _ -> true | _ -> false
let is_waived = function Gate.Waived _ -> true | _ -> false

let base = cases_of [ ("a", 0.1, 0.09, 5); ("b", 0.2, 0.19, 5) ]

let gate ?waivers current = Gate.compare_cases ?waivers ~baseline:base ~current ()

let identical_passes () =
  let v = gate base in
  check_int "all ok" 2 (count is_ok v);
  check_int "no regressions" 0 (count is_regressed v)

let doubled_fails () =
  let v = gate (cases_of [ ("a", 0.2, 0.18, 5); ("b", 0.2, 0.19, 5) ]) in
  check_int "a regressed" 1 (count is_regressed v);
  check_int "b ok" 1 (count is_ok v)

let small_improvement_passes () =
  let v = gate (cases_of [ ("a", 0.09, 0.085, 5); ("b", 0.21, 0.2, 5) ]) in
  check_int "no regressions" 0 (count is_regressed v)

let undersampled_skips () =
  (* n=1 smoke data must never produce a verdict, even when 10x slower *)
  let v = gate (cases_of [ ("a", 1.0, 1.0, 1); ("b", 0.2, 0.19, 1) ]) in
  check_int "all skipped" 2 (count is_skipped v);
  check_int "no regressions" 0 (count is_regressed v);
  (* the floor is 3 samples: n=2 skips, n=3 is judged *)
  let doubled n = gate (cases_of [ ("a", 0.2, 0.18, n) ]) in
  check_int "n=2 skipped" 1 (count is_skipped (doubled 2));
  check_int "n=3 judged" 1 (count is_regressed (doubled 3))

let too_fast_skips () =
  let tiny = cases_of [ ("a", 0.0001, 0.0001, 5) ] in
  let v = Gate.compare_cases ~baseline:tiny ~current:tiny () in
  check_int "sub-millisecond case skipped" 1 (count is_skipped v);
  (* the floor is a 5 ms baseline median: 4.9 ms skips, 5.1 ms is judged *)
  let doubled median =
    Gate.compare_cases
      ~baseline:(cases_of [ ("a", median, median, 5) ])
      ~current:(cases_of [ ("a", 2. *. median, 2. *. median, 5) ])
      ()
  in
  check_int "4.9 ms skipped" 1 (count is_skipped (doubled 0.0049));
  check_int "5.1 ms judged" 1 (count is_regressed (doubled 0.0051))

let unknown_case_skips () =
  let v = gate (cases_of [ ("new-case", 9.9, 9.9, 5) ]) in
  check_int "not in baseline -> skip" 1 (count is_skipped v)

let waiver_suppresses () =
  let cur = cases_of [ ("a", 0.2, 0.18, 5); ("b", 0.2, 0.19, 5) ] in
  let v = gate ~waivers:[ ("g/a", "known issue") ] cur in
  check_int "waived" 1 (count is_waived v);
  check_int "no regressions" 0 (count is_regressed v);
  (* the waiver only covers g/a *)
  let v2 = gate ~waivers:[ ("g/b", "wrong case") ] cur in
  check_int "unrelated waiver does not help" 1 (count is_regressed v2)

let waiver_parsing () =
  let ws =
    Gate.parse_waivers "# comment\n\n g/a -- flaky on CI \ng/b\n# g/c -- commented out\n"
  in
  check_int "two waivers" 2 (List.length ws);
  check_bool "reason kept" true (List.assoc "g/a" ws = "flaky on CI");
  check_bool "missing reason defaulted" true (List.assoc "g/b" ws = "no reason given")

let threshold_respected () =
  (* the threshold is +25% on the best sample (a's is 0.09) *)
  let scaled f = gate (cases_of [ ("a", 0.1 *. f, 0.09 *. f, 5); ("b", 0.2, 0.19, 5) ]) in
  check_int "1.24x passes" 0 (count is_regressed (scaled 1.24));
  check_int "1.26x regresses" 1 (count is_regressed (scaled 1.26))

(* -- gated diagnostics: detect_span rides the same ratio test ----------- *)

let doc_with_span cases =
  let case (name, median, span) =
    Printf.sprintf
      "%S: {\"median_s\": %f, \"min_s\": %f, \"n\": 5, \"diagnostics\": {\"detect_span\": %f, \
       \"shards\": 4.0}}"
      name median median span
  in
  Printf.sprintf "{\"schema\": 3, \"figures\": {\"g\": {%s}}}"
    (String.concat ", " (List.map case cases))

let span_cases cases = Gate.cases_of_json (Jsonx.parse (doc_with_span cases))

let diag_regression_trips () =
  (* the case is far too fast for the wall-clock gate, but its detect_span
     blew up 2x: the diag verdict must trip on its own *)
  let base = span_cases [ ("s4", 0.001, 30000.) ] in
  let v =
    Gate.compare_cases ~baseline:base ~current:(span_cases [ ("s4", 0.001, 60000.) ]) ()
  in
  check_int "wall skipped (too fast)" 1 (count is_skipped v);
  check_int "span regression trips" 1 (count is_regressed v);
  (match List.find is_regressed v with
  | Gate.Regressed { key; _ } -> check_bool "diag key" true (key = "g/s4#detect_span")
  | _ -> assert false);
  (* identical spans pass *)
  let v2 = Gate.compare_cases ~baseline:base ~current:base () in
  check_int "identical span ok" 0 (count is_regressed v2);
  check_int "span verdict present" 1 (count is_ok v2)

let diag_improvement_passes () =
  let base = span_cases [ ("s4", 0.001, 30000.) ] in
  let v =
    Gate.compare_cases ~baseline:base ~current:(span_cases [ ("s4", 0.001, 20000.) ]) ()
  in
  check_int "no regressions" 0 (count is_regressed v)

let diag_waiver_suppresses () =
  let base = span_cases [ ("s4", 0.001, 30000.) ] in
  let v =
    Gate.compare_cases
      ~waivers:[ ("g/s4#detect_span", "rebalanced") ]
      ~baseline:base ~current:(span_cases [ ("s4", 0.001, 60000.) ]) ()
  in
  check_int "waived" 1 (count is_waived v);
  check_int "no regressions" 0 (count is_regressed v)

let diag_absent_is_silent () =
  (* baseline without the diag (older schema): no verdict either way *)
  let old = cases_of [ ("s4", 0.001, 0.001, 5) ] in
  let v =
    Gate.compare_cases ~baseline:old ~current:(span_cases [ ("s4", 0.001, 60000.) ]) ()
  in
  check_int "only the wall-clock skip" 1 (List.length v)

(* -- real-domain scaling assertion -------------------------------------- *)

let par_doc ~domains ~s1 ~s4 =
  Printf.sprintf
    "{\"schema\": 3, \"figures\": {\"par:heat48\": {\
     \"s1\": {\"median_s\": %f, \"min_s\": %f, \"n\": 5, \"diagnostics\": {\"domains\": %f}}, \
     \"s4\": {\"median_s\": %f, \"min_s\": %f, \"n\": 5, \"diagnostics\": {\"domains\": %f}}}}}"
    s1 s1 domains s4 s4 domains

let par_cases ~domains ~s1 ~s4 = Gate.cases_of_json (Jsonx.parse (par_doc ~domains ~s1 ~s4))

let scaling cases = Gate.check_scaling ~slow:"par:heat48/s1" ~fast:"par:heat48/s4" cases

let scaling_ok_when_faster () =
  match scaling (par_cases ~domains:8. ~s1:1.0 ~s4:0.5) with
  | Gate.Scaling_ok { ratio; _ } -> check_bool "halved" true (abs_float (ratio -. 0.5) < 1e-9)
  | _ -> Alcotest.fail "expected Scaling_ok"

let scaling_fails_when_flat () =
  (* the whole point: merely tying is a failure on a real multi-core host *)
  (match scaling (par_cases ~domains:8. ~s1:1.0 ~s4:1.0) with
  | Gate.Scaling_failed _ -> ()
  | _ -> Alcotest.fail "expected Scaling_failed on a flat result");
  match scaling (par_cases ~domains:8. ~s1:1.0 ~s4:0.95) with
  | Gate.Scaling_failed { ratio; _ } ->
      check_bool "just over the bar" true (ratio > 0.9)
  | _ -> Alcotest.fail "expected Scaling_failed just over the ratio"

let scaling_ratio_respected () =
  (* the bar is 0.9 of the slow case's best time *)
  (match scaling (par_cases ~domains:8. ~s1:1.0 ~s4:0.89) with
  | Gate.Scaling_ok _ -> ()
  | _ -> Alcotest.fail "0.89x should pass");
  match scaling (par_cases ~domains:8. ~s1:1.0 ~s4:0.91) with
  | Gate.Scaling_failed _ -> ()
  | _ -> Alcotest.fail "0.91x should fail"

let scaling_skips_small_host () =
  (* a 1-core container time-shares the micropools: skip, never fail *)
  (match scaling (par_cases ~domains:1. ~s1:1.0 ~s4:1.4) with
  | Gate.Scaling_skipped { why; _ } ->
      check_bool "mentions domains" true
        (String.length why > 0 && String.lowercase_ascii why <> "")
  | _ -> Alcotest.fail "expected skip on a 1-domain host");
  (* the floor is 4 recorded domains: 3 skip, 4 are judged *)
  (match scaling (par_cases ~domains:3. ~s1:1.0 ~s4:1.0) with
  | Gate.Scaling_skipped _ -> ()
  | _ -> Alcotest.fail "expected skip at 3 domains");
  match scaling (par_cases ~domains:4. ~s1:1.0 ~s4:1.0) with
  | Gate.Scaling_failed _ -> ()
  | _ -> Alcotest.fail "expected a verdict at 4 domains"

let scaling_skips_missing_pieces () =
  (* missing case *)
  (match scaling (cases_of [ ("a", 0.1, 0.1, 5) ]) with
  | Gate.Scaling_skipped _ -> ()
  | _ -> Alcotest.fail "expected skip when the group is absent");
  (* missing domains diagnostic: must skip rather than trust the numbers *)
  let j =
    Jsonx.parse
      "{\"schema\": 3, \"figures\": {\"par:heat48\": {\
       \"s1\": {\"median_s\": 1.0, \"min_s\": 1.0, \"n\": 5}, \
       \"s4\": {\"median_s\": 0.5, \"min_s\": 0.5, \"n\": 5}}}}"
  in
  match scaling (Gate.cases_of_json j) with
  | Gate.Scaling_skipped _ -> ()
  | _ -> Alcotest.fail "expected skip without a domains diagnostic"

let missing_fields_rejected () =
  (* a case without "n" or "min_s" is a parse error, not a guess *)
  let rejected case =
    match Gate.cases_of_json (Jsonx.parse ("{\"figures\": {\"g\": {\"a\": " ^ case ^ "}}}")) with
    | _ -> false
    | exception Failure _ -> true
  in
  check_bool "complete case parses" false
    (rejected "{\"median_s\": 0.1, \"min_s\": 0.09, \"n\": 3}");
  check_bool "missing n rejected" true (rejected "{\"median_s\": 0.1, \"min_s\": 0.09}");
  check_bool "missing min_s rejected" true (rejected "{\"median_s\": 0.1, \"n\": 3}")

let () =
  Alcotest.run "bench_gate"
    [
      ( "gate",
        [
          Alcotest.test_case "identical passes" `Quick identical_passes;
          Alcotest.test_case "2x fails" `Quick doubled_fails;
          Alcotest.test_case "improvement passes" `Quick small_improvement_passes;
          Alcotest.test_case "undersampled skips" `Quick undersampled_skips;
          Alcotest.test_case "too-fast skips" `Quick too_fast_skips;
          Alcotest.test_case "unknown case skips" `Quick unknown_case_skips;
          Alcotest.test_case "waiver suppresses" `Quick waiver_suppresses;
          Alcotest.test_case "waiver parsing" `Quick waiver_parsing;
          Alcotest.test_case "threshold respected" `Quick threshold_respected;
          Alcotest.test_case "diag regression trips" `Quick diag_regression_trips;
          Alcotest.test_case "diag improvement passes" `Quick diag_improvement_passes;
          Alcotest.test_case "diag waiver suppresses" `Quick diag_waiver_suppresses;
          Alcotest.test_case "diag absent is silent" `Quick diag_absent_is_silent;
          Alcotest.test_case "missing n or min_s rejected" `Quick missing_fields_rejected;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "ok when faster" `Quick scaling_ok_when_faster;
          Alcotest.test_case "fails when flat" `Quick scaling_fails_when_flat;
          Alcotest.test_case "ratio respected" `Quick scaling_ratio_respected;
          Alcotest.test_case "skips small host" `Quick scaling_skips_small_host;
          Alcotest.test_case "skips missing pieces" `Quick scaling_skips_missing_pieces;
        ] );
    ]
