(* bench_gate — CI perf-regression gate over bench --json files.

   Usage:
     bench_gate --baseline BENCH_10.json --current BENCH_smoke.json
                [--waivers GATE_WAIVERS] [--inflate F]
                [--require-scaling SLOW FAST]

   Compares per-case best-of-N times (see gate.ml for why min, not
   median, and for the fixed threshold, sample and time floors and gated
   diagnostics); exits 1 if any case regressed past the threshold and is
   not waived, 0 otherwise (skipped cases never fail the gate).  --inflate
   multiplies every current sample by F before comparing — CI uses it to
   prove the gate actually trips on a doctored 2x-slower result.

   --require-scaling SLOW FAST additionally asserts, within the CURRENT
   file alone, that case FAST's best time is at most 0.9 of case SLOW's
   (e.g. par:heat48/s4 vs par:heat48/s1 — real-domain sharding must buy
   wall clock, not just detect_span).  The assertion is skipped —
   reported, never silently — when the FAST case's recorded "domains"
   diagnostic says the host had fewer than 4 cores, since a time-shared
   run cannot scale. *)

let usage () =
  prerr_endline
    "usage: bench_gate --baseline FILE --current FILE [--waivers FILE] [--inflate F]\n\
    \       [--require-scaling SLOW FAST]";
  exit 2

let () =
  let baseline = ref None
  and current = ref None
  and waiver_file = ref None
  and inflate = ref 1.0
  and scaling = ref None in
  let argv = Sys.argv in
  let i = ref 1 in
  let next () =
    incr i;
    if !i >= Array.length argv then usage ();
    argv.(!i)
  in
  while !i < Array.length argv do
    (match argv.(!i) with
    | "--baseline" -> baseline := Some (next ())
    | "--current" -> current := Some (next ())
    | "--waivers" -> waiver_file := Some (next ())
    | "--inflate" -> inflate := float_of_string (next ())
    | "--require-scaling" ->
        let slow = next () in
        let fast = next () in
        scaling := Some (slow, fast)
    | _ -> usage ());
    incr i
  done;
  let baseline_path = match !baseline with Some p -> p | None -> usage () in
  let current_path = match !current with Some p -> p | None -> usage () in
  let base_cases = Gate.cases_of_file baseline_path in
  let cur_cases =
    List.map
      (fun (c : Gate.case) ->
        { c with Gate.median_s = c.Gate.median_s *. !inflate; min_s = c.Gate.min_s *. !inflate })
      (Gate.cases_of_file current_path)
  in
  let waivers =
    match !waiver_file with
    | Some p when Sys.file_exists p -> Gate.parse_waivers (Gate.load_file p)
    | _ -> []
  in
  Printf.printf "bench_gate: %s vs baseline %s (threshold +%.0f%%, min %d samples%s)\n"
    current_path baseline_path (100. *. Gate.threshold) Gate.min_samples
    (if !inflate <> 1.0 then Printf.sprintf ", medians inflated %.2fx" !inflate else "");
  let verdicts = Gate.compare_cases ~waivers ~baseline:base_cases ~current:cur_cases () in
  List.iter (Gate.pp_verdict stdout) verdicts;
  (* --inflate doctors wall clocks only, so it must not break the scaling
     ratio: the check reads the undoctored current file *)
  let scaling_failed =
    match !scaling with
    | None -> false
    | Some (slow, fast) ->
        let v = Gate.check_scaling ~slow ~fast (Gate.cases_of_file current_path) in
        Gate.pp_scaling stdout v;
        (match v with Gate.Scaling_failed _ -> true | _ -> false)
  in
  match (Gate.regressions verdicts, scaling_failed) with
  | [], false ->
      print_endline "bench_gate: PASS";
      exit 0
  | rs, sf ->
      Printf.printf "bench_gate: FAIL (%d unwaived regression(s)%s)\n" (List.length rs)
        (if sf then ", scaling assertion failed" else "");
      exit 1
