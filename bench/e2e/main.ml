(* bench/e2e — the end-to-end benchmark: live detection overhead, trace
   analysis and pint_serve latency, with an outside-in per-layer breakdown.
   See README.md.

     main.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--out F]
         one workload; the last line of stdout is the JSON result
     main.exe [--seed N] [--seconds S] [--trace 0|1] [--out F]
         every workload, each in a fresh child process
     main.exe --quick
         smoke: every workload at its smallest size, untraced and traced;
         fails on a failed output check or a metric BENCHMARK.json does
         not declare
     main.exe --compare A B
         compare two result files (sets of runs) against BENCHMARK.json *)

let workloads = [ "live-mmul"; "live-sort"; "trace-analysis"; "serve-mix" ]

let run_workload ~workload ~quick ~seed ~seconds ~traced =
  match workload with
  | "live-mmul" | "live-sort" -> Live.run ~workload ~quick ~seed ~seconds ~traced
  | "trace-analysis" -> Analysis.run ~quick ~seed ~seconds ~traced
  | "serve-mix" -> Serve_mix.run ~quick ~seed ~seconds ~traced
  | w ->
      raise
        (Arg.Bad (Printf.sprintf "unknown workload %S (%s)" w (String.concat ", " workloads)))

let one ~workload ~quick ~seed ~seconds ~traced ~out =
  let r = run_workload ~workload ~quick ~seed ~seconds ~traced in
  let ms = Results.metrics ~traced r in
  Printf.printf "%s (seed %d, %s)\n" workload seed
    (String.concat ", "
       (List.map (fun (k, v) -> k ^ " " ^ v) (List.tl (Results.provenance ~seed))));
  List.iter print_endline r.Results.notes;
  List.iter (fun (k, v, u) -> Printf.printf "  %-28s %14.6f %s\n" k v u) ms;
  Printf.printf "  %d attempted, %d failed\n" r.Results.attempted r.Results.failed;
  if traced then begin
    let path = Results.work_file (Printf.sprintf "trace-%s-%d.json" workload seed) in
    Spans.write_chrome ~meta:(("workload", workload) :: Results.provenance ~seed) path;
    Printf.printf "  Chrome trace: %s\n" path
  end;
  Option.iter
    (fun path -> Results.append_line path (Results.record_line ~workload ~seed ~traced r ms))
    out;
  print_endline (Results.result_line r ms)

(* Run one workload as a child process and return its output lines and
   parsed result line (None when it printed none or exited non-zero). *)
let child ~args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let result =
    match (Unix.close_process_in ic, !lines) with
    | Unix.WEXITED 0, last :: _ -> ( try Some (Jsonx.parse last) with Jsonx.Parse_error _ -> None)
    | _ -> None
  in
  (List.rev !lines, result)

(* Every workload in its own child.  Under --quick each is run untraced and
   traced.  The metrics a child reports must be exactly those BENCHMARK.json
   declares for its mode, with the same units. *)
let all ~quick ~seed ~seconds ~trace ~out =
  let spec = Results.load_spec "BENCHMARK.json" in
  let problems = ref [] in
  let traces = if quick then [ 0; 1 ] else [ trace ] in
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let args =
            [
              "--workload"; workload; "--seed"; string_of_int seed;
              "--seconds"; string_of_float seconds; "--trace"; string_of_int trace;
            ]
            @ (if quick then [ "--quick" ] else [])
            @ match out with Some f -> [ "--out"; f ] | None -> []
          in
          let what = Printf.sprintf "%s (trace %d)" workload trace in
          let before = List.length !problems in
          let lines, result = child ~args in
          (match result with
          | None -> problems := (what ^ ": no result") :: !problems
          | Some j ->
              if Jsonx.member "correct" j <> Some (Jsonx.Bool true) then
                problems := (what ^ ": an output check failed") :: !problems;
              let declared =
                List.map
                  (fun d -> (d.Results.d_name, Some d.Results.d_unit))
                  (if trace = 1 then spec.Results.layers else spec.Results.e2e)
              and emitted =
                List.map
                  (fun (k, m) -> (k, Option.bind (Jsonx.member "unit" m) Jsonx.to_str))
                  (Option.value ~default:[] (Option.bind (Jsonx.member "metrics" j) Jsonx.to_obj))
              in
              let missing what' a b =
                List.iter
                  (fun (k, _) ->
                    problems := Printf.sprintf "%s: %s metric %s" what what' k :: !problems)
                  (List.filter (fun m -> not (List.mem m b)) a)
              in
              missing "undeclared (or wrong unit)" emitted declared;
              missing "unreported declared" declared emitted);
          (* the smoke stays quiet unless this child failed *)
          if (not quick) || List.length !problems > before then List.iter print_endline lines
          else Printf.printf "ok %s\n%!" what)
        traces)
    workloads;
  List.iter (Printf.printf "FAIL %s\n") (List.rev !problems);
  if !problems <> [] then exit 1

(* The verdict rule for a claimed change (choosing-metrics §6.5): worse when
   B's median is worse than A's by more than the bound; unresolved when
   either side's spread (IQR over median) exceeds the bound, unless every
   run of B beats every run of A.  A gain does not count when more
   operations fail: B is also worse when any of its runs failed an output
   check, or when it failed a larger share of its operations than A. *)
let compare_files a b =
  let spec = Results.load_spec "BENCHMARK.json" in
  let lines path =
    String.split_on_char '\n' (Results.read_file path)
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map Jsonx.parse
    |> List.filter (fun j -> Jsonx.member "trace" j = Some (Jsonx.Num 0.))
  in
  let la = lines a and lb = lines b in
  let of_workload runs workload =
    List.filter (fun j -> Option.bind (Jsonx.member "workload" j) Jsonx.to_str = Some workload) runs
  in
  let values runs workload metric =
    List.filter_map
      (fun j ->
        Option.bind (Jsonx.member "metrics" j) (Jsonx.member metric)
        |> Fun.flip Option.bind (Jsonx.member "value")
        |> Fun.flip Option.bind Jsonx.to_float)
      (of_workload runs workload)
  in
  let worse = ref 0 in
  Printf.printf "%-15s %8s %18s %18s  %s\n" "workload" "runs A/B" "failed/attempted A"
    "failed/attempted B" "verdict";
  List.iter
    (fun workload ->
      let ra = of_workload la workload and rb = of_workload lb workload in
      if ra <> [] && rb <> [] then begin
        let sum k runs =
          let count j = Option.get (Option.bind (Jsonx.member k j) Jsonx.to_float) in
          List.fold_left (fun acc j -> acc + int_of_float (count j)) 0 runs
        in
        let fa = sum "failed" ra and aa = sum "attempted" ra in
        let fb = sum "failed" rb and ab = sum "attempted" rb in
        let incorrect =
          List.exists (fun j -> Jsonx.member "correct" j <> Some (Jsonx.Bool true)) rb
        in
        (* B's failed share above A's: fb/ab > fa/aa *)
        let verdict =
          if incorrect || fb * aa > fa * ab then begin
            incr worse;
            "worse"
          end
          else "ok"
        in
        Printf.printf "%-15s %4d/%-3d %18s %18s  %s\n" workload (List.length ra) (List.length rb)
          (Printf.sprintf "%d/%d" fa aa) (Printf.sprintf "%d/%d" fb ab) verdict
      end)
    spec.Results.workloads;
  print_newline ();
  Printf.printf "%-15s %-14s %12s %7s %12s %7s %8s %6s  %s\n" "workload" "metric" "A median" "A IQR"
    "B median" "B IQR" "change" "bound" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun (d : Results.declared) ->
          let xa = values la workload d.d_name and xb = values lb workload d.d_name in
          if xa <> [] && xb <> [] then begin
            let bound = Option.value ~default:0. d.d_bound in
            let spread xs =
              let q1, q2, q3 = Results.quartiles xs in
              (q2, (q3 -. q1) /. q2)
            in
            let ma, sa = spread xa and mb, sb = spread xb in
            let lower = d.d_better = "lower" in
            let change = if lower then (mb -. ma) /. ma else (ma -. mb) /. ma in
            let b_always_better =
              if lower then List.fold_left max neg_infinity xb < List.fold_left min infinity xa
              else List.fold_left min infinity xb > List.fold_left max neg_infinity xa
            in
            let verdict =
              if Float.max sa sb > bound && not b_always_better then "unresolved"
              else if change > bound then "worse"
              else "ok"
            in
            if verdict = "worse" then incr worse;
            Printf.printf "%-15s %-14s %12.6g %6.1f%% %12.6g %6.1f%% %+7.1f%% %5.0f%%  %s\n" workload
              d.d_name ma (100. *. sa) mb (100. *. sb) (100. *. change) (100. *. bound) verdict
          end)
        spec.Results.e2e)
    spec.Results.workloads;
  if !worse > 0 then exit 1

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 25. and trace = ref 0 in
  let out = ref None and quick = ref false and cmp = ref None in
  let cmp_a = ref "" in
  let specs =
    [
      ( "--workload",
        Arg.String (fun s -> workload := Some s),
        "NAME run one workload: " ^ String.concat ", " workloads );
      ("--seed", Arg.Set_int seed, "N seed the inputs are made from (default 1)");
      ("--seconds", Arg.Set_float seconds, "S how long a run measures (default 25)");
      ("--trace", Arg.Set_int trace, "0|1 1 = report per-layer metrics from a traced run");
      ( "--out",
        Arg.String (fun f -> out := Some f),
        "FILE append results, with provenance and samples, to FILE" );
      ( "--quick",
        Arg.Set quick,
        " smoke run at the smallest sizes, checked against BENCHMARK.json" );
      ( "--compare",
        Arg.Tuple [ Arg.Set_string cmp_a; Arg.String (fun b -> cmp := Some (!cmp_a, b)) ],
        "A B compare two result files" );
    ]
  in
  let usage = "main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match (!cmp, !workload) with
  | Some (a, b), _ -> compare_files a b
  | None, Some workload ->
      one ~workload ~quick:!quick ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) ~out:!out
  | None, None ->
      all ~quick:!quick ~seed:!seed
        ~seconds:(if !quick then 0.2 else !seconds)
        ~trace:!trace ~out:!out
