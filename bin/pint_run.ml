(* pint_run — run one benchmark under a chosen executor and race detector.

   Examples:
     pint_run --workload sort --detector pint --exec sim --workers 8
     pint_run --workload heat --detector stint --exec seq --racy
     pint_run --workload mmul --detector cracer --exec par --workers 4
     pint_run --workload heat --detector none --exec seq --racy --capture heat.trace

   Exit status: 0 on a clean run, 1 when the outcome contradicts the
   variant (races on a non---racy run, or no races on a --racy run), 2 on
   bad usage. *)

open Cmdliner

type exec_kind = Seq | Sim | Par

let exec_name = function Seq -> "seq" | Sim -> "sim" | Par -> "par"

let run_one workload detector exec workers domains shards size base racy seed max_report capture
    profile =
  let w =
    try Registry.find workload
    with Not_found ->
      Printf.eprintf "unknown workload %S; available: %s\n" workload
        (String.concat ", " (List.map (fun w -> w.Workload.name) (Registry.all ())));
      exit 2
  in
  let size = Option.value size ~default:w.Workload.default_size in
  let base = Option.value base ~default:w.Workload.default_base in
  let inst =
    if racy then
      match w.Workload.racy with
      | Some f -> f ~size ~base
      | None ->
          Printf.eprintf "workload %s has no racy variant\n" workload;
          exit 2
    else w.Workload.make ~size ~base
  in
  let obs =
    match profile with
    | None -> Obs.disabled
    | Some _ ->
        (* sim runs profile on the virtual timeline (deterministic traces);
           seq runs, which have no virtual time, and par runs use wall-time
           microseconds *)
        let clock = match exec with Sim -> Clock.manual () | Seq | Par -> Clock.monotonic in
        Obs.create ~clock ()
  in
  (* --domains is the real-core budget of a par run: pipeline micropools
     are taken off the top (shards means cores), whatever remains feeds
     the core workers unless --workers pins them explicitly *)
  let domains = Option.value domains ~default:(Domain.recommended_domain_count ()) in
  let bp_rounds = match exec with Par -> Pint_detector.recommended_bp_rounds | Seq | Sim -> 0 in
  let det, stages =
    match Systems.make_detector ~shards ~obs ~bp_rounds detector with
    | Some ds -> ds
    | None ->
        Printf.eprintf "unknown detector %S (%s)\n" detector
          (String.concat "|" Systems.detector_names);
        exit 2
  in
  let pools = Systems.micropools stages in
  let n_workers =
    match (exec, workers) with
    | Seq, _ -> 1
    | Sim, p -> Option.value p ~default:4
    | Par, Some p -> p
    | Par, None -> max 1 (domains - List.length pools)
  in
  if detector = "stint" && n_workers > 1 then begin
    Printf.eprintf "detector stint is serial: run it with -e seq or -p 1 (not %d core workers)\n"
      n_workers;
    exit 2
  end;
  let driver =
    match capture with
    | None -> det.Detector.driver
    | Some path ->
        let meta =
          [
            ("workload", workload);
            ("size", string_of_int size);
            ("base", string_of_int base);
            ("racy", string_of_bool racy);
            ("detector", detector);
            ("exec", exec_name exec);
            ("seed", string_of_int seed);
          ]
        in
        Tracefile.capture ~meta ~path det.Detector.driver
  in
  (* outermost wrapper: the finish timestamp must be taken before any inner
     hook (capture serialization included) runs *)
  let driver = Obs_hooks.instrument obs driver in
  Printf.printf "workload=%s size=%d base=%d detector=%s shards=%d racy=%b\n%!" workload size base
    detector shards racy;
  (match exec with
  | Seq ->
      let r = Sim_exec.run ~config:Sim_exec.serial ~driver inst.Workload.run in
      Printf.printf "executor=seq strands=%d spawns=%d\n" r.Sim_exec.n_strands r.Sim_exec.n_spawns
  | Sim ->
      let config =
        {
          Sim_exec.n_workers;
          seed;
          strand_cost = Systems.strand_cost detector;
          stages;
          obs_clock = Obs.clock obs;
        }
      in
      let r = Sim_exec.run ~config ~driver inst.Workload.run in
      Printf.printf "executor=sim workers=%d strands=%d steals=%d makespan=%d total=%d\n"
        config.Sim_exec.n_workers r.Sim_exec.n_strands r.Sim_exec.n_steals r.Sim_exec.makespan
        r.Sim_exec.total
  | Par ->
      let config = { Par_exec.n_workers; seed; pools; obs } in
      let r = Par_exec.run ~config ~driver inst.Workload.run in
      Printf.printf
        "executor=par workers=%d pools=%d domains=%d strands=%d steals=%d steal_cas_failures=%d \
         parks=%d elapsed=%.3fs\n"
        n_workers (List.length pools) r.Par_exec.n_domains r.Par_exec.n_strands r.Par_exec.n_steals
        r.Par_exec.n_steal_cas_failures r.Par_exec.n_parks r.Par_exec.elapsed_s);
  (match capture with Some path -> Printf.printf "trace captured to %s\n" path | None -> ());
  let races = Detector.races det in
  (match profile with
  | None -> ()
  | Some path ->
      let meta =
        [
          ("workload", workload);
          ("detector", detector);
          ("exec", exec_name exec);
          ( "workers",
            match workers with Some p -> string_of_int p | None -> "auto" );
          ("domains", string_of_int domains);
          ("seed", string_of_int seed);
        ]
      in
      Obs.write_chrome ~meta obs ~path;
      Printf.printf "profile written to %s (%d event(s), %d dropped)\n" path (Obs.events obs)
        (Obs.dropped obs);
      List.iter (fun (k, v) -> Printf.printf "  %s = %g\n" k v) (Obs.summary obs));
  Printf.printf "result check: %s\n" (if inst.Workload.check () then "PASS" else "FAIL (racy run?)");
  Printf.printf "races: %d distinct pair(s)\n" (List.length races);
  List.iteri
    (fun i r ->
      if i < max_report then Format.printf "  %a@." Report.pp_race r
      else if i = max_report then
        Printf.printf "  ... (%d more)\n" (List.length races - max_report))
    races;
  (* the exit code carries the detection signal: races on a supposedly
     race-free run (or a racy variant the detector missed) fail the run *)
  if racy && races = [] then exit 1;
  if (not racy) && races <> [] then exit 1

let workload_arg =
  Arg.(value & opt string "sort" & info [ "w"; "workload" ] ~doc:"Benchmark to run.")

let detector_arg =
  Arg.(value & opt string "pint" & info [ "d"; "detector" ] ~doc:"none|stint|cracer|pint.")

let exec_conv = Arg.enum [ ("seq", Seq); ("sim", Sim); ("par", Par) ]
let exec_arg =
  Arg.(
    value & opt exec_conv Sim
    & info [ "e"; "exec" ]
        ~doc:"Executor: seq (the simulator's one-worker serial elision), sim or par.")
let workers_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "p"; "workers" ]
        ~doc:
          "Core workers. Default: 4 under sim; under par, whatever \\$(b,--domains) leaves after \
           the pipeline micropools (at least 1).")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ]
        ~doc:
          "Real-core budget for --exec par: core workers + one micropool domain per shard must \
           fit in this many domains. Defaults to the machine's recommended domain count.")

let shards_arg =
  Arg.(
    value
    & opt int 1
    & info [ "shards" ]
        ~doc:"Address-range shards for pint: each shard runs its own writer/lreader/rreader \
              treap triple over its own blocks of the address space, all fed by one access-history \
              queue. 1 is the paper's topology.")
let size_arg = Arg.(value & opt (some int) None & info [ "n"; "size" ] ~doc:"Problem size.")
let base_arg = Arg.(value & opt (some int) None & info [ "b"; "base" ] ~doc:"Base-case size.")
let racy_arg = Arg.(value & flag & info [ "racy" ] ~doc:"Run the race-injected variant.")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Scheduler seed.")
let max_report_arg = Arg.(value & opt int 10 & info [ "max-report" ] ~doc:"Races to print.")

let capture_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "capture" ] ~docv:"FILE" ~doc:"Record the run to a trace file (see pint_replay).")

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Trace the pipeline and write a Chrome trace-event JSON (open in Perfetto or \
           chrome://tracing). Under --exec sim the trace uses virtual time and is deterministic \
           for a fixed seed.")

let () =
  let term =
    Term.(
      const run_one $ workload_arg $ detector_arg $ exec_arg $ workers_arg $ domains_arg
      $ shards_arg $ size_arg $ base_arg $ racy_arg $ seed_arg $ max_report_arg $ capture_arg
      $ profile_arg)
  in
  exit (Cmd.eval (Cmd.v (Cmd.info "pint_run" ~doc:"Run a benchmark under a race detector") term))
