(* live-mmul / live-sort: detection overhead on real domains, the paper's
   headline metric.

   Each run is set up the way `pint_run -e par` sets one up: the domain
   budget is the host's recommended domain count, PINT takes one micropool
   domain per shard (shards 1) off the top, core workers get the rest, and
   collector backpressure uses [recommended_bp_rounds].  Runs come in
   pairs — `none` and `pint` with the same Par_exec seed — alternating
   which side runs first, and overhead is the median of the per-pair
   ratios. *)

type shape = { wl : string; size : int; base : int }

let s_detect = Spans.name "live.detect"
and s_core = Spans.name "exec.core"
and s_tail = Spans.name "pipeline.tail"

let shape ~quick = function
  (* interval-heavy: ~64 intervals per strand, so the treap stages do most
     of the work and the per-strand layers little *)
  | "live-mmul" ->
      if quick then { wl = "mmul"; size = 64; base = 16 }
      else { wl = "mmul"; size = 256; base = 32 }
  (* strand-heavy: ~100k strands of ~1 interval, so hooks, SP-order
     inserts, trace handoff, lane commits and parks dominate *)
  | "live-sort" ->
      if quick then { wl = "sort"; size = 8192; base = 128 }
      else { wl = "sort"; size = 262144; base = 128 }
  | w -> invalid_arg ("Live.shape: " ^ w)

type one = {
  wall_ns : int;
  domain_ns : int;  (** traced runs: the time the run held its domains *)
  rss_mb : float;  (** peak RSS during the run *)
  ok : bool;
  par : Par_exec.result;
  diags : (string * float) list;
}

(* One run.  Under tracing it is one [live.detect] span: [exec.core] up to
   the root strand's final [on_finish], then [pipeline.tail] until
   [Par_exec.run] returns, i.e. how long detection lags the program.  Its
   domain time is the core phase on every core worker, the tail on the
   caller's domain (waiting for the pipeline) and the whole run on every
   pool domain. *)
let run_once sh ~detector ~seed =
  let inst = (Registry.find sh.wl).Workload.make ~size:sh.size ~base:sh.base in
  let det, stages =
    Option.get (Systems.make_detector ~bp_rounds:Pint_detector.recommended_bp_rounds detector)
  in
  let root_finish = Atomic.make 0 in
  let driver = Probes.driver ~workers:true ~root_finish det.Detector.driver in
  let pools = Systems.micropools (List.map (Probes.stage ~pool:true) stages) in
  let n_workers = max 1 (Domain.recommended_domain_count () - List.length pools) in
  let config = { Par_exec.n_workers; seed; pools; obs = Obs.disabled } in
  Gc.compact ();
  Results.reset_peak_rss ();
  let spans =
    if Spans.enabled () then begin
      let root = Spans.enter s_detect in
      Some (root, Spans.enter s_core)
    end
    else None
  in
  let t0 = Spans.now () in
  let par = Par_exec.run ~config ~driver inst.Workload.run in
  det.Detector.drain ();
  let t1 = Spans.now () in
  let rss_mb = Results.peak_rss_mb () in
  let domain_ns =
    match spans with
    | Some (root, core) ->
        let froot = Atomic.get root_finish in
        Spans.leave ~at:froot core;
        ignore (Spans.record s_tail ~parent:root froot t1);
        Spans.leave ~at:t1 root;
        (n_workers * (froot - t0)) + (t1 - froot) + (List.length pools * (t1 - t0))
    | None -> 0
  in
  let ok = inst.Workload.check () && Detector.race_count det = 0 in
  { wall_ns = t1 - t0; domain_ns; rss_mb; ok; par; diags = det.Detector.diagnostics () }

let run ~workload ~quick ~seed ~seconds ~traced =
  let sh = shape ~quick workload in
  let attempted = ref 0 and failed = ref 0 in
  let go detector i =
    let o = run_once sh ~detector ~seed:((seed * 7919) + i) in
    incr attempted;
    if not o.ok then incr failed;
    o
  in
  (* set-up: build the instance and let one detected run warm the heap, the
     domain machinery and the code; done three times, reported as the
     median *)
  let setups =
    List.init 3 (fun i ->
        let kernel = Calib.measure () in
        let t0 = Spans.now () in
        ignore (go "pint" (-1 - i));
        Calib.scaled ~kernel (Spans.now () - t0))
  in
  let deadline = Spans.now () + int_of_float (seconds *. 1e9) in
  let wall o = Results.secs o.wall_ns in
  if not traced then begin
    let pairs = ref [] in
    let i = ref 0 in
    while !i = 0 || Spans.now () < deadline do
      let kernel = Calib.measure () in
      let p, n =
        if !i mod 2 = 0 then
          let p = go "pint" !i in
          (p, go "none" !i)
        else
          let n = go "none" !i in
          (go "pint" !i, n)
      in
      pairs := (kernel, p, n) :: !pairs;
      incr i
    done;
    let pairs = List.rev !pairs in
    let detect = List.map (fun (kernel, p, _) -> Calib.scaled ~kernel p.wall_ns) pairs
    and base = List.map (fun (kernel, _, n) -> Calib.scaled ~kernel n.wall_ns) pairs
    and ratios =
      List.map (fun (_, p, n) -> float_of_int p.wall_ns /. float_of_int n.wall_ns) pairs
    and rss = List.map (fun (_, p, _) -> p.rss_mb) pairs in
    {
      Results.attempted = !attempted;
      failed = !failed;
      values =
        [
          ("setup_s", Results.median setups);
          ("detect_s", Results.median detect);
          ("base_s", Results.median base);
          ("overhead_x", Results.median ratios);
          ("rss_peak_mb", Results.rss_of_peaks rss);
        ];
      samples =
        [
          ("setup_s", setups);
          ("detect_s", detect);
          ("base_s", base);
          ("overhead_x", ratios);
          ("rss_peak_mb", rss);
          ("kernel_s", List.map (fun (k, _, _) -> Results.secs k) pairs);
          ("detect_wall_s", List.map (fun (_, p, _) -> wall p) pairs);
          ("base_wall_s", List.map (fun (_, _, n) -> wall n) pairs);
        ];
      notes =
        [
          Printf.sprintf "%s: %s n=%d b=%d; %d pairs of pint and none runs" workload sh.wl sh.size
            sh.base (List.length detect);
          Results.describe "pint" detect;
          Results.describe "none" base;
        ];
    }
  end
  else begin
    (* untraced and traced detected runs alternate; per-layer values are
       means per traced run *)
    let plain = ref [] and traced_runs = ref [] in
    let i = ref 0 in
    while !i < 2 || Spans.now () < deadline do
      if !i mod 2 = 0 then plain := go "pint" !i :: !plain
      else begin
        Spans.enable ();
        Spans.set_run !i;
        traced_runs := go "pint" !i :: !traced_runs;
        Spans.disable ()
      end;
      incr i
    done;
    let ops = float_of_int (List.length !traced_runs) in
    let mean f = List.fold_left (fun acc o -> acc +. f o) 0. !traced_runs /. ops in
    let median_wall l = Results.median (List.map wall l) in
    let layers, notes =
      Trace_report.layers ~ops ~phases:[ "live.detect"; "exec.core" ]
        ~domain_ns:(List.fold_left (fun acc o -> acc + o.domain_ns) 0 !traced_runs)
        ~overhead:(median_wall !traced_runs /. median_wall !plain)
    in
    let diag k o = Option.value ~default:0. (List.assoc_opt k o.diags) in
    {
      Results.attempted = !attempted;
      failed = !failed;
      values =
        layers
        @ Trace_report.stage_counts ~ops (List.concat_map (fun o -> o.diags) !traced_runs)
        @ [
            ("exec.steals", mean (fun o -> float_of_int o.par.Par_exec.n_steals));
            ( "exec.steal_cas_failures",
              mean (fun o -> float_of_int o.par.Par_exec.n_steal_cas_failures) );
            ("exec.parks", mean (fun o -> float_of_int o.par.Par_exec.n_parks));
            ("detect.lane_rejects", mean (diag "lane_rejects"));
            ("detect.backpressure_waits", mean (diag "backpressure_waits"));
            ("detect.detect_span", mean (diag "detect_span"));
          ];
      samples =
        [ ("traced_s", List.rev_map wall !traced_runs); ("untraced_s", List.rev_map wall !plain) ];
      notes;
    }
  end
