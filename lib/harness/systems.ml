type system = Base | Stint_sys | Pint_sys | Cracer_sys

let system_name = function
  | Base -> "baseline"
  | Stint_sys -> "stint"
  | Pint_sys -> "pint"
  | Cracer_sys -> "cracer"

let detector_names = [ "none"; "stint"; "cracer"; "pint" ]

let make_detector ?seed ?(shards = 1) ?(obs = Obs.disabled) ?(bp_rounds = 0) name =
  match name with
  | "none" -> Some (Nodetect.make (), [])
  | "stint" -> Some (Pint_detector.serial ?seed ~obs (), [])
  | "cracer" -> Some (Cracer.make ~obs (), [])
  | "pint" ->
      let p = Pint_detector.make ?seed ~shards () in
      Pint_detector.set_obs p obs;
      if bp_rounds > 0 then Pint_detector.set_backpressure p ~rounds:bp_rounds;
      let stages = Pint_detector.stages p in
      List.iter (fun s -> Stage.set_ring s (Obs.track obs (Stage.name s))) stages;
      Some (Pint_detector.detector p, stages)
  | _ -> None

let strand_cost = function
  | "none" -> Cost_model.base_cost
  | "stint" -> Cost_model.stint_core_cost
  | "cracer" -> Cost_model.cracer_core_cost
  | "pint" -> Cost_model.pint_core_cost
  | name -> invalid_arg ("Systems.strand_cost: unknown detector " ^ name)

(* Group a flat stage list into shard stage groups for the real-domain
   callers: stages carrying the same shard index (per the detector's
   naming authority) share one group, so the one domain stepping a group
   (a [Par_exec] holder, which runs strands while the group is idle, or a
   pint_serve pool worker) owns one shard's full {writer, lreader,
   rreader} triple; stages the parser does not recognize get singleton
   groups.  Group order follows first appearance, so [make_detector]'s
   stage order yields groups in shard order. *)
let micropools stages =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun s ->
      let key =
        match Pint_detector.role_of_stage_name (Stage.name s) with
        | Some (_, k) -> `Shard k
        | None -> `Solo (Stage.name s)
      in
      match Hashtbl.find_opt tbl key with
      | Some cell -> cell := s :: !cell
      | None ->
          let cell = ref [ s ] in
          Hashtbl.add tbl key cell;
          order := key :: !order)
    stages;
  List.rev_map (fun key -> List.rev !(Hashtbl.find tbl key)) !order

type measurement = {
  system : string;
  workload : string;
  workers : int;
  time : float;
  core_time : float;
  writer_time : float;
  lreader_time : float;
  rreader_time : float;
  races : int;
  checked : bool;
  n_steals : int;
  n_strands : int;
  diags : (string * float) list;
}

let vsec cycles = cycles /. 1e6

(* Every figure cell is one seeded simulation: the scheduler's victim
   choices and, at [seed + 7], the detectors' treap priorities. *)
let seed = 2022

let run ?(shards = 1) ~(workload : Workload.t) ~size ~base ~workers system =
  let inst = workload.make ~size ~base in
  let name =
    match system with
    | Base -> "none"
    | Stint_sys -> "stint"
    | Pint_sys -> "pint"
    | Cracer_sys -> "cracer"
  in
  (* STINT and PINT share treap seeds: they maintain the same three treap
     roles, and matching priorities keep the two systems' visit counts
     comparable instead of diverging on treap shape noise *)
  let det, stages = Option.get (make_detector ~seed:(seed + 7) ~shards name) in
  (* STINT is serial: it runs on one core worker whatever [workers] says *)
  let n_workers = if system = Stint_sys then 1 else workers in
  let config =
    { Sim_exec.n_workers; seed; strand_cost = strand_cost name; stages; obs_clock = Clock.null }
  in
  let r = Sim_exec.run ~config ~driver:det.Detector.driver inst.Workload.run in
  det.Detector.drain ();
  let diags = det.Detector.diagnostics () in
  let makespan = float_of_int r.Sim_exec.makespan in
  let clocks = r.Sim_exec.stage_clocks in
  let time =
    match system with
    | Base | Cracer_sys -> makespan
    | Stint_sys ->
        (* the access history runs synchronously: three role steps per
           strand, each priced like a PINT stage step *)
        let diag k = int_of_float (Option.value (List.assoc_opt k diags) ~default:0.) in
        makespan
        +. float_of_int
             (Cost_model.treap_step_cost
                ~records:(3 * diag "strands")
                ~visits:(diag "writer_visits" + diag "reader_visits"))
    | Pint_sys ->
        let clock_values = List.map (fun (_, c) -> float_of_int c) clocks in
        if workers = 1 then
          (* §IV-A one-core configuration: core first, then access history —
             every treap-worker clock runs back to back *)
          List.fold_left ( +. ) makespan clock_values
        else
          (* each of the 3·shards treap workers has its own core: the run
             ends when the slowest component does *)
          List.fold_left Float.max makespan clock_values
  in
  (* per-role means come from the detector's own naming/role reduction,
     so the harness never pattern-matches stage-name prefixes *)
  let role r = Pint_detector.role_mean r clocks in
  {
    system = system_name system;
    workload = workload.name;
    workers;
    time;
    core_time = makespan;
    writer_time = role Pint_detector.Writer;
    lreader_time = role Pint_detector.Lreader;
    rreader_time = role Pint_detector.Rreader;
    races = Report.count det.Detector.report;
    checked = inst.Workload.check ();
    n_steals = r.Sim_exec.n_steals;
    n_strands = r.Sim_exec.n_strands;
    diags;
  }
