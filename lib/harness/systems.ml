type system = Base | Stint_sys | Pint_sys | Cracer_sys

let system_name = function
  | Base -> "baseline"
  | Stint_sys -> "stint"
  | Pint_sys -> "pint"
  | Cracer_sys -> "cracer"

let detector_names = [ "none"; "stint"; "cracer"; "pint" ]

let make_detector ?seed ?(shards = 1) ?stage_cost ?(obs = Obs.disabled) ?(bp_rounds = 0) name =
  match name with
  | "none" -> Some (Nodetect.make (), [])
  | "stint" -> Some (Pint_detector.serial ?seed ~obs (), [])
  | "cracer" -> Some (Cracer.make ~obs (), [])
  | "pint" ->
      let p = Pint_detector.make ?seed ~shards () in
      Pint_detector.set_obs p obs;
      if bp_rounds > 0 then Pint_detector.set_backpressure p ~rounds:bp_rounds;
      let stages =
        match stage_cost with
        | Some cost -> Pint_detector.stages ~cost p
        | None -> Pint_detector.stages p
      in
      List.iter (fun s -> Stage.set_ring s (Obs.track obs (Stage.name s))) stages;
      Some (Pint_detector.detector p, stages)
  | _ -> None

(* Group a flat stage list into shard micropools for the real-domain
   executor: stages carrying the same shard index (per the detector's
   naming authority) share one pool, so each pool domain owns one lane's
   full {writer, lreader, rreader} triple; stages the parser does not
   recognize get singleton pools.  Pool order follows first appearance, so
   [make_detector]'s stage order yields pools in shard order. *)
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

let run ?(model = Cost_model.default) ?(seed = 2022) ?(shards = 1) ~(workload : Workload.t)
    ~size ~base ~workers system =
  let inst = workload.make ~size ~base in
  let mk_config strand_cost stages n_workers =
    {
      Sim_exec.n_workers;
      seed;
      strand_cost;
      c_steal = model.Cost_model.c_steal;
      c_steal_fail = model.Cost_model.c_steal_fail;
      stages;
      obs_clock = Clock.null;
    }
  in
  let finishup ~det ~sim_res ~time ~writer_time ~lreader_time ~rreader_time =
    let races, diags =
      match det with
      | Some d ->
          d.Detector.drain ();
          (Report.count d.Detector.report, d.Detector.diagnostics ())
      | None -> (0, [])
    in
    {
      system = system_name system;
      workload = workload.name;
      workers;
      time;
      core_time = float_of_int sim_res.Sim_exec.makespan;
      writer_time;
      lreader_time;
      rreader_time;
      races;
      checked = inst.Workload.check ();
      n_steals = sim_res.Sim_exec.n_steals;
      n_strands = sim_res.Sim_exec.n_strands;
      diags;
    }
  in
  match system with
  | Base ->
      let d, _ = Option.get (make_detector "none") in
      let config = mk_config (Cost_model.base_cost model) [] workers in
      let r = Sim_exec.run ~config ~driver:d.Detector.driver inst.Workload.run in
      finishup ~det:None ~sim_res:r
        ~time:(float_of_int r.Sim_exec.makespan)
        ~writer_time:0. ~lreader_time:0. ~rreader_time:0.
  | Cracer_sys ->
      let d, _ = Option.get (make_detector "cracer") in
      let config = mk_config (Cost_model.cracer_core_cost model) [] workers in
      let r = Sim_exec.run ~config ~driver:d.Detector.driver inst.Workload.run in
      finishup ~det:(Some d) ~sim_res:r
        ~time:(float_of_int r.Sim_exec.makespan)
        ~writer_time:0. ~lreader_time:0. ~rreader_time:0.
  | Stint_sys ->
      (* same treap seeds as the PINT run below: STINT now maintains the
         same three treap roles, and matching priorities keep the two
         systems' visit counts comparable instead of diverging on treap
         shape noise *)
      let d, _ = Option.get (make_detector ~seed:(seed + 7) "stint") in
      let config = mk_config (Cost_model.stint_core_cost model) [] 1 in
      let r = Sim_exec.run ~config ~driver:d.Detector.driver inst.Workload.run in
      d.Detector.drain ();
      let diag k = match List.assoc_opt k (d.Detector.diagnostics ()) with
        | Some v -> v
        | None -> 0.
      in
      let treap =
        Cost_model.treap_time model
          ~visits:(diag "writer_visits" +. diag "reader_visits")
          ~strands:(diag "strands") ~treaps:3
      in
      finishup ~det:(Some d) ~sim_res:r
        ~time:(float_of_int r.Sim_exec.makespan +. treap)
        ~writer_time:0. ~lreader_time:0. ~rreader_time:0.
  | Pint_sys ->
      let det, stages =
        Option.get
          (make_detector ~seed:(seed + 7) ~shards
             ~stage_cost:(Cost_model.treap_step_cost model) "pint")
      in
      let config = mk_config (Cost_model.pint_core_cost model) stages workers in
      let r = Sim_exec.run ~config ~driver:det.Detector.driver inst.Workload.run in
      (* per-role means come from the detector's own naming/role reduction,
         so the harness never pattern-matches stage-name prefixes *)
      let clocks = r.Sim_exec.stage_clocks in
      let w = Pint_detector.role_mean Pint_detector.Writer clocks
      and l = Pint_detector.role_mean Pint_detector.Lreader clocks
      and rr = Pint_detector.role_mean Pint_detector.Rreader clocks in
      let clock_values = List.map (fun (_, c) -> float_of_int c) clocks in
      let time =
        if workers = 1 then
          (* §IV-A one-core configuration: core first, then access history —
             every treap-worker clock runs back to back *)
          List.fold_left ( +. ) (float_of_int r.Sim_exec.makespan) clock_values
        else
          (* each of the 3·shards treap workers has its own core: the run
             ends when the slowest component does *)
          List.fold_left Float.max (float_of_int r.Sim_exec.makespan) clock_values
      in
      finishup ~det:(Some det) ~sim_res:r ~time ~writer_time:w ~lreader_time:l ~rreader_time:rr
