type fig1_row = {
  f1_name : string;
  base1 : float;
  stint1 : float;
  pint1 : float;
  cracer1 : float;
  base_p : float;
  pint_p : float;
  cracer_p : float;
}

let vsec = Systems.vsec

let default_sizes (w : Workload.t) = (w.default_size, w.default_base)

let run ~workload ~size ~base ~workers system =
  let m = Systems.run ~workload ~size ~base ~workers system in
  if not m.Systems.checked then
    failwith (Printf.sprintf "harness: %s result check failed" workload.Workload.name);
  if m.Systems.races <> 0 then
    failwith (Printf.sprintf "harness: %s unexpectedly reported races" workload.Workload.name);
  m

let fig1 ?(cores = 20) () =
  let rows =
    List.map
      (fun (w : Workload.t) ->
        let size, base = default_sizes w in
        let go sys workers = (run ~workload:w ~size ~base ~workers sys).Systems.time in
        {
          f1_name = w.name;
          base1 = go Systems.Base 1;
          stint1 = go Systems.Stint_sys 1;
          pint1 = go Systems.Pint_sys 1;
          cracer1 = go Systems.Cracer_sys 1;
          base_p = go Systems.Base cores;
          pint_p = go Systems.Pint_sys (cores - Cost_model.treap_workers ~shards:1);
          cracer_p = go Systems.Cracer_sys cores;
        })
      (Registry.all ())
  in
  let header =
    [
      "bench";
      "base(1)";
      "STINT(1)";
      "PINT(1)";
      "C-RACER(1)";
      Printf.sprintf "base(%d)" cores;
      Printf.sprintf "PINT(%d)" cores;
      Printf.sprintf "C-RACER(%d)" cores;
    ]
  in
  let body =
    List.map
      (fun r ->
        [
          r.f1_name;
          Table.t2 (vsec r.base1);
          Printf.sprintf "%s %s" (Table.t2 (vsec r.stint1)) (Table.bracket (r.stint1 /. r.base1));
          Printf.sprintf "%s %s" (Table.t2 (vsec r.pint1)) (Table.bracket (r.pint1 /. r.base1));
          Printf.sprintf "%s %s" (Table.t2 (vsec r.cracer1)) (Table.bracket (r.cracer1 /. r.base1));
          Table.t2 (vsec r.base_p);
          Printf.sprintf "%s %s" (Table.t2 (vsec r.pint_p)) (Table.x2p (r.pint1 /. r.pint_p));
          Printf.sprintf "%s %s" (Table.t2 (vsec r.cracer_p)) (Table.x2p (r.cracer1 /. r.cracer_p));
        ])
      rows
  in
  let txt =
    Table.render
      ~title:
        (Printf.sprintf
           "Figure 1: running times (virtual seconds). Left: one core, [overhead vs baseline]. \
            Right: %d cores, (scalability vs own 1-core time)."
           cores)
      ~header body
  in
  (rows, txt)

type fig2_row = {
  f2_name : string;
  par_overhead : float;
  core_work : float;
  writer_work : float;
  rreader_work : float;
  lreader_work : float;
  par_core : float;
  par_total : float;
}

let fig2 ?(cores = 20) () =
  let rows =
    List.map
      (fun (w : Workload.t) ->
        let size, base = default_sizes w in
        let stint1 = run ~workload:w ~size ~base ~workers:1 Systems.Stint_sys in
        let pint1 = run ~workload:w ~size ~base ~workers:1 Systems.Pint_sys in
        let pint_p = run ~workload:w ~size ~base ~workers:(cores - Cost_model.treap_workers ~shards:1) Systems.Pint_sys in
        {
          f2_name = w.name;
          par_overhead = pint1.Systems.time /. stint1.Systems.time;
          core_work = pint1.Systems.core_time;
          writer_work = pint1.Systems.writer_time;
          rreader_work = pint1.Systems.rreader_time;
          lreader_work = pint1.Systems.lreader_time;
          par_core = pint_p.Systems.core_time;
          par_total = pint_p.Systems.time;
        })
      (Registry.all ())
  in
  let header =
    [ "bench"; "par.ovh"; "core"; "writer"; "rreader"; "lreader"; "par.core"; "par.total" ]
  in
  let body =
    List.map
      (fun r ->
        [
          r.f2_name;
          Printf.sprintf "%.2f" r.par_overhead;
          Table.t2 (vsec r.core_work);
          Table.t2 (vsec r.writer_work);
          Table.t2 (vsec r.rreader_work);
          Table.t2 (vsec r.lreader_work);
          Table.t2 (vsec r.par_core);
          Table.t2 (vsec r.par_total);
        ])
      rows
  in
  let txt =
    Table.render
      ~title:
        (Printf.sprintf
           "Figure 2: PINT parallelization overhead (PINT1/STINT1), one-core work breakdown, and \
            %d-core core-vs-total times (virtual seconds, %d core workers)."
           cores (cores - Cost_model.treap_workers ~shards:1))
      ~header body
  in
  (rows, txt)

type fig3_cell = { total_t : float; core_t : float }

let fig3_benches = [ "heat"; "mmul"; "sort"; "stra" ]
let fig3_workers = [ 1; 4; 8; 16; 24; 32 ]

let fig3 () =
  let rows =
    List.map
      (fun name ->
        let w = Registry.find name in
        let size, base = default_sizes w in
        let cells =
          List.map
            (fun p ->
              let m = run ~workload:w ~size ~base ~workers:p Systems.Pint_sys in
              (p, { total_t = m.Systems.time; core_t = m.Systems.core_time }))
            fig3_workers
        in
        (name, cells))
      fig3_benches
  in
  let header = "bench" :: List.map (fun p -> Printf.sprintf "%d cw" p) fig3_workers in
  let body =
    List.map
      (fun (name, cells) ->
        name
        :: List.map
             (fun (_, c) ->
               if c.total_t > c.core_t *. 1.05 then
                 Printf.sprintf "%s (%s)" (Table.t2 (vsec c.total_t)) (Table.t2 (vsec c.core_t))
               else Table.t2 (vsec c.total_t))
             cells)
      rows
  in
  let txt =
    Table.render
      ~title:
        "Figure 3: PINT strong scaling over core-worker counts (virtual seconds; a \
         parenthesized value is the core-component time where the treap component dominates)."
      ~header body
  in
  (rows, txt)

type fig4_cell = { f4_workers : int; f4_size : int; f4_base_t : float; f4_pint : fig3_cell }

(* weak-scaling size ladders per the paper: heat/sort double the problem,
   mmul's dimension grows ~1.5x, stra's doubles (capped to keep the largest
   instance tractable) *)
let fig4_plan =
  [
    ("heat", [ (1, 64); (2, 91); (4, 128); (8, 181); (16, 256); (32, 362) ]);
    ("mmul", [ (1, 64); (2, 96); (4, 144); (8, 224); (16, 336); (32, 512) ]);
    ("sort", [ (1, 4096); (2, 8192); (4, 16384); (8, 32768); (16, 65536); (32, 131072) ]);
    ("stra", [ (1, 16); (2, 32); (4, 64); (8, 96); (16, 128); (32, 192) ]);
  ]

let fig4_base name size =
  match name with
  | "mmul" -> max 16 (size / 8)
  | "stra" -> max 16 (size / 4)
  | _ -> (Registry.find name).Workload.default_base

let fig4 () =
  let rows =
    List.map
      (fun (name, ladder) ->
        let w = Registry.find name in
        let cells =
          List.map
            (fun (p, size) ->
              let base = fig4_base name size in
              let b = run ~workload:w ~size ~base ~workers:p Systems.Base in
              let m = run ~workload:w ~size ~base ~workers:p Systems.Pint_sys in
              {
                f4_workers = p;
                f4_size = size;
                f4_base_t = b.Systems.time;
                f4_pint = { total_t = m.Systems.time; core_t = m.Systems.core_time };
              })
            ladder
        in
        (name, cells))
      fig4_plan
  in
  let header =
    "bench" :: "row"
    :: List.map (fun (p, _) -> Printf.sprintf "%d cw" p) (List.assoc "heat" fig4_plan)
  in
  let body =
    List.concat_map
      (fun (name, cells) ->
        [
          (name :: "baseline" :: List.map (fun c -> Table.t2 (vsec c.f4_base_t)) cells);
          ( ""
            :: "PINT"
            :: List.map
                 (fun c ->
                   if c.f4_pint.total_t > c.f4_pint.core_t *. 1.05 then
                     Printf.sprintf "%s (%s)"
                       (Table.t2 (vsec c.f4_pint.total_t))
                       (Table.t2 (vsec c.f4_pint.core_t))
                   else Table.t2 (vsec c.f4_pint.total_t))
                 cells );
          ( ""
            :: "overhead"
            :: List.map (fun c -> Table.x1 (c.f4_pint.total_t /. c.f4_base_t)) cells );
        ])
      rows
  in
  let txt =
    Table.render
      ~title:
        "Figure 4: weak scaling — the baseline runs on as many cores as PINT has core workers; \
         problem sizes grow with the worker count (virtual seconds; parenthesized = core time \
         when the treap component dominates)."
      ~header body
  in
  (rows, txt)
