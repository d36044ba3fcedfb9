(* Per-layer numbers of a traced run, from the recorded spans. *)

(* Values per traced operation.  [phases] name the spans that frame an
   operation instead of timing a call into a layer: its root span and
   phases such as a live run's [exec.core].  A phase's [_s] metric is its
   duration; every other span's is its self time (its duration minus what
   its child spans cover).

   [domain_ns] is the time the traced operations held their domains: for
   each domain an operation runs on, the part of its wall time that domain
   works for it, summed.  [unattributed_frac] is the share of [domain_ns]
   that no layer's self time covers: executor scheduling, steals, parks and
   pool back-off between stage steps, domain start-up, and the benchmark's
   own glue.  [ops] is the number of traced operations and [overhead] the
   traced/untraced wall ratio.  Also returns the self-time table as
   printable lines. *)
let layers ~ops ~phases ~domain_ns ~overhead =
  let tbl = Spans.table () in
  let phase name = List.mem name phases in
  let calls name =
    match List.find_opt (fun (n, _, _, _) -> n = name) tbl with Some (_, c, _, _) -> c | None -> 0
  in
  let per ns = Results.secs ns /. ops in
  let times =
    List.filter_map
      (fun (name, _, total, self) ->
        let k = name ^ "_s" in
        if not (List.mem_assoc k Results.per_layer) then None
        else Some (k, per (if phase name then total else self)))
      tbl
  in
  let worked =
    List.map
      (fun r ->
        let b = calls ("stage." ^ r ^ ".busy") and i = calls ("stage." ^ r ^ ".idle") in
        ( Printf.sprintf "stage.%s.worked_frac" r,
          if b + i = 0 then 0. else float_of_int b /. float_of_int (b + i) ))
      Results.roles
  in
  let covered =
    List.fold_left (fun acc (name, _, _, self) -> if phase name then acc else acc + self) 0 tbl
  in
  let share ns = 100. *. float_of_int ns /. float_of_int (max 1 domain_ns) in
  let unattributed = 1. -. (float_of_int covered /. float_of_int (max 1 domain_ns)) in
  let lines =
    Printf.sprintf "%-26s %10s %12s %12s %12s" "span (per traced op)" "calls" "total s" "self s"
      "self/domain"
    :: List.map
         (fun (name, n, total, self) ->
           Printf.sprintf "%-26s %10.1f %12.6f %12s %12s" name
             (float_of_int n /. ops)
             (per total)
             (if phase name then "phase" else Printf.sprintf "%.6f" (per self))
             (if phase name then "" else Printf.sprintf "%.1f%%" (share self)))
         tbl
    @ [
        Printf.sprintf "domain time %.6f s per op; unattributed_frac = %.4f (covered by no layer)"
          (per domain_ns) unattributed;
        Printf.sprintf "trace_overhead_x = %.3f (traced over untraced wall)" overhead;
      ]
  in
  ( times @ worked
    @ [
        ("detect.sink_calls", float_of_int (calls "detect.sink") /. ops);
        ("unattributed_frac", unattributed);
        ("trace_overhead_x", overhead);
      ],
    lines )

(* [stage.<role>.{records,visits}] summed over shards, per operation, from
   detector diagnostics ([stage.<stage>.<counter>] keys) concatenated over
   [ops] operations. *)
let stage_counts ~ops diags =
  List.concat_map
    (fun role ->
      let sum field =
        List.fold_left
          (fun acc (k, v) ->
            match String.split_on_char '.' k with
            | [ "stage"; st; f ] when f = field && Probes.role_name st = role -> acc +. v
            | _ -> acc)
          0. diags
      in
      [
        (Printf.sprintf "stage.%s.records" role, sum "records" /. ops);
        (Printf.sprintf "stage.%s.visits" role, sum "visits" /. ops);
      ])
    Results.roles
