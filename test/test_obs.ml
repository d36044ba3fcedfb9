(* Observability layer tests: ring wraparound and drop accounting, histogram
   bucket boundaries, deterministic sim traces, and the Chrome trace-event
   JSON schema (parses, one metadata record per track, per-track monotone
   timestamps). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ rings *)

let ring_wraparound () =
  let r = Evring.create ~clock:(Clock.counter ()) ~capacity:8 in
  for i = 0 to 19 do
    Evring.emit r ~kind:Ev.strand_finish ~arg:i
  done;
  check_int "recorded" 20 (Evring.recorded r);
  check_int "retained" 8 (Evring.retained r);
  check_int "dropped" 12 (Evring.dropped r);
  (* the retained window is the newest 8 events, oldest first *)
  let args = ref [] and last_ts = ref min_int and monotone = ref true in
  Evring.iter r (fun ~ts ~dur:_ ~kind:_ ~arg ->
      args := arg :: !args;
      if ts < !last_ts then monotone := false;
      last_ts := ts);
  Alcotest.(check (list int)) "newest window" [ 12; 13; 14; 15; 16; 17; 18; 19 ] (List.rev !args);
  check_bool "timestamps monotone" true !monotone

let ring_disabled_noop () =
  let r = Evring.null in
  Evring.emit r ~kind:Ev.strand_finish ~arg:1;
  Evring.emit_span r ~ts:5 ~dur:2 ~kind:Ev.treap_op ~arg:3;
  check_bool "disabled" true (not (Evring.enabled r));
  check_int "nothing recorded" 0 (Evring.recorded r);
  check_int "nothing dropped" 0 (Evring.dropped r)

let ring_span_advances_virtual_clock () =
  let clock = Clock.manual () in
  let r = Evring.create ~clock ~capacity:8 in
  Evring.emit_span r ~ts:100 ~dur:50 ~kind:Ev.treap_op ~arg:1;
  (* later implicit stamps must not go backwards past the span's end *)
  check_bool "clock caught up" true (Clock.now clock >= 150)

(* ------------------------------------------------------------- histograms *)

let histo_bucket_boundaries () =
  (* log2 buckets: 0 and 1 land in bucket 0; [2^k, 2^(k+1)) in bucket k *)
  check_int "0" 0 (Histo.bucket_of 0);
  check_int "1" 0 (Histo.bucket_of 1);
  check_int "2" 1 (Histo.bucket_of 2);
  check_int "3" 1 (Histo.bucket_of 3);
  check_int "4" 2 (Histo.bucket_of 4);
  check_int "7" 2 (Histo.bucket_of 7);
  check_int "8" 3 (Histo.bucket_of 8);
  check_int "1023" 9 (Histo.bucket_of 1023);
  check_int "1024" 10 (Histo.bucket_of 1024);
  check_int "negative clamps to 0" 0 (Histo.bucket_of (-5));
  check_int "2^20" 20 (Histo.bucket_of (1 lsl 20))

let histo_quantiles () =
  let h = Histo.create () in
  List.iter (Histo.add h) [ 1; 2; 4; 8; 16; 32; 64; 128 ];
  check_int "count" 8 (Histo.count h);
  check_int "max" 128 (Histo.max_value h);
  let p50 = Histo.quantile h 0.5 and p90 = Histo.quantile h 0.9 in
  check_bool "p50 <= p90" true (p50 <= p90);
  check_bool "p90 <= max" true (p90 <= Histo.max_value h);
  (* negative latencies (cross-timeline clamps) count in bucket 0 *)
  Histo.add h (-7);
  check_int "negative counted" 9 (Histo.count h)

let histo_merge () =
  let a = Histo.create () and b = Histo.create () in
  List.iter (Histo.add a) [ 1; 2; 3 ];
  List.iter (Histo.add b) [ 100; 200 ];
  Histo.merge_into ~src:b ~dst:a;
  check_int "merged count" 5 (Histo.count a);
  check_int "merged max" 200 (Histo.max_value a)

(* ------------------------------------------------- session and summary *)

let disabled_session () =
  let obs = Obs.disabled in
  check_bool "disabled" true (not (Obs.enabled obs));
  check_bool "null ring" true (Obs.track obs "x" == Evring.null);
  check_bool "dummy histo" true (Obs.histo obs "y" == Histo.dummy)

let track_get_or_create () =
  let obs = Obs.create ~clock:(Clock.counter ()) () in
  let a = Obs.track obs "writer" and b = Obs.track obs "writer" in
  check_bool "same ring" true (a == b);
  check_int "one track" 1 (List.length (Obs.tracks obs))

(* ------------------------------------------- profiled simulator runs *)

(* a full profiled heat run under the simulator: obs wired through the
   detector factory, driver instrumented, sim pinning the manual clock *)
let profiled_sim_run ?(seed = 11) ?(workers = 4) () =
  let w = Registry.find "heat" in
  let inst = w.Workload.make ~size:32 ~base:8 in
  let obs = Obs.create ~clock:(Clock.manual ()) () in
  let det, stages = Option.get (Systems.make_detector ~obs "pint") in
  let driver = Obs_hooks.instrument obs det.Detector.driver in
  let config =
    { Sim_exec.default_config with n_workers = workers; seed; stages; obs_clock = Obs.clock obs }
  in
  ignore (Sim_exec.run ~config ~driver inst.Workload.run);
  det.Detector.drain ();
  obs

let sim_trace_deterministic () =
  let j1 = Obs.chrome_json (profiled_sim_run ()) in
  let j2 = Obs.chrome_json (profiled_sim_run ()) in
  check_string "byte-identical" j1 j2;
  let j3 = Obs.chrome_json (profiled_sim_run ~workers:2 ()) in
  check_bool "schedule changes the trace" true (j1 <> j3)

let latency_histos_populated () =
  let obs = profiled_sim_run () in
  let n name = Histo.count (Obs.histo obs name) in
  check_bool "finish_to_collect populated" true (n "lat.finish_to_collect" > 0);
  check_bool "finish_to_done populated" true (n "lat.finish_to_done" > 0);
  (* every strand passes collect and completion exactly once *)
  check_int "collect = done" (n "lat.finish_to_collect") (n "lat.finish_to_done")

let summary_metrics () =
  let obs = profiled_sim_run () in
  let s = Obs.summary obs in
  let get k = match List.assoc_opt k s with Some v -> v | None -> -1. in
  check_bool "events > 0" true (get "obs.events" > 0.);
  check_bool "tracks counted" true (get "obs.tracks" >= 7.);
  check_bool "occupancy tracked" true (get "obs.ahq_occupancy.max" > 0.)

(* ---------------------------------------------------- Chrome JSON schema *)

let chrome_schema () =
  let obs = profiled_sim_run () in
  let j = Jsonx.parse (Obs.chrome_json ~meta:[ ("k", "v") ] obs) in
  let events =
    match Option.bind (Jsonx.member "traceEvents" j) Jsonx.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  check_bool "has events" true (List.length events > 0);
  let str m e = Option.bind (Jsonx.member m e) Jsonx.to_str in
  let num m e = Option.bind (Jsonx.member m e) Jsonx.to_float in
  (* one thread_name metadata record per track, covering all stage tracks *)
  let names =
    List.filter_map
      (fun e ->
        if str "ph" e = Some "M" then Option.bind (Jsonx.member "args" e) (str "name") else None)
      events
  in
  List.iter
    (fun t -> check_bool (t ^ " track present") true (List.mem t names))
    [ "writer"; "lreader"; "rreader"; "core0" ];
  (* per-track timestamps are monotone, and every event carries ph/ts/tid *)
  let last = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match str "ph" e with
      | Some "M" -> ()
      | Some _ ->
          let tid =
            match num "tid" e with Some t -> t | None -> Alcotest.fail "event without tid"
          in
          let ts =
            match num "ts" e with Some t -> t | None -> Alcotest.fail "event without ts"
          in
          let prev = match Hashtbl.find_opt last tid with Some p -> p | None -> neg_infinity in
          check_bool "ts monotone per tid" true (ts >= prev);
          Hashtbl.replace last tid ts
      | None -> Alcotest.fail "event without ph")
    events;
  (* the meta pair lands in otherData *)
  match Option.bind (Jsonx.member "otherData" j) (fun o -> Jsonx.member "k" o) with
  | Some (Jsonx.Str "v") -> ()
  | _ -> Alcotest.fail "meta not exported"

let () =
  Alcotest.run "pint_obs"
    [
      ( "rings",
        [
          Alcotest.test_case "wraparound + drop accounting" `Quick ring_wraparound;
          Alcotest.test_case "disabled ring no-op" `Quick ring_disabled_noop;
          Alcotest.test_case "span advances virtual clock" `Quick ring_span_advances_virtual_clock;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "bucket boundaries" `Quick histo_bucket_boundaries;
          Alcotest.test_case "quantile ordering" `Quick histo_quantiles;
          Alcotest.test_case "merge" `Quick histo_merge;
        ] );
      ( "session",
        [
          Alcotest.test_case "disabled session" `Quick disabled_session;
          Alcotest.test_case "track get-or-create" `Quick track_get_or_create;
        ] );
      ( "profiled-sim",
        [
          Alcotest.test_case "deterministic trace" `Quick sim_trace_deterministic;
          Alcotest.test_case "latency histograms" `Quick latency_histos_populated;
          Alcotest.test_case "summary metrics" `Quick summary_metrics;
        ] );
      ("chrome", [ Alcotest.test_case "trace-event schema" `Quick chrome_schema ]);
    ]
