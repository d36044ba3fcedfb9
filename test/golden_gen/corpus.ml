(* The golden corpus: every committed trace under test/golden, as the
   capture that regenerates it.  The workload traces are the serial racy
   captures that [pint_run -w W -n N -b B -d none -e seq --seed 1 --racy
   --capture] writes, meta included; lucky is synthetic ([Lucky]). *)

let workload_trace ~workload ~size ~base () =
  let w = Registry.find workload in
  let inst = (Option.get w.Workload.racy) ~size ~base in
  let meta =
    [
      ("workload", workload);
      ("size", string_of_int size);
      ("base", string_of_int base);
      ("racy", "true");
      ("detector", "none");
      ("exec", "seq");
      ("seed", "1");
    ]
  in
  let d = Nodetect.make () in
  let driver, finished = Tracefile.capturing ~meta d.Detector.driver in
  ignore (Sim_exec.run ~config:Sim_exec.serial ~driver inst.Workload.run);
  finished ()

(* (file name without ".trace", capture) *)
let workload_traces =
  [
    ("heat_racy", workload_trace ~workload:"heat" ~size:32 ~base:8);
    ("mmul_racy", workload_trace ~workload:"mmul" ~size:16 ~base:4);
    ("sort_racy", workload_trace ~workload:"sort" ~size:64 ~base:16);
  ]

let traces = ("lucky_racy", Lucky.trace) :: workload_traces
