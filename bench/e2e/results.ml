(* Statistics, the metric catalogue, and the benchmark's output formats. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The tail: p90, or with fewer than 110 samples the highest percentile
   that still has ten samples beyond it; the median when fewer than 21
   samples leave no such percentile above it. *)
let tail_index n = min (n * 9 / 10) (n - 11)

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 21 then median xs else a.(tail_index n)

let tail_rank n = if n < 21 then 0.5 else float_of_int (tail_index n + 1) /. float_of_int n

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* A printed line on a timing's samples: count, mean, median and tail. *)
let describe name xs =
  Printf.sprintf "  %s: %d samples, mean %.4f s, median %.4f s, p%.0f %.4f s" name (List.length xs)
    (mean xs) (median xs)
    (100. *. tail_rank (List.length xs))
    (tail xs)

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default "exclusive" method). *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then (median xs, median xs, median xs)
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)
  end

let secs ns = float_of_int ns /. 1e9

(* The end-to-end metrics every workload reports.  Names and units must
   match BENCHMARK.json; the --quick smoke checks that they do. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("detect_s", "s");
    ("base_s", "s");
    ("overhead_x", "x");
    ("rss_peak_mb", "MB");
  ]

let roles = [ "writer"; "lreader"; "rreader" ]

(* Per-layer metrics of a traced run, per traced operation.  A workload that
   does not exercise a layer reports it as 0. *)
let per_layer =
  [
    ("exec.core_s", "s");
    ("pipeline.tail_s", "s");
    ("exec.strand_s", "s");
    ("exec.sched_s", "s");
    ("pool.backoff_s", "s");
  ]
  @ List.concat_map
      (fun r ->
        let k s = Printf.sprintf "stage.%s.%s" r s in
        [
          (k "busy_s", "s");
          (k "idle_s", "s");
          (k "worked_frac", "frac");
          (k "records", "count");
          (k "visits", "count");
        ])
      roles
  @ [
      ("detect.hooks_s", "s");
      ("detect.sink_s", "s");
      ("detect.sink_calls", "count");
      ("exec.steals", "count");
      ("exec.steal_cas_failures", "count");
      ("exec.parks", "count");
      ("detect.lane_rejects", "count");
      ("detect.backpressure_waits", "count");
      ("detect.detect_span", "cost");
      ("tracefile.decode_s", "s");
      ("replay.walk_s", "s");
      ("predict.observer_s", "s");
      ("predict.predict_s", "s");
      ("predict.candidates", "count");
      ("predict.windows", "count");
      ("predict.pair_scans", "count");
      ("predict.treap_visits", "count");
      ("serve.accept_s", "s");
      ("serve.upload_s", "s");
      ("serve.result_s", "s");
      ("serve.bp_pauses", "count");
      ("serve.feed_us_p50", "us");
      ("serve.feed_us_p99", "us");
      ("serve.pool_parks", "count");
      ("unattributed_frac", "frac");
      ("trace_overhead_x", "x");
    ]

(* What one workload run hands back. *)
type run = {
  attempted : int;
  failed : int;
  values : (string * float) list;  (** metric name -> value *)
  samples : (string * float list) list;  (** the per-sample values behind medians *)
  notes : string list;  (** human-readable lines printed before the result *)
}

let catalogue ~traced = if traced then per_layer else end_to_end

(* The reported metrics in catalogue order.  Per-layer metrics a workload
   does not exercise read 0; a missing end-to-end metric, or any name
   outside the catalogue, is a benchmark bug. *)
let metrics ~traced (r : run) =
  let cat = catalogue ~traced in
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k cat) then failwith ("metric outside the catalogue: " ^ k))
    r.values;
  List.map
    (fun (k, unit) ->
      match List.assoc_opt k r.values with
      | Some v -> (k, v, unit)
      | None when traced -> (k, 0., unit)
      | None -> failwith ("end-to-end metric not measured: " ^ k))
    cat

let num v = if Float.is_finite v then Printf.sprintf "%.12g" v else "null"

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (k, v, u) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Spans.json_string k) (num v)
             (Spans.json_string u))
         ms)
  ^ "}"

let correct (r : run) ms = r.failed = 0 && List.for_all (fun (_, v, _) -> Float.is_finite v) ms

(* The result line, printed last on stdout: exactly these four keys. *)
let result_line r ms =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    (correct r ms) r.attempted r.failed (metrics_json ms)

(* ------------------------------------------------- provenance and /proc *)

(* Scratch files (the daemon's socket and output, Chrome traces) go under
   the build directory, which version control already ignores. *)
let work_dir = Filename.concat "_build" "e2e"

let work_file name =
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
    end
  in
  mkdir_p work_dir;
  Filename.concat work_dir name

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* /proc files report a length of 0, so read them to end of file. *)
let read_proc path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let b = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      Buffer.contents b)

(* Peak resident set size (VmHWM) of a process, in MiB. *)
let peak_rss_mb ?(pid = "self") () =
  let status = read_proc (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
      float_of_int kb /. 1024.)

(* Restart this process's peak at its current RSS, so that the next
   reading is the peak of what ran in between.  Best effort: where
   /proc/self/clear_refs is not writable the peak keeps counting from the
   process's start. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

(* The memory metric over per-operation peaks.  The peaks sit on a few
   discrete heap sizes, so their median jumps between levels from run to
   run where their mean moves smoothly. *)
let rss_of_peaks = mean

let nproc () =
  match read_proc "/proc/cpuinfo" with
  | s ->
      List.length
        (List.filter
           (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
           (String.split_on_char '\n' s))
  | exception Sys_error _ -> Domain.recommended_domain_count ()

(* The checked-out commit, read from .git without running git; "unknown"
   outside a git work tree. *)
let git_commit () =
  let trim = String.trim in
  match trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "unknown"
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let ref_ = trim (String.sub head 5 (String.length head - 5)) in
      match trim (read_file (Filename.concat ".git" ref_)) with
      | h -> h
      | exception Sys_error _ -> (
          match read_file ".git/packed-refs" with
          | exception Sys_error _ -> "unknown"
          | packed -> (
              let hit =
                List.find_opt
                  (fun l ->
                    match String.split_on_char ' ' l with
                    | [ _; r ] -> r = ref_
                    | _ -> false)
                  (String.split_on_char '\n' packed)
              in
              match hit with Some l -> List.hd (String.split_on_char ' ' l) | None -> "unknown")))
  | h -> h

let provenance ~seed =
  [
    ("seed", string_of_int seed);
    ("nproc", string_of_int (nproc ()));
    ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("commit", git_commit ());
  ]

(* One line of a result file (JSON Lines): the result plus provenance and
   every per-sample value, so later runs can be paired against it. *)
let record_line ~workload ~seed ~traced r ms =
  let obj kvs = "{" ^ String.concat ", " kvs ^ "}" in
  let field k v = Spans.json_string k ^ ": " ^ v in
  obj
    [
      field "workload" (Spans.json_string workload);
      field "seed" (string_of_int seed);
      field "trace" (if traced then "1" else "0");
      field "provenance"
        (obj (List.map (fun (k, v) -> field k (Spans.json_string v)) (provenance ~seed)));
      field "correct" (string_of_bool (correct r ms));
      field "attempted" (string_of_int r.attempted);
      field "failed" (string_of_int r.failed);
      field "metrics" (metrics_json ms);
      field "samples"
        (obj
           (List.map
              (fun (k, xs) -> field k ("[" ^ String.concat ", " (List.map num xs) ^ "]"))
              r.samples));
    ]

let append_line path line =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (line ^ "\n"))

(* ------------------------------------------------------- BENCHMARK.json *)

type declared = { d_name : string; d_unit : string; d_better : string; d_bound : float option }

type spec = { workloads : string list; e2e : declared list; layers : declared list }

let load_spec path =
  let j = Jsonx.parse (read_file path) in
  let str k o = Option.get (Option.bind (Jsonx.member k o) Jsonx.to_str) in
  let decls k =
    List.map
      (fun o ->
        {
          d_name = str "name" o;
          d_unit = str "unit" o;
          d_better = str "better" o;
          d_bound = Option.bind (Jsonx.member "bound" o) Jsonx.to_float;
        })
      (Option.get (Option.bind (Jsonx.member k j) Jsonx.to_list))
  in
  {
    workloads =
      List.map (str "name") (Option.get (Option.bind (Jsonx.member "workloads" j) Jsonx.to_list));
    e2e = decls "end_to_end";
    layers = decls "per_layer";
  }
