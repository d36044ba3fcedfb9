(* serve-mix: closed-loop session traffic against a `pint_serve daemon`
   child on a Unix socket, started with --domains nproc-1 --max-sessions
   nproc and every other flag at its default (shards 2).  The same layers
   as trace-analysis, used differently: chunked decode and the session walk
   on the daemon's single IO thread, the pipeline on shared pool domains,
   and prediction on the IO thread at end of stream, blocking the other
   session.

   The mix is the trace-analysis corpus plus one clean sort capture, one
   session each; the racy sort capture and the `lucky_racy` golden trace
   request `predict 2`.  Load comes from this process only: nproc client
   domains, one connection each, every client sending its next session as
   soon as the previous one's Summary arrives.  A session's latency runs
   from connect to its Summary frame.  Sessions are served in blocks of one
   mix each, in an order drawn from the seed for every round; in each round
   a block with prediction on and one with prediction off serve the same
   order.

   Not an open loop at fixed rates: a daemon with spare capacity idles in
   its 20 ms select timeout and sends a Summary on the first tick after the
   session's pipeline finishes, so open-loop latencies move in 20 ms steps
   as the host's speed drifts, and no percentile of them repeated from run
   to run.  A closed loop keeps the IO thread busy with the other
   connection's frames. *)

type session = {
  e : Analysis.entry;
  predict : int;
  predicted : (Report.kind * int * int) list;  (** offline window-[predict] reference *)
}

let clients () = Domain.recommended_domain_count ()
let predicting = [ "sort-racy"; "lucky_racy" ]
let window = 2

let s_session = Spans.name "serve.session"
and s_accept = Spans.name "serve.accept"
and s_upload = Spans.name "serve.upload"
and s_result = Spans.name "serve.result"

let without_predict s = { s with predict = 0; predicted = [] }

let predicted_reference ~window (e : Analysis.entry) =
  if window = 0 then []
  else begin
    let det, _ = Option.get (Systems.make_detector "pint") in
    let b = Predict.Builder.create () in
    let o =
      Replay.run ~on_strand:(Predict.Builder.observer b) (Tracefile.of_bytes e.Analysis.bytes) det
    in
    let r = Predict.predict ~window ~observed:o.Replay.races (Predict.Builder.dag b) in
    List.sort_uniq compare
      (List.map
         (fun (f : Predict.finding) -> (f.Predict.kind, f.Predict.prior, f.Predict.current))
         r.Predict.predicted)
  end

(* The mix: the trace-analysis corpus plus a clean sort capture, with the
   offline references the output checks need. *)
let mix ~quick ~seed =
  let shapes = Analysis.shapes ~quick in
  let clean = if quick then ("sort", 8192, 512) else ("sort", 262144, 512) in
  let sort_clean =
    Analysis.entry "sort-clean"
      (Analysis.capture ~seed:(seed + List.length shapes) ~racy:false clean)
  in
  Array.of_list
    (List.map
       (fun e ->
         let predict = if List.mem e.Analysis.name predicting then window else 0 in
         { e; predict; predicted = predicted_reference ~window:predict e })
       (Analysis.corpus ~quick ~seed @ [ sort_clean ]))

(* A fresh order of the mix (Fisher-Yates). *)
let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------- daemon *)

type daemon = { pid : int; sock : string; out : string }

let live_daemons = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_daemons)

(* bin/pint_serve.exe of the same build tree as this executable *)
let daemon_exe () =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ ".."; ".."; "bin"; "pint_serve.exe" ]

let start_daemon k =
  let name ext = Results.work_file (Printf.sprintf "serve-%d-%d.%s" (Unix.getpid ()) k ext) in
  let sock = name "sock" and out = name "out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let n = clients () in
  let pid =
    Unix.create_process (daemon_exe ())
      [|
        "pint_serve"; "daemon"; "--socket"; sock; "--domains"; string_of_int (max 1 (n - 1));
        "--max-sessions"; string_of_int n;
      |]
      Unix.stdin fd Unix.stderr
  in
  Unix.close fd;
  live_daemons := pid :: !live_daemons;
  (* ready once it prints its listening line, which comes after its
     SIGTERM handler is installed: a daemon that merely accepts
     connections may still die of the default action when stopped *)
  let deadline = Spans.now () + 10_000_000_000 in
  let rec wait () =
    let out = Results.read_file out in
    if not (String.contains out '\n') then begin
      if Spans.now () > deadline || fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then
        failwith "pint_serve daemon did not start";
      Unix.sleepf 0.002;
      wait ()
    end
  in
  wait ();
  { pid; sock; out }

(* SIGTERM, and check the daemon exits 0 having failed no session.  Returns
   (ok, its peak RSS in MiB, its final counters). *)
let stop_daemon d =
  let rss = Results.peak_rss_mb ~pid:(string_of_int d.pid) () in
  Unix.kill d.pid Sys.sigterm;
  let _, status = Unix.waitpid [] d.pid in
  live_daemons := List.filter (( <> ) d.pid) !live_daemons;
  let stats =
    List.filter_map
      (fun l ->
        match List.filter (( <> ) "") (String.split_on_char ' ' l) with
        | [ k; v ] -> Option.map (fun v -> (k, v)) (float_of_string_opt v)
        | _ -> None)
      (String.split_on_char '\n' (Results.read_file d.out))
  in
  (status = Unix.WEXITED 0 && List.assoc_opt "serve.failed" stats = Some 0., rss, stats)

(* ------------------------------------------------------------- client *)

type timing = { sent : int; accepted : int; uploaded : int; finished : int }

type outcome = {
  trace : string;  (** the session's trace *)
  t : timing;
  error : string option;  (** why the session failed *)
  stats : (string * float) list;  (** the Summary's key-values *)
}

let send_all fd s =
  let rec go off =
    if off < String.length s then
      match Unix.write_substring fd s off (String.length s - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let read_frame fd frames buf =
  let rec go () =
    match Serve_proto.Frames.next frames with
    | Some payload -> Some (Serve_proto.decode_server payload)
    | None -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> None
        | n ->
            Serve_proto.Frames.feed frames ~len:n (Bytes.unsafe_to_string buf);
            go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

(* One blocking session, the protocol [Serve_client.run] speaks, with a
   timestamp at each client-side phase boundary. *)
let session ~sock s =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let buf = Bytes.create 65536 in
  let sent = Spans.now () in
  let t = { sent; accepted = sent; uploaded = sent; finished = sent } in
  let name = s.e.Analysis.name in
  let fail t why =
    let t = { t with finished = Spans.now () } in
    { trace = name; t; error = Some (name ^ ": " ^ why); stats = [] }
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        Unix.connect fd (Unix.ADDR_UNIX sock);
        let frames = Serve_proto.Frames.create () in
        send_all fd
          (Serve_proto.encode_client
             (Serve_proto.Hello
                { version = Serve_proto.protocol_version; shards = 0; predict = s.predict }));
        match read_frame fd frames buf with
        | Some (Serve_proto.Accepted _) ->
            let t = { t with accepted = Spans.now () } in
            let bytes = s.e.Analysis.bytes in
            let n = String.length bytes in
            let rec upload off =
              if off < n then begin
                let len = min Serve_client.default_chunk (n - off) in
                send_all fd
                  (Serve_proto.encode_client (Serve_proto.Data (String.sub bytes off len)));
                upload (off + len)
              end
            in
            upload 0;
            send_all fd (Serve_proto.encode_client Serve_proto.End);
            let t = { t with uploaded = Spans.now () } in
            let rec collect races =
              match read_frame fd frames buf with
              | Some (Serve_proto.Races rs) -> collect (List.rev_append rs races)
              | Some (Serve_proto.Summary { n_strands; stats; predicted; _ }) ->
                  let error =
                    if Serve_client.signature races <> s.e.Analysis.stint then
                      Some (name ^ ": served race set differs from Stint's")
                    else if n_strands <> s.e.Analysis.strands then
                      Some
                        (Printf.sprintf "%s: %d strands served of %d" name n_strands
                           s.e.Analysis.strands)
                    else if Serve_client.signature predicted <> s.predicted then
                      Some (name ^ ": served predictions differ from the offline prediction")
                    else None
                  in
                  {
                    trace = name;
                    t = { t with finished = Spans.now () };
                    error;
                    stats =
                      List.filter_map
                        (fun (k, v) -> Option.map (fun v -> (k, v)) (float_of_string_opt v))
                        stats;
                  }
              | Some (Serve_proto.Reject m) -> fail t ("rejected: " ^ m)
              | Some _ -> fail t "unexpected frame"
              | None -> fail t "connection closed before the summary"
            in
            collect []
        | Some (Serve_proto.Reject m) -> fail t ("rejected: " ^ m)
        | Some _ -> fail t "unexpected first frame"
        | None -> fail t "connection closed during the handshake"
      with
      | Unix.Unix_error (e, f, _) -> fail t (f ^ ": " ^ Unix.error_message e)
      | Serve_proto.Proto_error m -> fail t ("protocol error: " ^ m))

let latency o = o.t.finished - o.t.sent

(* One block over the client domains, each taking the next session as soon
   as its previous one ends.  Under tracing each session is a
   [serve.session] span split into the client-side phases. *)
let run_block ~sock block =
  let n = Array.length block in
  let out = Array.make n None in
  let next = Atomic.make 0 in
  let traced = Spans.enabled () in
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      let o = session ~sock block.(i) in
      if traced then begin
        let track = Printf.sprintf "session%02d" i and t = o.t in
        let root = Spans.record ~track s_session ~parent:Spans.root t.sent t.finished in
        List.iter
          (fun (name, a, b) -> ignore (Spans.record ~track name ~parent:root a b))
          [
            (s_accept, t.sent, t.accepted);
            (s_upload, t.accepted, t.uploaded);
            (s_result, t.uploaded, t.finished);
          ]
      end;
      out.(i) <- Some o;
      worker ()
    end
  in
  List.iter Domain.join (List.init (clients ()) (fun _ -> Domain.spawn worker));
  Array.to_list (Array.map Option.get out)

(* One block as measured: the calibration kernel's time before it, its
   sessions' outcomes and its wall time. *)
type block = { kernel : int; os : outcome list; wall_ns : int }

let block_mean f b = Results.mean (List.map (fun o -> f b (latency o)) b.os)
let scaled b ns = Calib.scaled ~domains:(clients ()) ~kernel:b.kernel ns
let raw _ ns = Results.secs ns

(* Rounds until [seconds] have passed (at least one).  Each round draws a
   fresh order of [mix] from [rng] and serves it once per side, each side
   mapping every session through its function; the sides take turns going
   first, so that every side meets the same host phases.  The calibration
   kernel runs on nproc domains before each block, while the daemon is
   idle, and scales the block's latencies.  Blocks of the sides listed in
   [traced] are traced.  Returns every side's blocks, in round order. *)
let rounds ~d ~rng ~seconds ~mix ~sides ~traced =
  let n = Array.length sides in
  let out = Array.make n [] in
  let deadline = Spans.now () + int_of_float (seconds *. 1e9) in
  let r = ref 0 in
  while !r = 0 || Spans.now () < deadline do
    let order = shuffle rng mix in
    let turn = List.init n Fun.id in
    List.iter
      (fun side ->
        let kernel = Calib.measure ~domains:(clients ()) () in
        if List.mem side traced then begin
          Spans.enable ();
          Spans.set_run ((!r * n) + side)
        end;
        let t0 = Spans.now () in
        let os = run_block ~sock:d.sock (Array.map sides.(side) order) in
        let wall_ns = Spans.now () - t0 in
        Spans.disable ();
        out.(side) <- { kernel; os; wall_ns } :: out.(side))
      (if !r mod 2 = 0 then turn else List.rev turn);
    incr r
  done;
  Array.map List.rev out

let run ~quick ~seed ~seconds ~traced =
  let attempted = ref 0 and failed = ref 0 and first_error = ref None in
  let check_stop d =
    let ok, rss, stats = stop_daemon d in
    incr attempted;
    if not ok then begin
      incr failed;
      first_error := Some "the daemon did not exit 0 with serve.failed 0 on SIGTERM"
    end;
    (rss, stats)
  in
  (* set-up: the mix, its references and a started daemon, three times; the
     first two daemons are stopped again *)
  let built = ref None in
  let setups =
    List.init 3 (fun k ->
        Option.iter (fun (_, d) -> ignore (check_stop d)) !built;
        let kernel = Calib.measure () in
        let t0 = Spans.now () in
        let m = mix ~quick ~seed in
        built := Some (m, start_daemon k);
        Calib.scaled ~kernel (Spans.now () - t0))
  in
  let mix, d = Option.get !built in
  let rng = Random.State.make [| seed |] in
  let measure ~sides ~traced =
    let out = rounds ~d ~rng ~seconds ~mix ~sides ~traced in
    Array.iter
      (List.iter (fun b ->
           attempted := !attempted + List.length b.os;
           List.iter
             (fun o ->
               Option.iter
                 (fun why ->
                   incr failed;
                   if !first_error = None then first_error := Some why)
                 o.error)
             b.os))
      out;
    out
  in
  let sessions f bs = List.concat_map (fun b -> List.map (fun o -> f b (latency o)) b.os) bs in
  let note =
    Printf.sprintf "serve-mix: %d sessions per block (%s) over %d client connections, daemon %s"
      (Array.length mix)
      (String.concat " " (Array.to_list (Array.map (fun s -> s.e.Analysis.name) mix)))
      (clients ()) (daemon_exe ())
  in
  let failure () = Option.to_list (Option.map (( ^ ) "first failure: ") !first_error) in
  if not traced then begin
    let out = measure ~sides:[| Fun.id; without_predict |] ~traced:[] in
    let on = out.(0) and off = out.(1) in
    let rss, _ = check_stop d in
    (* per block, the mean session latency: every block serves the whole
       mix once, so its mean is the mix's mean latency, while single
       sessions fall into cost classes and leave on the daemon's select
       ticks.  Reported is the mean over blocks, not the median: over eight
       seeds it repeated within 4%, the median within 5-7%. *)
    let detect = List.map (block_mean scaled) on and base = List.map (block_mean scaled) off in
    (* what prediction adds to the mean latency: both sides' blocks
       alternate through the same host phases, so raw times compare *)
    let overhead =
      Results.mean (List.map (block_mean raw) on) /. Results.mean (List.map (block_mean raw) off)
    in
    let wall = List.fold_left (fun acc b -> acc +. scaled b b.wall_ns) 0. (on @ off) in
    {
      Results.attempted = !attempted;
      failed = !failed;
      values =
        [
          ("setup_s", Results.median setups);
          ("detect_s", Results.mean detect);
          ("base_s", Results.mean base);
          ("overhead_x", overhead);
          ("rss_peak_mb", rss);
        ];
      samples =
        [
          ("setup_s", setups);
          ("detect_s", detect);
          ("base_s", base);
          ("detect_kernel_s", List.map (fun b -> Results.secs b.kernel) on);
          ("base_kernel_s", List.map (fun b -> Results.secs b.kernel) off);
          ("detect_wall_s", List.map (block_mean raw) on);
          ("base_wall_s", List.map (block_mean raw) off);
          ("detect_session_s", sessions scaled on);
          ("base_session_s", sessions scaled off);
        ];
      notes =
        [
          note;
          Printf.sprintf "%d rounds of a block with prediction on and one with it off"
            (List.length on);
          Results.describe "sessions, predict on" (sessions scaled on);
          Results.describe "sessions, predict off" (sessions scaled off);
          Printf.sprintf "throughput: %.2f sessions per nominal second"
            (float_of_int (Array.length mix * List.length (on @ off)) /. wall);
          "  mean session latency per trace (s), predict on / off:";
        ]
        @ Array.to_list
            (Array.map
               (fun s ->
                 let of_trace bs =
                   Results.mean
                     (List.concat_map
                        (fun b ->
                          List.filter_map
                            (fun o ->
                              if o.trace = s.e.Analysis.name then Some (scaled b (latency o))
                              else None)
                            b.os)
                        bs)
                 in
                 Printf.sprintf "    %-12s %8.4f %8.4f" s.e.Analysis.name (of_trace on)
                   (of_trace off))
               mix)
        @ failure ();
    }
  end
  else begin
    (* untraced and traced blocks alternate, prediction on *)
    let out = measure ~sides:[| Fun.id; Fun.id |] ~traced:[ 1 ] in
    let plain = out.(0) and traced = out.(1) in
    let _, daemon_stats = check_stop d in
    let traced_os = List.concat_map (fun b -> b.os) traced in
    let ops = float_of_int (List.length traced_os) in
    let total bs = List.fold_left ( +. ) 0. (sessions raw bs) in
    let layers, lines =
      (* a session holds one client domain from connect to Summary *)
      Trace_report.layers ~ops ~phases:[ "serve.session" ]
        ~domain_ns:(List.fold_left (fun acc o -> acc + latency o) 0 traced_os)
        ~overhead:(total traced /. total plain)
    in
    let stat k o = Option.value ~default:0. (List.assoc_opt k o.stats) in
    let served = float_of_int (Array.length mix * List.length (plain @ traced)) in
    {
      Results.attempted = !attempted;
      failed = !failed;
      values =
        layers
        @ Trace_report.stage_counts ~ops (List.concat_map (fun o -> o.stats) traced_os)
        @ [
            ( "serve.bp_pauses",
              List.fold_left (fun acc o -> acc +. stat "serve.bp_pauses" o) 0. traced_os /. ops );
            ( "serve.feed_us_p50",
              Results.median (List.map (stat "obs.h.serve.feed_us.p50") traced_os) );
            ( "serve.feed_us_p99",
              Results.median (List.map (stat "obs.h.serve.feed_us.p99") traced_os) );
            ( "serve.pool_parks",
              Option.value ~default:0. (List.assoc_opt "serve.pool_parks" daemon_stats) /. served );
          ];
      samples = [ ("traced_s", sessions raw traced); ("untraced_s", sessions raw plain) ];
      notes =
        (note :: Results.describe "untraced sessions" (sessions raw plain) :: lines) @ failure ();
    }
  end
