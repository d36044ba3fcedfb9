type config = {
  detector : string;
  max_sessions : int;
  pool_workers : int;
  backlog_high : int;
  max_window : int;  (* largest per-session prediction window a Hello may request *)
}

let default_config =
  {
    detector = "pint";
    max_sessions = 4;
    pool_workers = 2;
    backlog_high = 4096;
    max_window = 16;
  }

(* One admitted tenant's detection state: its own fresh detector, its own
   replay session and obs session, and the lease its pipeline stages hold
   on the shared micropool. *)
type stream = {
  st_det : Detector.t;
  st_session : Replay.Session.t;
  st_lease : Micropool.lease;
  st_obs : Obs.t;
  st_feed_us : Histo.t; (* wall µs per Data-frame feed *)
  st_has_pipeline : bool;
  st_predict : int; (* prediction window; 0 = observed-only session *)
  st_builder : Predict.Builder.t option; (* strand DAG, built as the feed replays *)
  mutable st_bp_pauses : int; (* read pauses due to pipeline backlog *)
}

(* Connection state machine (DESIGN.md §14):
   Handshake → Streaming → Draining → Closing; rejects and stream errors
   jump straight to Closing with an ['X'] frame queued. *)
type phase =
  | Handshake
  | Streaming of stream
  | Draining of stream (* End seen; waiting for the lease, then summary *)
  | Closing (* flush the out queue, then close *)

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_in : Serve_proto.Frames.t;
  c_out : string Queue.t;
  mutable c_out_off : int; (* bytes of the head frame already written *)
  mutable c_phase : phase;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  pool : Micropool.shared;
  stop : bool Atomic.t;
  (* self-pipe: pool workers (lease completion) and [stop] write a byte to
     [wake_w]; [wake_r] is in every select read set, so the loop wakes on
     those events instead of on its poll tick *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable conns : conn list;
  mutable next_id : int;
  mutable accepted : int;
  mutable rejected : int;
  mutable completed : int;
  mutable failed : int;
}

let create ?(config = default_config) addr =
  let domain = Unix.domain_of_sockaddr addr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Unix.ADDR_UNIX path -> if Sys.file_exists path then Unix.unlink path);
  Unix.bind fd addr;
  Unix.listen fd (config.max_sessions * 2);
  Unix.set_nonblock fd;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    cfg = config;
    listen_fd = fd;
    pool = Micropool.shared config.pool_workers;
    stop = Atomic.make false;
    wake_r;
    wake_w;
    conns = [];
    next_id = 0;
    accepted = 0;
    rejected = 0;
    completed = 0;
    failed = 0;
  }

let sockaddr t = Unix.getsockname t.listen_fd

(* Runs on pool workers (a lease's notify) and in signal handlers: one
   non-blocking write that never raises.  A full pipe already holds a
   wake; a wake lost otherwise costs at most one poll tick. *)
let wake fd = try ignore (Unix.single_write_substring fd "!" 0 1) with Unix.Unix_error _ -> ()

(* Bytes left over after one read keep the pipe readable, so the next
   select returns at once and reads them. *)
let drain_wakes fd = try ignore (Unix.read fd (Bytes.create 64) 0 64) with Unix.Unix_error _ -> ()

(* only the false -> true transition writes: after [shutdown] has set the
   flag and closed the pipe, a late [stop] touches nothing *)
let stop t = if not (Atomic.exchange t.stop true) then wake t.wake_w

let stats t =
  [
    ("serve.accepted", float_of_int t.accepted);
    ("serve.rejected", float_of_int t.rejected);
    ("serve.completed", float_of_int t.completed);
    ("serve.failed", float_of_int t.failed);
    ("serve.pool_parks", float_of_int (Micropool.shared_parks t.pool));
  ]

let send c msg = Queue.push (Serve_proto.encode_server msg) c.c_out

let active_sessions t =
  List.length (List.filter (fun c -> c.c_phase <> Closing) t.conns)

(* ------------------------------------------------------------- per-conn IO *)

let close_conn t c =
  (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
  t.conns <- List.filter (fun c' -> c' != c) t.conns

let fail_conn t c msg =
  (match c.c_phase with
  | Streaming st | Draining st ->
      Replay.Session.abort st.st_session;
      t.failed <- t.failed + 1
  | Handshake -> t.failed <- t.failed + 1
  | Closing -> ());
  send c (Serve_proto.Reject msg);
  c.c_phase <- Closing

let start_stream t c ~shards ~predict =
  let cfg = t.cfg in
  let shards = if shards = 0 then 1 else shards in
  let obs = Obs.create ~clock:Clock.monotonic () in
  (* no collector backpressure: a shared-pool slot steps shard 0's
     collector and readers on one worker, so waiting out a full queue
     there could never succeed *)
  match Systems.make_detector ~shards ~obs cfg.detector with
  | None -> fail_conn t c (Printf.sprintf "unknown detector %S" cfg.detector)
  | Some (det, stages) ->
      (* session first (its driver sets up the detector's run), stages to
         the shared pool second — the ordering every executor guarantees *)
      let builder = if predict > 0 then Some (Predict.Builder.create ()) else None in
      let on_strand = Option.map Predict.Builder.observer builder in
      let session = Replay.Session.create ~wrap:(Obs_hooks.instrument obs) ?on_strand det in
      let lease =
        Micropool.submit ~notify:(fun () -> wake t.wake_w) t.pool (Systems.micropools stages)
      in
      let st =
        {
          st_det = det;
          st_session = session;
          st_lease = lease;
          st_obs = obs;
          st_feed_us = Obs.histo obs "serve.feed_us";
          st_has_pipeline = stages <> [];
          st_predict = predict;
          st_builder = builder;
          st_bp_pauses = 0;
        }
      in
      c.c_phase <- Streaming st;
      t.accepted <- t.accepted + 1;
      send c (Serve_proto.Accepted { session = c.c_id })

let race_msg races =
  Serve_proto.Races
    (List.map
       (fun (r : Report.race) -> (r.Report.kind, r.Report.prior, r.Report.current, r.Report.where))
       races)

let handle_msg t c msg =
  match (c.c_phase, msg) with
  | Handshake, Serve_proto.Hello { version; shards; predict } ->
      if version <> Serve_proto.protocol_version then
        fail_conn t c
          (Printf.sprintf "protocol version %d unsupported (server speaks %d)" version
             Serve_proto.protocol_version)
      else if predict < 0 || predict > t.cfg.max_window then
        fail_conn t c
          (Printf.sprintf "prediction window %d out of range (server allows 0..%d)" predict
             t.cfg.max_window)
      else if shards < 0 || shards > t.cfg.pool_workers then
        (* more shards than pool domains cannot run in parallel, and each
           one costs a treap triple, three queue cursors and a pool slot up
           front *)
        fail_conn t c
          (Printf.sprintf "shard count %d out of range (server allows 0..%d)" shards
             t.cfg.pool_workers)
      else start_stream t c ~shards ~predict
  | Streaming st, Serve_proto.Data chunk ->
      let t0 = Clock.now Clock.monotonic in
      let races = Replay.Session.feed st.st_session chunk in
      Histo.add st.st_feed_us (Clock.now Clock.monotonic - t0);
      if races <> [] then send c (race_msg races)
  | Streaming st, Serve_proto.End ->
      let t0 = Clock.now Clock.monotonic in
      let races = Replay.Session.eof st.st_session in
      Histo.add st.st_feed_us (Clock.now Clock.monotonic - t0);
      if races <> [] then send c (race_msg races);
      c.c_phase <- Draining st
  | (Handshake | Streaming _), _ -> fail_conn t c "unexpected message for this session state"
  | (Draining _ | Closing), _ -> fail_conn t c "message after end of stream"

(* A tenant whose pipeline lags its feed pauses reads: the unread socket
   fills, TCP/unix flow control pushes back on the client, and the shared
   pool catches up — per-session graceful degradation instead of unbounded
   queue rejects.  [collected] counts strands the collector has enqueued,
   so the difference is the in-flight backlog. *)
let conn_wants_read cfg c =
  match c.c_phase with
  | Handshake -> true
  | Streaming st ->
      let backlog =
        Replay.Session.fed_strands st.st_session
        - int_of_float (Detector.diag st.st_det "collected")
      in
      if st.st_has_pipeline && backlog > cfg.backlog_high then begin
        st.st_bp_pauses <- st.st_bp_pauses + 1;
        false
      end
      else true
  | Draining _ | Closing -> false

let read_chunk = Bytes.create 65536

let handle_readable t c =
  match Unix.read c.c_fd read_chunk 0 (Bytes.length read_chunk) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> fail_conn t c "read error"
  | 0 -> (
      (* peer closed: mid-stream this is an aborted session *)
      match c.c_phase with
      | Closing -> close_conn t c
      | Handshake -> close_conn t c
      | Streaming st | Draining st ->
          Replay.Session.abort st.st_session;
          t.failed <- t.failed + 1;
          c.c_phase <- Closing)
  | n -> (
      try
        Serve_proto.Frames.feed c.c_in ~len:n (Bytes.unsafe_to_string read_chunk);
        let continue = ref true in
        while !continue do
          match Serve_proto.Frames.next c.c_in with
          | Some payload -> handle_msg t c (Serve_proto.decode_client payload)
          | None -> continue := false
        done
      with
      | Serve_proto.Proto_error m -> fail_conn t c ("protocol error: " ^ m)
      | Tracefile.Error m -> fail_conn t c ("malformed trace stream: " ^ m)
      | Replay.Corrupt m -> fail_conn t c ("corrupt strand DAG: " ^ m))

let handle_writable t c =
  match Queue.peek_opt c.c_out with
  | None -> ()
  | Some s -> (
      let remaining = String.length s - c.c_out_off in
      match Unix.write_substring c.c_fd s c.c_out_off remaining with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ ->
          Queue.clear c.c_out;
          c.c_phase <- Closing;
          close_conn t c
      | n ->
          if n = remaining then begin
            ignore (Queue.pop c.c_out);
            c.c_out_off <- 0
          end
          else c.c_out_off <- c.c_out_off + n)

(* Detection runs on pool domains between feeds, so discoveries can land
   at any time: stream them as they appear rather than batching into the
   summary. *)
let poll_races c =
  match c.c_phase with
  | Streaming st | Draining st ->
      let late = Replay.Session.poll_races st.st_session in
      if late <> [] then send c (race_msg late)
  | Handshake | Closing -> ()

(* Predict sessions run the window-bounded reordering analysis over the
   DAG the feed built, after the observed outcome is final (the observed
   set suppresses already-reported pairs).  A DAG the predictor cannot use
   fails the session: an empty predicted block would read as "no races". *)
let predict_session st (o : Replay.outcome) =
  match st.st_builder with
  | None -> Ok ([], [])
  | Some b -> (
      match Predict.Builder.dag b with
      | exception Failure m -> Error ("prediction failed: " ^ m)
      | dag ->
          let pr = Predict.predict ~window:st.st_predict ~observed:o.Replay.races dag in
          Ok
            ( List.map
                (fun (f : Predict.finding) -> (f.kind, f.prior, f.current, f.where))
                pr.Predict.predicted,
              pr.Predict.diagnostics ))

(* Draining → Closing once the tenant's pipeline stages are all [`Done]:
   only then is it safe for this thread to drain the detector (stages are
   single-consumer, and the pool has stopped stepping them).  The lease's
   notify wakes the loop at that moment, through the self-pipe. *)
let finish_drained t c =
  match c.c_phase with
  | Draining st when Micropool.lease_done st.st_lease -> (
      st.st_det.Detector.drain ();
      (try st.st_det.Detector.validate ()
       with Failure m -> prerr_endline ("pint_serve: validate failed: " ^ m));
      let late = Replay.Session.poll_races st.st_session in
      if late <> [] then send c (race_msg late);
      let o = Replay.Session.outcome st.st_session in
      match predict_session st o with
      | Error m -> fail_conn t c m
      | Ok (predicted, predict_diags) ->
          let stats =
            List.map
              (fun (k, v) -> (k, Printf.sprintf "%.17g" v))
              (o.Replay.diagnostics @ predict_diags
              @ [ ("serve.bp_pauses", float_of_int st.st_bp_pauses) ]
              @ Obs.summary st.st_obs)
          in
          send c
            (Serve_proto.Summary
               {
                 n_strands = o.Replay.n_strands;
                 n_races = List.length o.Replay.races;
                 stats;
                 predicted;
               });
          t.completed <- t.completed + 1;
          c.c_phase <- Closing)
  | _ -> ()

let handle_accept t =
  match Unix.accept t.listen_fd with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | fd, _ ->
      Unix.set_nonblock fd;
      let c =
        {
          c_id = t.next_id;
          c_fd = fd;
          c_in = Serve_proto.Frames.create ();
          c_out = Queue.create ();
          c_out_off = 0;
          c_phase = Handshake;
        }
      in
      t.next_id <- t.next_id + 1;
      t.conns <- c :: t.conns;
      if active_sessions t > t.cfg.max_sessions then begin
        (* admission control: over-capacity clients get a framed reject,
           never a hung or slow session *)
        t.rejected <- t.rejected + 1;
        send c
          (Serve_proto.Reject
             (Printf.sprintf "server at capacity (%d sessions)" t.cfg.max_sessions));
        c.c_phase <- Closing
      end

let once t ~timeout =
  let rds =
    t.listen_fd :: t.wake_r
    :: List.filter_map (fun c -> if conn_wants_read t.cfg c then Some c.c_fd else None) t.conns
  in
  let wrs = List.filter_map (fun c -> if Queue.is_empty c.c_out then None else Some c.c_fd) t.conns in
  let rd, wr, _ =
    try Unix.select rds wrs [] timeout
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  if List.mem t.wake_r rd then drain_wakes t.wake_r;
  if List.mem t.listen_fd rd then handle_accept t;
  List.iter
    (fun c ->
      if List.mem c.c_fd rd then handle_readable t c;
      if List.mem c.c_fd wr then handle_writable t c)
    t.conns;
  List.iter poll_races t.conns;
  List.iter (fun c -> finish_drained t c) t.conns;
  List.iter
    (fun c -> if c.c_phase = Closing && Queue.is_empty c.c_out then close_conn t c)
    t.conns

(* Graceful shutdown: abort what is still streaming (firing each session's
   [on_done] so its lease can finish), flush rejects briefly, then stop the
   shared pool.  SIGTERM-safe end-to-end: the signal handler only flips the
   stop atomic and writes the wake pipe.  The pipe closes last, once the
   pool workers that write it have been joined. *)
let shutdown t =
  Atomic.set t.stop true;
  let addr = try Some (sockaddr t) with Unix.Unix_error _ -> None in
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  List.iter
    (fun c ->
      match c.c_phase with
      | Streaming st | Draining st ->
          Replay.Session.abort st.st_session;
          send c (Serve_proto.Reject "server shutting down");
          c.c_phase <- Closing
      | Handshake ->
          send c (Serve_proto.Reject "server shutting down");
          c.c_phase <- Closing
      | Closing -> ())
    t.conns;
  let deadline = Unix.gettimeofday () +. 1.0 in
  while t.conns <> [] && Unix.gettimeofday () < deadline do
    let wrs = List.filter_map (fun c -> if Queue.is_empty c.c_out then None else Some c.c_fd) t.conns in
    (match Unix.select [] wrs [] 0.05 with
    | _, wr, _ -> List.iter (fun c -> if List.mem c.c_fd wr then handle_writable t c) t.conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    List.iter
      (fun c -> if Queue.is_empty c.c_out then close_conn t c)
      t.conns
  done;
  List.iter (fun c -> close_conn t c) t.conns;
  Micropool.shutdown t.pool;
  Unix.close t.wake_r;
  Unix.close t.wake_w;
  match addr with
  | Some (Unix.ADDR_UNIX path) when Sys.file_exists path -> (
      try Sys.remove path with Sys_error _ -> ())
  | _ -> ()

let serve ?(poll = 0.02) t =
  while not (Atomic.get t.stop) do
    once t ~timeout:poll
  done;
  shutdown t
