(* Service-layer tests: streaming Replay.Session fidelity (chunked feeds,
   shared-pool pipelines), and the pint_serve daemon driven in-process —
   concurrent tenants over the golden corpus must be served race sets
   bit-identical to offline replay at the Theorem-5 (kind, prior, current)
   granularity, over-admission must be rejected with a framed error, and a
   mid-stream disconnect must leave the daemon responsive. *)

let check_bool = Alcotest.(check bool)

let golden_files () =
  let dir = "golden" in
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".trace")
    |> List.sort compare
    |> List.map (Filename.concat dir)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let key (r : Report.race) = (r.Report.kind, r.Report.prior, r.Report.current)
let signature races = List.sort_uniq compare (List.map key races)

let offline_sig bytes =
  let t = Tracefile.of_bytes bytes in
  let d, _ = Option.get (Systems.make_detector "pint") in
  signature (Replay.run t d).Replay.races

(* ------------------------------------------------------------- sessions *)

let feed_all s bytes chunk =
  let acc = ref [] in
  let n = String.length bytes in
  let pos = ref 0 in
  while !pos < n do
    let len = min chunk (n - !pos) in
    acc := List.rev_append (Replay.Session.feed s ~pos:!pos ~len bytes) !acc;
    pos := !pos + len
  done;
  acc := List.rev_append (Replay.Session.eof s) !acc;
  !acc

(* Chunked session feed = offline replay, at every chunk size (splitting
   varints, interval arrays and the CRC across feed boundaries). *)
let check_session path () =
  let bytes = read_file path in
  let expected = offline_sig bytes in
  List.iter
    (fun chunk ->
      let det, _ = Option.get (Systems.make_detector "pint") in
      let s = Replay.Session.create det in
      let races = feed_all s bytes chunk in
      det.Detector.drain ();
      let races = List.rev_append (Replay.Session.poll_races s) races in
      det.Detector.validate ();
      if signature races <> expected then
        Alcotest.failf "%s: chunk=%d session diverges from offline replay (%d vs %d races)"
          path chunk
          (List.length (signature races))
          (List.length expected);
      let o = Replay.Session.outcome s in
      check_bool (path ^ ": outcome races match") true (signature o.Replay.races = expected))
    [ 1; 97; 65536 ]

(* The same with the detector's pipeline on shared pool domains, detection
   racing the feed. *)
let check_session_pool path () =
  let bytes = read_file path in
  let expected = offline_sig bytes in
  let pool = Micropool.shared 2 in
  Fun.protect
    ~finally:(fun () -> Micropool.shutdown pool)
    (fun () ->
      let det, stages =
        Option.get
          (Systems.make_detector ~shards:2
             ~bp_rounds:Pint_detector.recommended_bp_rounds "pint")
      in
      let s = Replay.Session.create det in
      let lease = Micropool.submit pool (Systems.micropools stages) in
      let races = feed_all s bytes 512 in
      Micropool.await lease;
      det.Detector.drain ();
      let races = List.rev_append (Replay.Session.poll_races s) races in
      det.Detector.validate ();
      if signature races <> expected then
        Alcotest.failf "%s: pooled session diverges from offline replay (%d vs %d races)" path
          (List.length (signature races))
          (List.length expected))

(* A malformed stream must fail the session, and abort must be safe. *)
let test_session_corrupt () =
  let bytes = read_file (List.hd (golden_files ())) in
  let corrupted = Bytes.of_string bytes in
  let mid = String.length bytes / 2 in
  Bytes.set corrupted mid (Char.chr (Char.code (Bytes.get corrupted mid) lxor 0x10));
  let det, _ = Option.get (Systems.make_detector "pint") in
  let s = Replay.Session.create det in
  let failed =
    try
      ignore (feed_all s (Bytes.to_string corrupted) 64);
      false
    with Tracefile.Error _ | Replay.Corrupt _ -> true
  in
  check_bool "corrupt stream raises" true failed;
  Replay.Session.abort s;
  Replay.Session.abort s (* idempotent *);
  check_bool "aborted session is finished" true (Replay.Session.finished s)

(* ------------------------------------------------------------ the daemon *)

let fresh_sock_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pint-test-%d-%d.sock" (Unix.getpid ()) !n)

(* Start an in-process daemon; returns (server, join) where [join] stops
   the IO loop and joins its domain. *)
let start_daemon config =
  let path = fresh_sock_path () in
  let server = Serve_server.create ~config (Unix.ADDR_UNIX path) in
  let d = Domain.spawn (fun () -> Serve_server.serve ~poll:0.005 server) in
  let join () =
    Serve_server.stop server;
    Domain.join d
  in
  (server, join)

let test_config =
  {
    Serve_server.default_config with
    Serve_server.max_sessions = 4;
    pool_workers = 2;
    shards = 2;
    bp_rounds = Pint_detector.recommended_bp_rounds;
  }

(* One client per golden trace, all concurrent, against one daemon: every
   served race set must equal that trace's offline replay. *)
let test_daemon_concurrent () =
  let files = golden_files () in
  let server, join = start_daemon test_config in
  Fun.protect ~finally:join (fun () ->
      let addr = Serve_server.sockaddr server in
      let jobs =
        List.map
          (fun path ->
            let bytes = read_file path in
            (path, bytes, Domain.spawn (fun () -> Serve_client.run ~chunk:512 ~addr bytes)))
          files
      in
      List.iter
        (fun (path, bytes, d) ->
          match Domain.join d with
          | Error msg -> Alcotest.failf "%s: session rejected: %s" path msg
          | Ok r ->
              if Serve_client.signature r.Serve_client.races <> offline_sig bytes then
                Alcotest.failf "%s: served race set diverges from offline replay" path;
              check_bool (path ^ ": summary race count") true
                (r.Serve_client.n_races
                = List.length (Serve_client.signature r.Serve_client.races));
              check_bool (path ^ ": feed latency histogram served") true
                (List.mem_assoc "obs.h.serve.feed_us.p50" r.Serve_client.stats))
        jobs;
      let stats = Serve_server.stats server in
      check_bool "all sessions completed" true
        (List.assoc "serve.completed" stats = float_of_int (List.length files));
      check_bool "none rejected" true (List.assoc "serve.rejected" stats = 0.))

(* Raw framed handshake: connect and hold a session open without ending it. *)
let raw_connect addr =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  let out = Serve_proto.encode_client (Serve_proto.Hello { version = Serve_proto.protocol_version; shards = 0; predict = 0 }) in
  let n = Unix.write_substring fd out 0 (String.length out) in
  assert (n = String.length out);
  let frames = Serve_proto.Frames.create () in
  let buf = Bytes.create 4096 in
  let rec next () =
    match Serve_proto.Frames.next frames with
    | Some payload -> Serve_proto.decode_server payload
    | None ->
        let n = Unix.read fd buf 0 (Bytes.length buf) in
        if n = 0 then failwith "server closed during handshake";
        Serve_proto.Frames.feed frames ~len:n (Bytes.to_string buf);
        next ()
  in
  (fd, next)

(* Over-admission: with max_sessions = 1 and one session held open, the
   next connection must get a framed reject — and once the first session
   ends, the daemon must serve again. *)
let test_daemon_admission () =
  let config = { test_config with Serve_server.max_sessions = 1 } in
  let server, join = start_daemon config in
  Fun.protect ~finally:join (fun () ->
      let addr = Serve_server.sockaddr server in
      let bytes = read_file (List.hd (golden_files ())) in
      let fd, next = raw_connect addr in
      (match next () with
      | Serve_proto.Accepted _ -> ()
      | _ -> Alcotest.fail "first session not accepted");
      (match Serve_client.run ~addr bytes with
      | Error msg -> check_bool "reject mentions capacity" true (String.length msg > 0)
      | Ok _ -> Alcotest.fail "over-admission session was accepted");
      Unix.close fd;
      (* daemon stays responsive: the slot frees and a new session succeeds *)
      let rec retry n =
        match Serve_client.run ~addr bytes with
        | Ok r -> r
        | Error _ when n > 0 ->
            Unix.sleepf 0.02;
            retry (n - 1)
        | Error msg -> Alcotest.failf "daemon did not recover after disconnect: %s" msg
      in
      let r = retry 100 in
      check_bool "recovered session serves the right races" true
        (Serve_client.signature r.Serve_client.races = offline_sig bytes);
      check_bool "rejections counted" true
        (List.assoc "serve.rejected" (Serve_server.stats server) >= 1.))

(* A client dying mid-stream must fail only its own session. *)
let test_daemon_disconnect () =
  let server, join = start_daemon test_config in
  Fun.protect ~finally:join (fun () ->
      let addr = Serve_server.sockaddr server in
      let bytes = read_file (List.hd (golden_files ())) in
      let fd, next = raw_connect addr in
      (match next () with
      | Serve_proto.Accepted _ -> ()
      | _ -> Alcotest.fail "session not accepted");
      (* half a trace, then vanish *)
      let out =
        Serve_proto.encode_client (Serve_proto.Data (String.sub bytes 0 (String.length bytes / 2)))
      in
      ignore (Unix.write_substring fd out 0 (String.length out));
      Unix.close fd;
      (* the daemon must still serve a full session afterwards *)
      let rec retry n =
        match Serve_client.run ~addr bytes with
        | Ok r -> r
        | Error _ when n > 0 ->
            Unix.sleepf 0.02;
            retry (n - 1)
        | Error msg -> Alcotest.failf "daemon did not survive a disconnect: %s" msg
      in
      let r = retry 100 in
      check_bool "post-disconnect session serves the right races" true
        (Serve_client.signature r.Serve_client.races = offline_sig bytes))

(* A predict session (protocol v2): the lucky trace has no observed races,
   but its free-hidden W/W pair must come back in the summary's predicted
   block, matching the offline analysis; and a window above the daemon's
   cap must get a framed reject. *)
let test_daemon_predict () =
  let bytes = read_file "golden/lucky_racy.trace" in
  let server, join = start_daemon test_config in
  Fun.protect ~finally:join (fun () ->
      let addr = Serve_server.sockaddr server in
      match Serve_client.run ~addr ~predict:4 bytes with
      | Error msg -> Alcotest.failf "predict session rejected: %s" msg
      | Ok r ->
          check_bool "lucky has no observed races" true (r.Serve_client.races = []);
          let t = Tracefile.of_bytes bytes in
          let det, _ = Option.get (Systems.make_detector "pint") in
          let b = Predict.Builder.create () in
          let o = Replay.run ~on_strand:(Predict.Builder.observer b) t det in
          let pr =
            Predict.predict ~window:4 ~observed:o.Replay.races (Predict.Builder.dag b)
          in
          let offline =
            Serve_client.signature
              (List.map
                 (fun (f : Predict.finding) ->
                   (f.Predict.kind, f.Predict.prior, f.Predict.current, f.Predict.where))
                 pr.Predict.predicted)
          in
          check_bool "offline predicts the hidden pair" true (offline <> []);
          check_bool "served predictions match offline" true
            (Serve_client.signature r.Serve_client.predicted = offline);
          check_bool "predict diagnostics served" true
            (List.mem_assoc "predict_candidates" r.Serve_client.stats));
  let config = { test_config with Serve_server.max_window = 2 } in
  let server, join = start_daemon config in
  Fun.protect ~finally:join (fun () ->
      let addr = Serve_server.sockaddr server in
      match Serve_client.run ~addr ~predict:3 bytes with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "over-cap predict window was accepted")

(* A bad protocol version must be rejected with a framed error. *)
let test_daemon_bad_version () =
  let server, join = start_daemon test_config in
  Fun.protect ~finally:join (fun () ->
      let addr = Serve_server.sockaddr server in
      let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd addr;
          let out =
            Serve_proto.encode_client
              (Serve_proto.Hello { version = Serve_proto.protocol_version + 1; shards = 0; predict = 0 })
          in
          ignore (Unix.write_substring fd out 0 (String.length out));
          let frames = Serve_proto.Frames.create () in
          let buf = Bytes.create 4096 in
          let rec next () =
            match Serve_proto.Frames.next frames with
            | Some payload -> Serve_proto.decode_server payload
            | None ->
                let n = Unix.read fd buf 0 (Bytes.length buf) in
                if n = 0 then failwith "closed without a reject frame";
                Serve_proto.Frames.feed frames ~len:n (Bytes.to_string buf);
                next ()
          in
          match next () with
          | Serve_proto.Reject _ -> ()
          | _ -> Alcotest.fail "version mismatch was not rejected"))

let () =
  (* the daemons run in-process: a write to a socket the peer already
     closed (the rejected over-admission client) must surface as EPIPE,
     as under pint_serve, not kill the test binary *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let files = golden_files () in
  if files = [] then prerr_endline "test_serve: no golden traces found, nothing to check";
  Alcotest.run "pint_serve"
    [
      ( "session",
        List.map (fun p -> Alcotest.test_case p `Quick (check_session p)) files
        @ List.map
            (fun p -> Alcotest.test_case (p ^ " (pool)") `Quick (check_session_pool p))
            files
        @ [ Alcotest.test_case "corrupt stream + abort" `Quick test_session_corrupt ] );
      ( "daemon",
        [
          Alcotest.test_case "concurrent tenants = offline" `Quick test_daemon_concurrent;
          Alcotest.test_case "over-admission rejected" `Quick test_daemon_admission;
          Alcotest.test_case "mid-stream disconnect" `Quick test_daemon_disconnect;
          Alcotest.test_case "predict session" `Quick test_daemon_predict;
          Alcotest.test_case "version mismatch rejected" `Quick test_daemon_bad_version;
        ] );
    ]
