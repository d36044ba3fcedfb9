(* pint_serve — the streaming race-detection service.

   Subcommands:
     daemon    listen on a Unix or TCP socket and detect races over N
               concurrent PINTRACE sessions (one detector per session,
               pipeline stages on a shared micropool)
     client    stream one trace file to a daemon and print the verdicts

   Examples:
     pint_serve daemon --socket /tmp/pint.sock --max-sessions 4 --domains 2 &
     pint_serve client --socket /tmp/pint.sock heat.trace
     pint_serve client --socket /tmp/pint.sock heat.trace --verify
     pint_serve client --socket /tmp/pint.sock heat.trace --predict 4 --verify

   [client --predict W] opts the session into predictive detection: the
   daemon builds the strand DAG as it replays and the summary carries the
   window-W predicted races (see `pint_replay predict`).  The daemon caps
   W with --max-window and rejects larger requests; a DAG the predictor
   cannot use fails the session with a framed error.

   [client --shards N] runs the session's detector at N address-range
   shards; 0 (the default) means one.  The daemon accepts 1..--domains,
   since more shards than pool domains cannot run in parallel, and
   rejects anything else.

   [client --verify] replays the same trace offline through a fresh
   detector and exits 1 unless the served race set is identical at the
   Theorem-5 (kind, prior, current) granularity — the same comparison as
   `pint_replay diff`.  With --predict it also recomputes the predictions
   offline and fails on any divergence there; an offline replay or
   prediction that fails exits 2.  The daemon exits 0 on SIGTERM/SIGINT
   after a graceful shutdown (sessions aborted, frames flushed, pool
   joined). *)

open Cmdliner

let addr_of ~socket ~port ~host =
  match (socket, port) with
  | Some path, None -> Unix.ADDR_UNIX path
  | None, Some p -> Unix.ADDR_INET (Unix.inet_addr_of_string host, p)
  | Some _, Some _ ->
      prerr_endline "pint_serve: --socket and --port are mutually exclusive";
      exit 2
  | None, None ->
      prerr_endline "pint_serve: one of --socket PATH or --port N is required";
      exit 2

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on (or connect to) a Unix-domain socket.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"Listen on (or connect to) a TCP port.")

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"TCP address.")

(* -- daemon -------------------------------------------------------------- *)

let daemon_cmd =
  let run socket port host detector max_sessions domains backlog max_window =
    let addr = addr_of ~socket ~port ~host in
    let config =
      {
        Serve_server.detector;
        max_sessions;
        pool_workers = domains;
        backlog_high = backlog;
        max_window;
      }
    in
    let server =
      try Serve_server.create ~config addr
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "pint_serve: cannot listen: %s\n" (Unix.error_message e);
        exit 2
    in
    let quit _ = Serve_server.stop server in
    ignore (Sys.signal Sys.sigterm (Sys.Signal_handle quit));
    ignore (Sys.signal Sys.sigint (Sys.Signal_handle quit));
    ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
    (match Serve_server.sockaddr server with
    | Unix.ADDR_UNIX path -> Printf.printf "pint_serve: listening on %s\n%!" path
    | Unix.ADDR_INET (a, p) ->
        Printf.printf "pint_serve: listening on %s:%d\n%!" (Unix.string_of_inet_addr a) p);
    Serve_server.serve server;
    List.iter (fun (k, v) -> Printf.printf "%-20s %.0f\n" k v) (Serve_server.stats server)
  in
  Cmd.v
    (Cmd.info "daemon" ~doc:"Serve concurrent streaming race-detection sessions")
    Term.(
      const run $ socket_arg $ port_arg $ host_arg
      $ Arg.(
          value
          & opt string Serve_server.default_config.Serve_server.detector
          & info [ "d"; "detector" ] ~doc:"Detector per session (stint|cracer|pint).")
      $ Arg.(
          value
          & opt int Serve_server.default_config.Serve_server.max_sessions
          & info [ "max-sessions" ] ~doc:"Admission cap: concurrent sessions before reject.")
      $ Arg.(
          value
          & opt int Serve_server.default_config.Serve_server.pool_workers
          & info [ "domains" ]
              ~doc:"Shared micropool worker domains; also the most shards a session may request.")
      $ Arg.(
          value
          & opt int Serve_server.default_config.Serve_server.backlog_high
          & info [ "backlog" ] ~doc:"Per-session strand backlog that pauses socket reads.")
      $ Arg.(
          value
          & opt int Serve_server.default_config.Serve_server.max_window
          & info [ "max-window" ]
              ~doc:"Largest prediction window a client may request (0 disables predict)."))

(* -- client -------------------------------------------------------------- *)

let kind_name = Report.kind_to_string

let client_cmd =
  let run socket port host path chunk shards predict verify quiet =
    if predict < 0 then begin
      prerr_endline "pint_serve: --predict must be >= 0";
      exit 2
    end;
    if shards < 0 then begin
      prerr_endline "pint_serve: --shards must be >= 0";
      exit 2
    end;
    let addr = addr_of ~socket ~port ~host in
    let bytes =
      try
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with Sys_error msg ->
        Printf.eprintf "cannot read trace: %s\n" msg;
        exit 2
    in
    match Serve_client.run ~chunk ~shards ~predict ~addr bytes with
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "pint_serve: connection failed: %s\n" (Unix.error_message e);
        exit 2
    | Error msg ->
        Printf.eprintf "pint_serve: session rejected: %s\n" msg;
        exit 3
    | Ok r ->
        if not quiet then begin
          Printf.printf "%s: session %d, %d strand(s), %d race(s)" path r.Serve_client.session
            r.Serve_client.n_strands r.Serve_client.n_races;
          if predict > 0 then
            Printf.printf ", %d predicted (w=%d)" (List.length r.Serve_client.predicted) predict;
          print_newline ();
          List.iter
            (fun (k, p, c, (iv : Interval.t)) ->
              Printf.printf "  %s %d -> %d @ [%d,%d]\n" (kind_name k) p c iv.Interval.lo
                iv.Interval.hi)
            r.Serve_client.races;
          List.iter
            (fun (k, p, c, (iv : Interval.t)) ->
              Printf.printf "  predicted %s %d -> %d @ [%d,%d]\n" (kind_name k) p c iv.Interval.lo
                iv.Interval.hi)
            r.Serve_client.predicted
        end;
        if verify then begin
          let t =
            try Tracefile.of_bytes bytes
            with Tracefile.Error msg ->
              Printf.eprintf "%s: corrupt trace: %s\n" path msg;
              exit 2
          in
          let or_exit what f =
            try f ()
            with Failure msg | Replay.Corrupt msg ->
              Printf.eprintf "%s: offline %s failed: %s\n" path what msg;
              exit 2
          in
          let det, _ = Option.get (Systems.make_detector "pint") in
          let builder = if predict > 0 then Some (Predict.Builder.create ()) else None in
          let on_strand = Option.map Predict.Builder.observer builder in
          let outcome = or_exit "replay" (fun () -> Replay.run ?on_strand t det) in
          let offline =
            List.sort_uniq compare
              (List.map
                 (fun (x : Report.race) -> (x.Report.kind, x.Report.prior, x.Report.current))
                 outcome.Replay.races)
          in
          let served = Serve_client.signature r.Serve_client.races in
          if served = offline then
            Printf.printf "%s: served race set matches offline replay (%d race(s))\n" path
              (List.length offline)
          else begin
            Printf.printf "%s: served and offline race sets DIVERGE (%d vs %d)\n" path
              (List.length served) (List.length offline);
            exit 1
          end;
          match builder with
          | None -> ()
          | Some b ->
              let pr =
                or_exit "prediction" (fun () ->
                    Predict.predict ~window:predict ~observed:outcome.Replay.races
                      (Predict.Builder.dag b))
              in
              let offline_p =
                Serve_client.signature
                  (List.map
                     (fun (f : Predict.finding) -> (f.Predict.kind, f.Predict.prior, f.Predict.current, f.Predict.where))
                     pr.Predict.predicted)
              in
              let served_p = Serve_client.signature r.Serve_client.predicted in
              if served_p = offline_p then
                Printf.printf "%s: served predictions match offline predict (%d, w=%d)\n" path
                  (List.length offline_p) predict
              else begin
                Printf.printf "%s: served and offline predictions DIVERGE (%d vs %d, w=%d)\n"
                  path (List.length served_p) (List.length offline_p) predict;
                exit 1
              end
        end
  in
  Cmd.v
    (Cmd.info "client" ~doc:"Stream a trace file to a daemon and print its races")
    Term.(
      const run $ socket_arg $ port_arg $ host_arg
      $ Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc:"Trace file.")
      $ Arg.(
          value
          & opt int Serve_client.default_chunk
          & info [ "chunk" ] ~doc:"Transport chunk size in bytes.")
      $ Arg.(
          value & opt int 0
          & info [ "shards" ] ~docv:"N"
              ~doc:"Request $(docv) address-range shards: 0 (one) or 1 up to the daemon's --domains.")
      $ Arg.(
          value & opt int 0
          & info [ "predict" ] ~docv:"W"
              ~doc:"Opt into predictive detection with window $(docv) (0 = off).")
      $ Arg.(
          value & flag
          & info [ "verify" ] ~doc:"Replay offline too and fail on any Theorem-5 divergence.")
      $ Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress per-race output."))

let () =
  let info = Cmd.info "pint_serve" ~doc:"Streaming multi-tenant race-detection service" in
  exit (Cmd.eval (Cmd.group info [ daemon_cmd; client_cmd ]))
