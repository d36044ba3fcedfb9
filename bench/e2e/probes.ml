(* Outside-in probes: timing wrappers around the public entry points of each
   layer, built from the benchmark's side of the library boundary.  Each
   wrapper returns its argument unchanged unless tracing is on, so traced
   and untraced runs share one code path and an untraced run pays nothing. *)

let s_sink = Spans.name "detect.sink"
and s_hooks = Spans.name "detect.hooks"
and s_strand = Spans.name "exec.strand"
and s_sched = Spans.name "exec.sched"
and s_backoff = Spans.name "pool.backoff"
and s_observer = Spans.name "predict.observer"
and none = -1

let sink (s : Access.sink) =
  let leaf t0 = Spans.leaf s_sink t0 (Spans.now ()) in
  {
    s with
    Access.on_read =
      (fun ~addr ~len ->
        let t0 = Spans.now () in
        s.Access.on_read ~addr ~len;
        leaf t0);
    on_write =
      (fun ~addr ~len ->
        let t0 = Spans.now () in
        s.Access.on_write ~addr ~len;
        leaf t0);
    on_free =
      (fun ~base ~len ->
        let t0 = Spans.now () in
        s.Access.on_free ~base ~len;
        leaf t0);
  }

(* The detector as the executor sees it: hook time is accounted under
   [detect.hooks], access-event time under [detect.sink].  With [~workers],
   for live runs on core workers, each worker's time between hooks is
   split in two: a strand, from its [on_start] returning to its [on_finish]
   being called, is an [exec.strand] span (the program's own code, with the
   sink calls it makes as children), and the time from one strand's
   [on_finish] returning to the worker's next [on_start] is an
   [exec.sched] leaf (the executor's own work between strands: deque
   pushes and pops, steals, resuming fibers, back-off while idle).
   [root_finish] receives the clock right after the root strand's final
   [on_finish] (the end of the program's own work); [after_done] runs after
   the detector's [on_done] returns. *)
let driver ?(after_done = ignore) ?(workers = false) ?root_finish (d : Hooks.driver) :
    Hooks.driver =
  if not (Spans.enabled ()) then d
  else fun ctx ->
    let h = d ctx in
    let hook t0 = Spans.leaf s_hooks t0 (Spans.now ()) in
    (* per core worker of this run: its open strand span, and when its
       last strand's [on_finish] returned (0: none yet) *)
    let strand = Array.make ctx.Hooks.n_workers None
    and finished = Array.make ctx.Hooks.n_workers 0 in
    {
      Hooks.sink = (fun ~wid -> sink (h.Hooks.sink ~wid));
      on_start =
        (fun ~wid r k ->
          let t0 = Spans.now () in
          if workers && finished.(wid) > 0 then Spans.leaf s_sched finished.(wid) t0;
          h.Hooks.on_start ~wid r k;
          hook t0;
          if workers then strand.(wid) <- Some (Spans.enter s_strand));
      on_finish =
        (fun ~wid r k ->
          if workers then begin
            Option.iter (Spans.leave ~leaf:true) strand.(wid);
            strand.(wid) <- None
          end;
          let t0 = Spans.now () in
          h.Hooks.on_finish ~wid r k;
          hook t0;
          let t1 = Spans.now () in
          if workers then finished.(wid) <- t1;
          match (k, root_finish) with Events.F_root, Some cell -> Atomic.set cell t1 | _ -> ());
      on_done =
        (fun () ->
          let t0 = Spans.now () in
          h.Hooks.on_done ();
          hook t0;
          after_done ());
    }

let role_name stage =
  match Pint_detector.role_of_stage_name stage with
  | Some (Pint_detector.Writer, _) -> "writer"
  | Some (Pint_detector.Lreader, _) -> "lreader"
  | Some (Pint_detector.Rreader, _) -> "rreader"
  | None -> stage

(* When the last stage step on this domain returned (0: none yet).  Pool
   domains are spawned afresh for every live run, so this is per run. *)
let last_step = Domain.DLS.new_key (fun () -> ref 0)

(* A same-named stage around [Stage.exec], so [Systems.micropools] still
   groups it with its shard.  Steps that returned [`Worked] are accounted
   as [stage.<role>.busy], [`Idle]/[`Stalled] ones as [stage.<role>.idle];
   runs of steps in one state are drawn as one span on the stage's own
   Chrome-trace track.  With [~pool], for stages on micropool domains, the
   time between two steps on one domain is a [pool.backoff] leaf: the
   micropool's round-robin and its back-off while no stage has work. *)
let stage ?(pool = false) s =
  if not (Spans.enabled ()) then s
  else begin
    let name = Stage.name s in
    let busy = Spans.name ("stage." ^ role_name name ^ ".busy")
    and idle = Spans.name ("stage." ^ role_name name ^ ".idle") in
    let seg = ref none and seg_t0 = ref 0 and seg_t1 = ref 0 in
    Stage.make ~name
      ~cost:(fun ~records ~visits -> Stage.cost s ~records ~visits)
      (fun () ->
        let t0 = Spans.now () in
        let last = Domain.DLS.get last_step in
        if pool && !last > 0 then Spans.leaf ~keep:false s_backoff !last t0;
        let st = Stage.exec s in
        let t1 = Spans.now () in
        last := t1;
        let state = match st with `Worked _ -> busy | `Idle | `Stalled -> idle | `Done -> none in
        if state <> none then Spans.leaf ~keep:false state t0 t1;
        if state <> !seg then begin
          if !seg <> none then Spans.draw ~track:name !seg !seg_t0 !seg_t1;
          seg := state;
          seg_t0 := t0
        end;
        seg_t1 := t1;
        st)
  end

let observer (f : Replay.strand_observer) : Replay.strand_observer =
  if not (Spans.enabled ()) then f
  else fun ~sp ~pos e r ->
    let t0 = Spans.now () in
    f ~sp ~pos e r;
    Spans.leaf s_observer t0 (Spans.now ())
