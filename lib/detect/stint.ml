let make ?(seed = 2022) ?(obs = Obs.disabled) () =
  let report = Report.create () in
  let ring = Obs.track obs "stint" in
  let diags = ref [] in
  (* installed by the driver once the treaps exist *)
  let validators = ref (fun () -> ()) in
  let driver (ctx : Hooks.ctx) =
    if ctx.n_workers > 1 then failwith "Stint: serial detector run on a parallel executor";
    let sp = ctx.sp in
    let owner_eq = ( == ) in
    let writer = Itreap.create ~seed ~owner_eq () in
    let lreader = Itreap.create ~seed:(seed + 1) ~owner_eq () in
    let rreader = Itreap.create ~seed:(seed + 101) ~owner_eq () in
    let coal = Coalescer.create () in
    (validators :=
       fun () ->
         Itreap.validate writer;
         Itreap.validate lreader;
         Itreap.validate rreader);
    let strands = ref 0 in
    let intervals = ref 0 and work = ref 0 and raw_events = ref 0 in
    let check treap kind iv s = Policies.check_treap report sp treap kind iv s in
    let clear_all iv =
      Itreap.clear_range writer iv;
      Itreap.clear_range lreader iv;
      Itreap.clear_range rreader iv
    in
    (* Strand-atomic processing: every access of the strand is checked
       against the pre-strand history, then the history is updated — a
       strand's own accesses never shadow older readers/writers from the
       checks (accesses within one strand cannot race).  This is the same
       contract PINT's pipeline stages follow, which is what makes the
       deduplicated race sets of the two detectors coincide (Theorem 5). *)
    let process (u : Srec.t) =
      incr strands;
      intervals := !intervals + Array.length u.reads + Array.length u.writes;
      work := !work + u.work;
      raw_events := !raw_events + u.raw_reads + u.raw_writes;
      let s = u.sp in
      Array.iter (fun r -> check writer Report.Write_read r s) u.reads;
      Array.iter
        (fun w ->
          check writer Report.Write_write w s;
          check lreader Report.Read_write w s;
          check rreader Report.Read_write w s)
        u.writes;
      Array.iter
        (fun r ->
          Itreap.insert_merge lreader r s ~keep:(fun ~incumbent ->
              Policies.keep_leftmost sp ~s ~incumbent);
          Itreap.insert_merge rreader r s ~keep:(fun ~incumbent ->
              Policies.keep_rightmost sp ~s ~incumbent))
        u.reads;
      Array.iter (fun w -> Itreap.insert_replace writer w s) u.writes;
      List.iter (fun (b, l) -> clear_all (Interval.make b (b + l - 1))) u.clears;
      List.iter
        (fun (b, l) ->
          clear_all (Interval.make b (b + l - 1));
          Aspace.heap_free ctx.aspace ~base:b ~len:l)
        u.frees
    in
    {
      Hooks.sink =
        (fun ~wid ->
          {
            Access.on_read = (fun ~addr ~len -> Coalescer.add_read coal ~addr ~len);
            on_write = (fun ~addr ~len -> Coalescer.add_write coal ~addr ~len);
            on_free = (fun ~base ~len ->
                let u = ctx.current ~wid in
                u.frees <- (base, len) :: u.frees);
            on_compute = (fun ~amount:_ -> ());
          });
      on_start = (fun ~wid:_ _ _ -> ());
      on_finish =
        (fun ~wid:_ u _kind ->
          let reads, writes = Coalescer.finish coal in
          u.reads <- reads;
          u.writes <- writes;
          if not (Evring.enabled ring) then process u
          else begin
            let visits () = Itreap.visits writer + Itreap.visits lreader + Itreap.visits rreader in
            let v0 = visits () in
            let t0 = Evring.now ring in
            process u;
            let dv = visits () - v0 in
            let dur = if Evring.is_virtual ring then dv else Evring.now ring - t0 in
            Evring.emit_span ring ~ts:t0 ~dur ~kind:Ev.treap_op ~arg:dv
          end);
      on_done =
        (fun () ->
          let sum3 f = f writer + f lreader + f rreader in
          diags :=
            [
              ("strands", float_of_int !strands);
              ("intervals", float_of_int !intervals);
              ("work", float_of_int !work);
              ("raw_events", float_of_int !raw_events);
              ("writer_visits", float_of_int (Itreap.visits writer));
              ("reader_visits", float_of_int (Itreap.visits lreader + Itreap.visits rreader));
              ("writer_size", float_of_int (Itreap.size writer));
              ("reader_size", float_of_int (Itreap.size lreader + Itreap.size rreader));
            ]
            @ Policies.path_diags sum3
            @ [
                ("coal_sort_skips", float_of_int (fst (Coalescer.sort_stats coal)));
                ("coal_sorts", float_of_int (snd (Coalescer.sort_stats coal)));
              ]);
    }
  in
  {
    Detector.name = "stint";
    driver;
    report;
    drain = (fun () -> ());
    diagnostics = (fun () -> !diags);
    validate = (fun () -> !validators ());
  }
