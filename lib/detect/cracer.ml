type cell = {
  mutable w : Sp_order.strand option;
  mutable lr : Sp_order.strand option;
  mutable rr : Sp_order.strand option;
}

type shard = { lock : Mutex.t; tbl : (int, cell) Hashtbl.t }

(* Shadow-map lock shards; a power of two, so [addr land (shards - 1)]
   picks one. *)
let shards = 64

let make ?(obs = Obs.disabled) () =
  let report = Report.create () in
  let diags = ref [] in
  let driver (ctx : Hooks.ctx) =
    let sp = ctx.sp in
    let map = Array.init shards (fun _ -> { lock = Mutex.create (); tbl = Hashtbl.create 1024 }) in
    let coals = Array.init ctx.n_workers (fun _ -> Coalescer.create ()) in
    let rings =
      Array.init ctx.n_workers (fun w -> Obs.track obs (Printf.sprintf "cracer%d" w))
    in
    let accesses = Atomic.make 0 in
    let shard_of addr = map.(addr land (shards - 1)) in
    let with_cell addr f =
      let sh = shard_of addr in
      Mutex.lock sh.lock;
      let cell =
        match Hashtbl.find_opt sh.tbl addr with
        | Some c -> c
        | None ->
            let c = { w = None; lr = None; rr = None } in
            Hashtbl.add sh.tbl addr c;
            c
      in
      f cell;
      Mutex.unlock sh.lock
    in
    (* check-only accessor: no cell is materialized for an address the
       history has never seen *)
    let peek_cell addr f =
      let sh = shard_of addr in
      Mutex.lock sh.lock;
      (match Hashtbl.find_opt sh.tbl addr with Some c -> f c | None -> ());
      Mutex.unlock sh.lock
    in
    let racy prior current = Policies.race sp ~prior ~current in
    let point a = Interval.point a in
    let check_read s a =
      peek_cell a (fun c ->
          match c.w with
          | Some w when racy w s ->
              Report.add report Report.Write_read ~prior:(Sp_order.id w) ~current:(Sp_order.id s)
                (point a)
          | _ -> ())
    in
    let check_write s a =
      peek_cell a (fun c ->
          (match c.w with
          | Some w when racy w s ->
              Report.add report Report.Write_write ~prior:(Sp_order.id w) ~current:(Sp_order.id s)
                (point a)
          | _ -> ());
          (match c.lr with
          | Some r when racy r s ->
              Report.add report Report.Read_write ~prior:(Sp_order.id r) ~current:(Sp_order.id s)
                (point a)
          | _ -> ());
          match c.rr with
          | Some r when racy r s ->
              Report.add report Report.Read_write ~prior:(Sp_order.id r) ~current:(Sp_order.id s)
                (point a)
          | _ -> ())
    in
    let update_read s a =
      with_cell a (fun c ->
          (match c.lr with
          | None -> c.lr <- Some s
          | Some r -> (
              match Policies.keep_leftmost sp ~s ~incumbent:r with
              | `Replace -> c.lr <- Some s
              | `Keep -> ()));
          match c.rr with
          | None -> c.rr <- Some s
          | Some r -> (
              match Policies.keep_rightmost sp ~s ~incumbent:r with
              | `Replace -> c.rr <- Some s
              | `Keep -> ()))
    in
    let update_write s a = with_cell a (fun c -> c.w <- Some s) in
    let clear_range base len =
      for a = base to base + len - 1 do
        let sh = shard_of a in
        Mutex.lock sh.lock;
        Hashtbl.remove sh.tbl a;
        Mutex.unlock sh.lock
      done
    in
    (* Strand-atomic processing at strand finish: all of the strand's
       coalesced accesses are checked against the pre-strand cells before
       any cell is updated, so a strand's own reads/writes never shadow the
       older readers and writers its accesses actually race with.  This is
       the same contract STINT and PINT follow — it is what aligns the three
       detectors' deduplicated race sets (Theorem 5). *)
    let iter_addrs ivs f =
      Array.iter
        (fun (iv : Interval.t) ->
          for a = iv.Interval.lo to iv.Interval.hi do
            f a
          done)
        ivs
    in
    let process (u : Srec.t) =
      let s = u.Srec.sp in
      iter_addrs u.reads (check_read s);
      iter_addrs u.writes (check_write s);
      iter_addrs u.reads (update_read s);
      iter_addrs u.writes (update_write s);
      List.iter (fun (b, l) -> clear_range b l) u.clears;
      u.clears <- [];
      List.iter
        (fun (b, l) ->
          clear_range b l;
          Aspace.heap_free ctx.aspace ~base:b ~len:l)
        u.frees
    in
    let sink ~wid =
      let coal = coals.(wid) in
      {
        Access.on_read =
          (fun ~addr ~len ->
            ignore (Atomic.fetch_and_add accesses len);
            Coalescer.add_read coal ~addr ~len);
        on_write =
          (fun ~addr ~len ->
            ignore (Atomic.fetch_and_add accesses len);
            Coalescer.add_write coal ~addr ~len);
        on_free =
          (fun ~base ~len ->
            let u = ctx.current ~wid in
            u.frees <- (base, len) :: u.frees);
        on_compute = (fun ~amount:_ -> ());
      }
    in
    {
      Hooks.sink;
      on_start = (fun ~wid:_ _ _ -> ());
      on_finish =
        (fun ~wid (u : Srec.t) _kind ->
          let reads, writes = Coalescer.finish coals.(wid) in
          u.Srec.reads <- reads;
          u.Srec.writes <- writes;
          let ring = rings.(wid) in
          if not (Evring.enabled ring) then process u
          else begin
            let dv = Array.length reads + Array.length writes in
            let t0 = Evring.now ring in
            process u;
            let dur = if Evring.is_virtual ring then dv else Evring.now ring - t0 in
            Evring.emit_span ring ~ts:t0 ~dur ~kind:Ev.treap_op ~arg:dv
          end);
      on_done = (fun () -> diags := [ ("accesses", float_of_int (Atomic.get accesses)) ]);
    }
  in
  {
    Detector.name = "cracer";
    driver;
    report;
    drain = (fun () -> ());
    diagnostics = (fun () -> !diags);
    validate = (fun () -> ()); (* hashtable shadow cells: nothing structural to check *)
  }
