let spawn sp ~fresh ~(u : Srec.t) ~(sync : Srec.t option) =
  let first = Option.is_none sync in
  let sync_pre = Option.map (fun (s : Srec.t) -> s.sp) sync in
  let child_sp, cont_sp, sync_sp = Sp_order.spawn sp ~sync_pre u.sp in
  let cont = fresh cont_sp in
  let sync = match sync with Some s -> s | None -> fresh sync_sp in
  u.is_spawn <- true;
  u.child <- Some cont;
  u.child_is_sync <- false;
  Atomic.set cont.pred 1;
  if first then Atomic.set sync.pred 0;
  (child_sp, cont, sync)

let at_return_cont_stolen ~(u : Srec.t) ~(parent_sync : Srec.t) =
  u.child <- Some parent_sync;
  u.child_is_sync <- true;
  Atomic.incr parent_sync.pred

let at_sync_nontrivial ~(u : Srec.t) ~(sync : Srec.t) =
  u.child <- Some sync;
  u.child_is_sync <- true;
  Atomic.incr sync.pred
