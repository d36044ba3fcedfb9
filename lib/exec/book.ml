let spawn sp ~fresh ~(u : Srec.t) ~(sync : Srec.t option) =
  let first = Option.is_none sync in
  let sync_pre = Option.map (fun (s : Srec.t) -> s.sp) sync in
  let child_sp, cont_sp, sync_sp = Sp_order.spawn sp ~sync_pre u.sp in
  let cont = fresh cont_sp in
  let sync = match sync with Some s -> s | None -> fresh sync_sp in
  let child = fresh child_sp in
  u.is_spawn <- true;
  u.child <- Some cont;
  u.child_is_sync <- false;
  Atomic.set cont.pred 1;
  if first then Atomic.set sync.pred 0;
  (cont, sync, child)

(* At a spawned function's return whose spawn's continuation was stolen:
   the return node is a counted predecessor of the block's sync. *)
let at_return_cont_stolen ~(u : Srec.t) ~(parent_sync : Srec.t) =
  u.child <- Some parent_sync;
  u.child_is_sync <- true;
  Atomic.incr parent_sync.pred

(* At a non-trivial sync: the strand leading into it is a counted
   predecessor of the sync node. *)
let at_sync_nontrivial ~(u : Srec.t) ~(sync : Srec.t) =
  u.child <- Some sync;
  u.child_is_sync <- true;
  Atomic.incr sync.pred

(* ------------------------------------------------------ frames, workers *)

type frame = {
  parent : frame option;
  (* current-block fields: touched only by the logical thread executing the
     function body, so unsynchronized *)
  mutable sync_rec : Srec.t option;
  (* join state: touched by returning children concurrently.  This lock
     arbitrates the join protocol only (outstanding counter + suspended
     continuation hand-off) — it is never taken on the steal path. *)
  lock : Mutex.t;
  mutable outstanding : int;
  stolen_in_block : bool Atomic.t;
  mutable suspended : parked option; (* the continuation waiting at the sync *)
}

and fiber_done = Root | Child of child_info

and child_info = { cp_frame : frame; cp_sync : Srec.t; cp_item : parked }

and parked = { pk : Fiber.kont; pframe : frame; prec : Srec.t; pfiber : fiber_done }

let new_frame ~parent =
  {
    parent;
    sync_rec = None;
    lock = Mutex.create ();
    outstanding = 0;
    stolen_in_block = Atomic.make false;
    suspended = None;
  }

type job = J_start of (unit -> unit) | J_resume of Fiber.kont

type 's worker = {
  wid : int;
  mutable job : job option;
  mutable fid : fiber_done;
  mutable frame : frame;
  mutable cur : Srec.t;
  sched : 's;
}

type 's sched = {
  self : unit -> 's worker;
  start : wid:int -> Srec.t -> Events.start_kind -> unit;
  finish : wid:int -> Srec.t -> Events.finish_kind -> unit;
  push : 's worker -> parked -> unit;
  pop : 's worker -> parked option;
}

type 's t = {
  sp : Sp_order.t;
  space : Aspace.t;
  workers : 's worker array;
  hooks : Hooks.t;
  ops : 's sched;
  uids : int Atomic.t; (* the last uid handed out; the root's is 1 *)
  fresh : Sp_order.strand -> Srec.t;
  inert : parked Lazy.t;
  finished : bool Atomic.t;
  n_spawns : int Atomic.t;
  n_nontrivial : int Atomic.t;
}

let create ~driver ~n_workers init mk_sched =
  if n_workers < 1 then invalid_arg "Book.create: need at least one worker";
  if n_workers > Aspace.max_workers then invalid_arg "Book.create: more workers than stack regions";
  let space = Aspace.create () in
  let sp, root_sp = Sp_order.create () in
  let root = Srec.make ~uid:1 root_sp in
  (* Deques that fill vacated slots need an item no one resumes.  A
     continuation cannot be fabricated, but it can be captured: suspend a
     throwaway fiber at a sync and never resume it.  An unresumed fiber
     keeps its stack until [release] discards it, so it is made only for
     a scheduler that asks. *)
  let inert =
    lazy
      (match Fiber.run Fiber.sync with
      | Fiber.Synced k -> { pk = k; pframe = new_frame ~parent:None; prec = root; pfiber = Root }
      | Fiber.Finished | Fiber.Spawned _ -> assert false)
  in
  let workers =
    Array.init n_workers (fun wid ->
        {
          wid;
          job = None;
          fid = Root;
          frame = new_frame ~parent:None;
          cur = root;
          sched = init ~inert wid;
        })
  in
  let hooks =
    driver { Hooks.aspace = space; sp; n_workers; current = (fun ~wid -> workers.(wid).cur) }
  in
  let uids = Atomic.make 1 in
  {
    sp;
    space;
    workers;
    hooks;
    ops = mk_sched hooks workers;
    uids;
    fresh = (fun s -> Srec.make ~uid:(1 + Atomic.fetch_and_add uids 1) s);
    inert;
    finished = Atomic.make false;
    n_spawns = Atomic.make 0;
    n_nontrivial = Atomic.make 0;
  }

let workers t = t.workers
let hooks t = t.hooks
let release t = if Lazy.is_val t.inert then Fiber.discard (Lazy.force t.inert).pk
let finished t = Atomic.get t.finished
let n_strands t = Atomic.get t.uids
let n_spawns t = Atomic.get t.n_spawns
let n_nontrivial_syncs t = Atomic.get t.n_nontrivial

(* --------------------------------------------------------- the protocol *)

let start t w r kind =
  w.cur <- r;
  t.ops.start ~wid:w.wid r kind

let resume_parked t w p kind =
  w.fid <- p.pfiber;
  w.frame <- p.pframe;
  start t w p.prec kind;
  w.job <- Some (J_resume p.pk)

let e_sync t () =
  match (t.ops.self ()).frame.sync_rec with None -> () | Some _ -> Fiber.sync ()

(* every function body ends in an implicit sync *)
let body t f =
  J_start
    (fun () ->
      f ();
      e_sync t ())

let launch t main =
  let w = t.workers.(0) in
  start t w w.cur Events.S_root;
  w.job <- Some (body t main)

let on_spawn t w f k =
  Atomic.incr t.n_spawns;
  let fr = w.frame in
  let first = Option.is_none fr.sync_rec in
  let cont_rec, sync_rec, child_rec = spawn t.sp ~fresh:t.fresh ~u:w.cur ~sync:fr.sync_rec in
  if first then fr.sync_rec <- Some sync_rec;
  t.ops.finish ~wid:w.wid w.cur
    (Events.F_spawn { cont = cont_rec; sync = sync_rec; child = child_rec; first_of_block = first });
  Mutex.lock fr.lock;
  fr.outstanding <- fr.outstanding + 1;
  Mutex.unlock fr.lock;
  let item = { pk = k; pframe = fr; prec = cont_rec; pfiber = w.fid } in
  t.ops.push w item;
  w.fid <- Child { cp_frame = fr; cp_sync = sync_rec; cp_item = item };
  w.frame <- new_frame ~parent:(Some fr);
  start t w child_rec Events.S_child;
  w.job <- Some (body t f)

let on_sync t w k =
  let fr = w.frame in
  let sync_rec = Option.get fr.sync_rec in
  let trivial = not (Atomic.get fr.stolen_in_block) in
  (* with no steal in the block every child returned on this worker, each
     through its continuation's pop, before the sync *)
  if trivial && fr.outstanding > 0 then
    failwith "Book: outstanding children at a sync with no steal in the block";
  if not trivial then begin
    Atomic.incr t.n_nontrivial;
    at_sync_nontrivial ~u:w.cur ~sync:sync_rec
  end;
  t.ops.finish ~wid:w.wid w.cur (Events.F_sync { trivial; sync = sync_rec });
  fr.sync_rec <- None;
  Atomic.set fr.stolen_in_block false;
  let p = { pk = k; pframe = fr; prec = sync_rec; pfiber = w.fid } in
  let pass =
    trivial
    || begin
         Mutex.lock fr.lock;
         let all_back = fr.outstanding = 0 in
         if not all_back then fr.suspended <- Some p;
         Mutex.unlock fr.lock;
         all_back
       end
  in
  if pass then resume_parked t w p (Events.S_after_sync { trivial })

let exec t w j =
  w.job <- None;
  match match j with J_start g -> Fiber.run g | J_resume k -> Fiber.resume k with
  | Fiber.Finished -> true
  | Fiber.Spawned (f, k) ->
      on_spawn t w f k;
      false
  | Fiber.Synced k ->
      on_sync t w k;
      false

let fiber_end t w =
  match w.fid with
  | Root ->
      t.ops.finish ~wid:w.wid w.cur Events.F_root;
      Atomic.set t.finished true
  | Child ci ->
      let fr = ci.cp_frame in
      let cont_stolen =
        match t.ops.pop w with
        | Some item when item == ci.cp_item -> false
        | Some _ -> failwith "Book: deque bottom is not this spawn's continuation"
        | None ->
            at_return_cont_stolen ~u:w.cur ~parent_sync:ci.cp_sync;
            true
      in
      t.ops.finish ~wid:w.wid w.cur
        (Events.F_return { cont_stolen; parent_sync = Some ci.cp_sync });
      Mutex.lock fr.lock;
      fr.outstanding <- fr.outstanding - 1;
      let suspended = if fr.outstanding = 0 then fr.suspended else None in
      if fr.outstanding = 0 then fr.suspended <- None;
      Mutex.unlock fr.lock;
      if not cont_stolen then resume_parked t w ci.cp_item (Events.S_cont { stolen = false })
      else
        (* the last child to return passes the sync *)
        Option.iter (fun p -> resume_parked t w p (Events.S_after_sync { trivial = false })) suspended

let steal t w p =
  Atomic.set p.pframe.stolen_in_block true;
  resume_parked t w p (Events.S_cont { stolen = true })

let engine t =
  let self = t.ops.self in
  {
    Fj.e_spawn = Fiber.spawn;
    e_sync = e_sync t;
    e_scope =
      (fun f ->
        let w = self () in
        let fr = new_frame ~parent:(Some w.frame) in
        w.frame <- fr;
        f ();
        e_sync t ();
        (* the body may have ended on another worker *)
        (self ()).frame <- Option.get fr.parent);
    e_with_frame =
      (fun ~words k ->
        let push_wid = (self ()).wid in
        Membuf.Frame.with_f_hooked t.space ~worker:push_wid ~words
          ~on_pop:(fun ~base ~len ->
            let w = self () in
            if w.wid <> push_wid then
              failwith
                "Fj.with_frame: stack frame popped on a different worker — with_frame bodies \
                 must not contain non-trivial syncs";
            w.cur.Srec.clears <- (base, len) :: w.cur.Srec.clears)
          k);
    e_space = t.space;
  }
