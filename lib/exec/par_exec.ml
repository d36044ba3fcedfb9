type config = {
  n_workers : int;
  seed : int;
  pools : Stage.t list list;
  obs : Obs.t;
}

type result = {
  elapsed_s : float;
  n_steals : int;
  n_steal_cas_failures : int;
  n_strands : int;
  n_spawns : int;
  n_nontrivial_syncs : int;
  n_domains : int;
  n_parks : int;
}

let default_config = { n_workers = 4; seed = 1; pools = []; obs = Obs.disabled }

(* ----------------------------------------------------------- structures *)

type frame = {
  parent : frame option;
  (* current-block fields: touched only by the logical thread executing the
     function body, so unsynchronized *)
  mutable sync_rec : Srec.t option;
  (* join state: touched by returning children concurrently.  This lock
     arbitrates the join protocol only (outstanding counter + suspended
     continuation hand-off) — it is never taken on the steal path, which is
     the lock-free {!Cldeque}. *)
  lock : Mutex.t;
  mutable outstanding : int;
  stolen_in_block : bool Atomic.t;
  mutable suspended : susp option;
}

and susp = { sk : Fiber.kont; sfiber : fiber_done; srec : Srec.t }

and fiber_done = Root | Child of child_info

and child_info = { cp_frame : frame; cp_sync : Srec.t; cp_item : ditem }

and ditem = { dk : Fiber.kont; dframe : frame; drec : Srec.t; dfiber : fiber_done }

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

type wstate = {
  wid : int;
  mutable job : job option;
  mutable fid : fiber_done;
  mutable frame : frame;
  mutable cur : Srec.t;
  deque : ditem Cldeque.t;
  rng : Rng.t;
  ring : Evring.t; (* this worker domain's obs track ("core<wid>") *)
  mutable parks : int; (* deep-backoff episodes while hunting for work *)
}

(* current worker state for the executing domain *)
let wkey : wstate option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let self () =
  match !(Domain.DLS.get wkey) with
  | Some w -> w
  | None -> failwith "Par_exec: not on a worker domain"

(* -------------------------------------------------------------- the run *)

let run ?aspace ~config ~(driver : Hooks.driver) main =
  let aspace = match aspace with Some a -> a | None -> Aspace.create () in
  let nw = config.n_workers in
  if nw < 1 then invalid_arg "Par_exec: need at least one worker";
  if nw > Aspace.max_workers aspace then invalid_arg "Par_exec: more workers than stack regions";
  let sp, root_sp = Sp_order.create () in
  let next_uid = Atomic.make 1 in
  let fresh s = Srec.make ~uid:(Atomic.fetch_and_add next_uid 1) s in
  let root_rec = Srec.make ~uid:0 root_sp in
  (* The deques need an inert [ditem] to fill vacated slots (so the ring
     retains no stale continuation references).  A continuation cannot be
     fabricated, but it can be captured: suspend a throwaway fiber at a
     sync and never resume it. *)
  let dummy_ditem =
    match Fiber.run Fiber.sync with
    | Fiber.Synced k -> { dk = k; dframe = new_frame ~parent:None; drec = root_rec; dfiber = Root }
    | _ -> assert false
  in
  let workers =
    Array.init nw (fun wid ->
        {
          wid;
          job = None;
          fid = Root;
          frame = new_frame ~parent:None;
          cur = root_rec;
          deque = Cldeque.create ~dummy:dummy_ditem ();
          rng = Rng.create (config.seed + (wid * 7919));
          ring = Obs.track config.obs ("core" ^ string_of_int wid);
          parks = 0;
        })
  in
  let ctx = { Hooks.aspace; sp; n_workers = nw; current = (fun ~wid -> workers.(wid).cur) } in
  let hooks = driver ctx in
  let computation_done = Atomic.make false in
  let n_steals = Atomic.make 0 in
  let n_spawns = Atomic.make 0 in
  let n_nontrivial = Atomic.make 0 in

  let finish (w : wstate) kind = hooks.Hooks.on_finish ~wid:w.wid w.cur kind in
  let start (w : wstate) r kind =
    w.cur <- r;
    hooks.Hooks.on_start ~wid:w.wid r kind
  in

  (* engine operations; always re-resolve the executing worker because a
     fiber can migrate between domains across suspension points *)
  let e_sync () =
    let w = self () in
    match w.frame.sync_rec with None -> () | Some _ -> Fiber.sync ()
  in
  let e_spawn = Fiber.spawn in
  let e_scope f =
    let w = self () in
    let fr = new_frame ~parent:(Some w.frame) in
    w.frame <- fr;
    f ();
    e_sync ();
    (self ()).frame <- Option.get fr.parent
  in
  let e_with_frame ~words k =
    let w = self () in
    let push_wid = w.wid in
    Membuf.Frame.with_f_hooked aspace ~worker:push_wid ~words
      ~on_pop:(fun ~base ~len ->
        let w' = self () in
        if w'.wid <> push_wid then
          failwith
            "Par_exec: stack frame popped on a different worker — with_frame bodies must not \
             contain non-trivial syncs";
        w'.cur.Srec.clears <- (base, len) :: w'.cur.Srec.clears)
      k
  in

  let handle_spawn (w : wstate) f k =
    Atomic.incr n_spawns;
    let fr = w.frame in
    let first = Option.is_none fr.sync_rec in
    let child_sp, cont_rec, sync_rec = Book.spawn sp ~fresh ~u:w.cur ~sync:fr.sync_rec in
    if first then fr.sync_rec <- Some sync_rec;
    finish w (Events.F_spawn { cont = cont_rec; sync = sync_rec; first_of_block = first });
    Mutex.lock fr.lock;
    fr.outstanding <- fr.outstanding + 1;
    Mutex.unlock fr.lock;
    let item = { dk = k; dframe = fr; drec = cont_rec; dfiber = w.fid } in
    Cldeque.push_bottom w.deque item;
    let child_rec = fresh child_sp in
    w.fid <- Child { cp_frame = fr; cp_sync = sync_rec; cp_item = item };
    w.frame <- new_frame ~parent:(Some fr);
    start w child_rec Events.S_child;
    w.job <-
      Some
        (J_start
           (fun () ->
             f ();
             e_sync ()))
  in
  let handle_sync (w : wstate) k =
    let fr = w.frame in
    let sync_rec = Option.get fr.sync_rec in
    let trivial = not (Atomic.get fr.stolen_in_block) in
    if not trivial then begin
      Atomic.incr n_nontrivial;
      Book.at_sync_nontrivial ~u:w.cur ~sync:sync_rec
    end;
    finish w (Events.F_sync { trivial; sync = sync_rec });
    fr.sync_rec <- None;
    Atomic.set fr.stolen_in_block false;
    if trivial then begin
      start w sync_rec (Events.S_after_sync { trivial = true });
      w.job <- Some (J_resume k)
    end
    else begin
      Mutex.lock fr.lock;
      if fr.outstanding = 0 then begin
        Mutex.unlock fr.lock;
        start w sync_rec (Events.S_after_sync { trivial = false });
        w.job <- Some (J_resume k)
      end
      else begin
        fr.suspended <- Some { sk = k; sfiber = w.fid; srec = sync_rec };
        Mutex.unlock fr.lock
      end
    end
  in
  let handle_fiber_end (w : wstate) =
    match w.fid with
    | Root ->
        finish w Events.F_root;
        Atomic.set computation_done true
    | Child ci -> begin
        let fr = ci.cp_frame in
        match Cldeque.pop_bottom w.deque with
        | Some item when item == ci.cp_item ->
            Mutex.lock fr.lock;
            fr.outstanding <- fr.outstanding - 1;
            Mutex.unlock fr.lock;
            finish w (Events.F_return { cont_stolen = false; parent_sync = Some ci.cp_sync });
            w.fid <- item.dfiber;
            w.frame <- item.dframe;
            start w item.drec (Events.S_cont { stolen = false });
            w.job <- Some (J_resume item.dk)
        | Some _ -> failwith "Par_exec: deque bottom is not this spawn's continuation"
        | None -> begin
            Book.at_return_cont_stolen ~u:w.cur ~parent_sync:ci.cp_sync;
            finish w (Events.F_return { cont_stolen = true; parent_sync = Some ci.cp_sync });
            Mutex.lock fr.lock;
            fr.outstanding <- fr.outstanding - 1;
            let resume =
              if fr.outstanding = 0 then begin
                let s = fr.suspended in
                fr.suspended <- None;
                s
              end
              else None
            in
            Mutex.unlock fr.lock;
            match resume with
            | Some susp ->
                w.fid <- susp.sfiber;
                w.frame <- fr;
                start w susp.srec (Events.S_after_sync { trivial = false });
                w.job <- Some (J_resume susp.sk)
            | None -> ()
          end
      end
  in
  let handle_status w = function
    | Fiber.Finished -> handle_fiber_end w
    | Fiber.Spawned (f, k) -> handle_spawn w f k
    | Fiber.Synced k -> handle_sync w k
  in

  (* One steal attempt against a random victim; [true] iff a continuation
     was acquired.  A lost CAS (thief race) and an empty victim both report
     [false] — the caller's backoff ladder decides how hard to keep
     trying. *)
  let attempt_steal (w : wstate) =
    if nw <= 1 then false
    else begin
      let v = Rng.int w.rng (nw - 1) in
      let victim = workers.(if v >= w.wid then v + 1 else v) in
      match Cldeque.steal_top victim.deque with
      | Some item ->
          Atomic.incr n_steals;
          Evring.emit w.ring ~kind:Ev.steal ~arg:victim.wid;
          Atomic.set item.dframe.stolen_in_block true;
          w.fid <- item.dfiber;
          w.frame <- item.dframe;
          start w item.drec (Events.S_cont { stolen = true });
          w.job <- Some (J_resume item.dk);
          true
      | None -> false
    end
  in

  let worker_loop (w : wstate) =
    Domain.DLS.get wkey := Some w;
    Fj.install
      {
        Fj.e_spawn;
        e_sync;
        e_scope;
        e_with_frame;
        e_wid = (fun () -> w.wid);
        e_space = aspace;
      };
    Access.install (Hooks.with_counting (fun () -> w.cur) (hooks.Hooks.sink ~wid:w.wid));
    let idle_rounds = ref 0 in
    let rec loop () =
      match w.job with
      | Some j ->
          w.job <- None;
          idle_rounds := 0;
          let st = match j with J_start g -> Fiber.run g | J_resume k -> Fiber.resume k in
          handle_status w st;
          loop ()
      | None ->
          if Atomic.get computation_done then ()
          else begin
            if attempt_steal w then idle_rounds := 0
            else begin
              incr idle_rounds;
              if !idle_rounds = Backoff.yield_round then begin
                w.parks <- w.parks + 1;
                Evring.emit w.ring ~kind:Ev.park ~arg:w.wid
              end;
              Backoff.relax !idle_rounds
            end;
            loop ()
          end
    in
    loop ();
    Access.uninstall ();
    Fj.uninstall ();
    Domain.DLS.get wkey := None
  in

  let t0 = Unix.gettimeofday () in
  workers.(0).job <-
    Some
      (J_start
         (fun () ->
           main ();
           e_sync ()));
  hooks.Hooks.on_start ~wid:0 root_rec Events.S_root;
  (* one pinned pool worker per stage group — for PINT, one per shard's
     {writer, lreader, rreader} triple — so [shards] means real cores; on
     a fresh pool group i lands on worker i, whose track is pool<i> *)
  let n_pools = List.length config.pools in
  let pool =
    match config.pools with
    | [] -> None
    | groups ->
        let rings = Array.init n_pools (fun i -> Obs.track config.obs ("pool" ^ string_of_int i)) in
        let sh = Micropool.shared ~rings n_pools in
        ignore (Micropool.submit sh groups);
        Some sh
  in
  let core_domains =
    Array.to_list
      (Array.map (fun w -> Domain.spawn (fun () -> worker_loop w)) (Array.sub workers 1 (nw - 1)))
  in
  worker_loop workers.(0);
  List.iter Domain.join core_domains;
  hooks.Hooks.on_done ();
  Option.iter Micropool.shutdown pool;
  let elapsed_s = Unix.gettimeofday () -. t0 in
  Array.iter (fun w -> assert (Cldeque.is_empty w.deque)) workers;
  {
    elapsed_s;
    n_steals = Atomic.get n_steals;
    n_steal_cas_failures =
      Array.fold_left (fun acc w -> acc + Cldeque.steal_cas_failures w.deque) 0 workers;
    n_strands = Atomic.get next_uid;
    n_spawns = Atomic.get n_spawns;
    n_nontrivial_syncs = Atomic.get n_nontrivial;
    n_domains = nw + n_pools;
    n_parks =
      Option.fold ~none:0 ~some:Micropool.shared_parks pool
      + Array.fold_left (fun acc w -> acc + w.parks) 0 workers;
  }
