type config = {
  n_workers : int;
  seed : int;
  strand_cost : Srec.t -> Events.finish_kind -> int;
  c_steal : int;
  c_steal_fail : int;
  stages : Stage.t list;
  obs_clock : Clock.t;
}

type result = {
  makespan : int;
  total : int;
  worker_clocks : int array;
  stage_clocks : (string * int) list;
  n_steals : int;
  n_failed_steals : int;
  n_strands : int;
  n_spawns : int;
  n_nontrivial_syncs : int;
  core_work : int;
}

let default_strand_cost (u : Srec.t) (kind : Events.finish_kind) =
  let boundary =
    match kind with
    | Events.F_spawn _ -> 30
    | Events.F_sync _ -> 30
    | Events.F_return _ -> 20
    | Events.F_root -> 0
  in
  20 + u.work + (2 * (u.raw_reads + u.raw_writes)) + boundary

let default_config =
  {
    n_workers = 4;
    seed = 1;
    strand_cost = default_strand_cost;
    c_steal = 200;
    c_steal_fail = 50;
    stages = [];
    obs_clock = Clock.null;
  }

let serial = { default_config with n_workers = 1; strand_cost = (fun _ _ -> 0) }

(* ------------------------------------------------------- scheduler state *)

type frame = {
  parent : frame option;
  mutable sync_rec : Srec.t option;
  mutable outstanding : int;
  mutable stolen_in_block : bool;
  mutable suspended : susp option;
}

and susp = { sk : Fiber.kont; sfiber : fiber_done; srec : Srec.t }

and fiber_done = Root | Child of child_info

and child_info = { cp_frame : frame; cp_sync : Srec.t; cp_item : ditem }

and ditem = {
  dk : Fiber.kont;
  dframe : frame;
  drec : Srec.t;
  dfiber : fiber_done;
  dpushed_at : int;
}

type job = J_start of (unit -> unit) | J_resume of Fiber.kont | J_end

type wstate = {
  wid : int;
  mutable clock : int;
  mutable job : job option;
  mutable fid : fiber_done;
  mutable frame : frame;
  mutable cur : Srec.t;
  (* deque as a list, newest (bottom) first; steals take the oldest (last).
     Depth is bounded by spawn depth, so O(depth) steals are fine. *)
  mutable deque : ditem list;
}

let new_frame ~parent =
  {
    parent;
    sync_rec = None;
    outstanding = 0;
    stolen_in_block = false;
    suspended = None;
  }

let dq_push w item = w.deque <- item :: w.deque

let dq_pop_bottom w =
  match w.deque with
  | [] -> None
  | item :: rest ->
      w.deque <- rest;
      Some item

let rec last_and_init acc = function
  | [] -> None
  | [ x ] -> Some (x, List.rev acc)
  | x :: rest -> last_and_init (x :: acc) rest

let dq_peek_top w = match last_and_init [] w.deque with None -> None | Some (x, _) -> Some x

let dq_steal_top w =
  match last_and_init [] w.deque with
  | None -> None
  | Some (x, init) ->
      w.deque <- init;
      Some x

(* -------------------------------------------------------------- the run *)

type sim_stage = { stage : Stage.t; mutable s_clock : int; mutable s_done : bool }

let run ?aspace ~config ~(driver : Hooks.driver) main =
  let aspace = match aspace with Some a -> a | None -> Aspace.create () in
  let nw = config.n_workers in
  if nw < 1 then invalid_arg "Sim_exec: need at least one worker";
  if nw > Aspace.max_workers aspace then invalid_arg "Sim_exec: more workers than stack regions";
  let sp, root_sp = Sp_order.create () in
  let next_uid = ref 1 in
  let fresh s =
    incr next_uid;
    Srec.make ~uid:!next_uid s
  in
  let root_rec = Srec.make ~uid:1 root_sp in
  let workers =
    Array.init nw (fun wid ->
        {
          wid;
          clock = 0;
          job = None;
          fid = Root;
          frame = new_frame ~parent:None;
          cur = root_rec;
          deque = [];
        })
  in
  let cur_wid = ref 0 in
  let worker () = workers.(!cur_wid) in
  let ctx = { Hooks.aspace; sp; n_workers = nw; current = (fun ~wid -> workers.(wid).cur) } in
  let hooks = driver ctx in
  let rng = Rng.create config.seed in
  let n_spawns = ref 0 and n_nontrivial = ref 0 in
  let n_steals = ref 0 and n_failed = ref 0 in
  let core_work = ref 0 in
  let computation_done = ref false in

  let precharge w kind =
    let u = w.cur in
    let c = config.strand_cost u kind in
    w.clock <- w.clock + c;
    u.Srec.cost <- c;
    u.Srec.finished_at <- w.clock;
    core_work := !core_work + c
  in
  (* Pin the (virtual) observability clock to the acting worker's own
     timeline before every boundary hook: instrumented drivers stamp
     finishes at the worker's simulated time, deterministically. *)
  let oclk = config.obs_clock in
  let commit_finish w kind =
    Clock.set oclk w.clock;
    hooks.Hooks.on_finish ~wid:w.wid w.cur kind
  in
  let finish w kind =
    precharge w kind;
    commit_finish w kind
  in
  let start w r kind =
    w.cur <- r;
    Clock.set oclk w.clock;
    hooks.Hooks.on_start ~wid:w.wid r kind
  in

  (* engine operations, called from inside fibers *)
  let e_sync () =
    let w = worker () in
    match w.frame.sync_rec with None -> () | Some _ -> Fiber.sync ()
  in
  let e_spawn = Fiber.spawn in
  let e_scope f =
    let w = worker () in
    let fr = new_frame ~parent:(Some w.frame) in
    w.frame <- fr;
    f ();
    e_sync ();
    (worker ()).frame <- Option.get fr.parent
  in
  let e_with_frame ~words k =
    let w = worker () in
    let push_wid = w.wid in
    Membuf.Frame.with_f_hooked aspace ~worker:push_wid ~words
      ~on_pop:(fun ~base ~len ->
        let w' = worker () in
        if w'.wid <> push_wid then
          failwith
            "Sim_exec: stack frame popped on a different worker — with_frame bodies must not \
             contain non-trivial syncs";
        w'.cur.Srec.clears <- (base, len) :: w'.cur.Srec.clears)
      k
  in

  (* boundary handling *)
  let handle_spawn w f k =
    incr n_spawns;
    let fr = w.frame in
    let first = Option.is_none fr.sync_rec in
    let child_sp, cont_rec, sync_rec = Book.spawn sp ~fresh ~u:w.cur ~sync:fr.sync_rec in
    if first then fr.sync_rec <- Some sync_rec;
    finish w (Events.F_spawn { cont = cont_rec; sync = sync_rec; first_of_block = first });
    fr.outstanding <- fr.outstanding + 1;
    let item = { dk = k; dframe = fr; drec = cont_rec; dfiber = w.fid; dpushed_at = w.clock } in
    dq_push w item;
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
  let handle_sync w k =
    let fr = w.frame in
    let sync_rec = Option.get fr.sync_rec in
    let trivial = not fr.stolen_in_block in
    if trivial && fr.outstanding > 0 then
      failwith "Sim_exec: outstanding children at a sync with no steal in the block";
    if not trivial then begin
      incr n_nontrivial;
      Book.at_sync_nontrivial ~u:w.cur ~sync:sync_rec
    end;
    finish w (Events.F_sync { trivial; sync = sync_rec });
    fr.sync_rec <- None;
    fr.stolen_in_block <- false;
    if fr.outstanding = 0 then begin
      start w sync_rec (Events.S_after_sync { trivial });
      w.job <- Some (J_resume k)
    end
    else fr.suspended <- Some { sk = k; sfiber = w.fid; srec = sync_rec }
  in
  (* A fiber's end was precharged when its last strand executed; the deque
     pop (steal-vs-not resolution) happens on the worker's next turn, at the
     advanced clock, so thieves whose clocks fall inside the final strand's
     execution window still get their chance at the continuation. *)
  let handle_fiber_end w =
    match w.fid with
    | Root ->
        commit_finish w Events.F_root;
        computation_done := true
    | Child ci -> begin
        let fr = ci.cp_frame in
        fr.outstanding <- fr.outstanding - 1;
        match dq_pop_bottom w with
        | Some item when item == ci.cp_item ->
            commit_finish w (Events.F_return { cont_stolen = false; parent_sync = Some ci.cp_sync });
            w.fid <- item.dfiber;
            w.frame <- item.dframe;
            start w item.drec (Events.S_cont { stolen = false });
            w.job <- Some (J_resume item.dk)
        | Some _ -> failwith "Sim_exec: deque bottom is not this spawn's continuation"
        | None -> begin
            (* our continuation was stolen *)
            Book.at_return_cont_stolen ~u:w.cur ~parent_sync:ci.cp_sync;
            commit_finish w (Events.F_return { cont_stolen = true; parent_sync = Some ci.cp_sync });
            if fr.outstanding = 0 then
              match fr.suspended with
              | Some susp ->
                  (* last child to return passes the sync *)
                  fr.suspended <- None;
                  w.fid <- susp.sfiber;
                  w.frame <- fr;
                  start w susp.srec (Events.S_after_sync { trivial = false });
                  w.job <- Some (J_resume susp.sk)
              | None -> ()
          end
      end
  in
  let handle_status w = function
    | Fiber.Finished ->
        (* charge the final strand now (the return-boundary constant does not
           depend on the steal outcome), resolve the return on the next turn *)
        precharge w
          (Events.F_return { cont_stolen = false; parent_sync = None });
        w.job <- Some J_end
    | Fiber.Spawned (f, k) -> handle_spawn w f k
    | Fiber.Synced k -> handle_sync w k
  in

  let attempt_steal w =
    (* a thief probes victims starting from a random one, like a real
       work-stealing loop does within one quantum *)
    let offset = Rng.int rng (nw - 1) in
    let rec probe i =
      if i >= nw - 1 then None
      else begin
        let v = (w.wid + 1 + ((offset + i) mod (nw - 1))) mod nw in
        let victim = workers.(v) in
        match dq_peek_top victim with
        | Some item when item.dpushed_at <= w.clock -> Some victim
        | _ -> probe (i + 1)
      end
    in
    match probe 0 with
    | Some victim ->
        let item = Option.get (dq_steal_top victim) in
        incr n_steals;
        w.clock <- w.clock + config.c_steal;
        item.dframe.stolen_in_block <- true;
        w.fid <- item.dfiber;
        w.frame <- item.dframe;
        start w item.drec (Events.S_cont { stolen = true });
        w.job <- Some (J_resume item.dk)
    | None ->
        incr n_failed;
        w.clock <- w.clock + config.c_steal_fail;
        (* if every stealable item lies in the future, sleep until the first *)
        let earliest =
          Array.fold_left
            (fun acc v ->
              match dq_peek_top v with
              | Some item -> (
                  match acc with
                  | None -> Some item.dpushed_at
                  | Some t -> Some (min t item.dpushed_at))
              | None -> acc)
            None workers
        in
        (match earliest with Some t when w.clock < t -> w.clock <- t | _ -> ())
  in

  (* pipeline stages (PINT's treap workers), driven through the engine so
     their per-stage metrics accumulate exactly as on real domains *)
  let sim_stages = List.map (fun s -> { stage = s; s_clock = 0; s_done = false }) config.stages in
  let step_stages_once () =
    List.fold_left
      (fun progressed a ->
        if a.s_done then progressed
        else begin
          (* each stage emits on its own virtual timeline *)
          Clock.set oclk a.s_clock;
          let st = Stage.exec a.stage in
          if Step.is_done st then begin
            a.s_done <- true;
            progressed
          end
          else if Step.progressed st then begin
            a.s_clock <-
              a.s_clock + Stage.cost a.stage ~records:(Step.records st) ~visits:(Step.visits st);
            true
          end
          else progressed
        end)
      false sim_stages
  in
  let rec drain_stages () = if step_stages_once () then drain_stages () in

  (* install the per-domain engine and dispatching access sink *)
  let sinks =
    Array.init nw (fun wid ->
        Hooks.with_counting (fun () -> workers.(wid).cur) (hooks.Hooks.sink ~wid))
  in
  Fj.install
    {
      Fj.e_spawn;
      e_sync;
      e_scope;
      e_with_frame;
      e_wid = (fun () -> !cur_wid);
      e_space = aspace;
    };
  Access.install
    {
      Access.on_read = (fun ~addr ~len -> sinks.(!cur_wid).Access.on_read ~addr ~len);
      on_write = (fun ~addr ~len -> sinks.(!cur_wid).Access.on_write ~addr ~len);
      on_free = (fun ~base ~len -> sinks.(!cur_wid).Access.on_free ~base ~len);
      on_compute = (fun ~amount -> sinks.(!cur_wid).Access.on_compute ~amount);
    };
  Fun.protect
    ~finally:(fun () ->
      Access.uninstall ();
      Fj.uninstall ())
    (fun () ->
      hooks.Hooks.on_start ~wid:0 root_rec Events.S_root;
      workers.(0).job <-
        Some
          (J_start
             (fun () ->
               main ();
               e_sync ()));
      (* main scheduling loop: always advance the lowest-clock runnable
         worker; tie-break on worker id for determinism *)
      while not !computation_done do
        let any_items = Array.exists (fun w -> w.deque <> []) workers in
        let best = ref None in
        Array.iter
          (fun w ->
            let runnable = Option.is_some w.job || any_items in
            if runnable then
              match !best with
              | Some b when b.clock <= w.clock -> ()
              | _ -> best := Some w)
          workers;
        (match !best with
        | None -> failwith "Sim_exec: deadlock — no runnable worker but computation unfinished"
        | Some w -> (
            match w.job with
            | Some J_end ->
                w.job <- None;
                handle_fiber_end w
            | Some j ->
                w.job <- None;
                cur_wid := w.wid;
                let st =
                  match j with
                  | J_start g -> Fiber.run g
                  | J_resume k -> Fiber.resume k
                  | J_end -> assert false
                in
                handle_status w st
            | None -> attempt_steal w));
        drain_stages ()
      done;
      hooks.Hooks.on_done ();
      (* drain the access-history side to completion *)
      let rec final_drain guard =
        if not (List.for_all (fun a -> a.s_done) sim_stages) then
          if step_stages_once () then final_drain 0
          else if guard > 1000 then failwith "Sim_exec: stages stuck (idle but not done)"
          else final_drain (guard + 1)
      in
      final_drain 0);
  Array.iter (fun w -> assert (w.deque = [])) workers;
  let makespan = Array.fold_left (fun m w -> max m w.clock) 0 workers in
  let total = List.fold_left (fun m a -> max m a.s_clock) makespan sim_stages in
  {
    makespan;
    total;
    worker_clocks = Array.map (fun w -> w.clock) workers;
    stage_clocks = List.map (fun a -> (Stage.name a.stage, a.s_clock)) sim_stages;
    n_steals = !n_steals;
    n_failed_steals = !n_failed;
    n_strands = !next_uid;
    n_spawns = !n_spawns;
    n_nontrivial_syncs = !n_nontrivial;
    core_work = !core_work;
  }
