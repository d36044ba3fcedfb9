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

(* ------------------------------------------------------- scheduler state *)

type wstate = {
  deque : Book.parked Cldeque.t;
  rng : Rng.t;
  ring : Evring.t; (* this worker domain's obs track ("core<wid>") *)
  mutable parks : int; (* deep-backoff episodes while hunting for work *)
}

(* current worker for the executing domain *)
let wkey : wstate Book.worker option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let self () =
  match !(Domain.DLS.get wkey) with
  | Some w -> w
  | None -> failwith "Par_exec: not on a worker domain"

(* -------------------------------------------------------------- the run *)

let run ~config ~driver main =
  let nw = config.n_workers in
  let t =
    Book.create ~driver ~n_workers:nw
      (fun ~inert wid ->
        {
          deque = Cldeque.create ~dummy:(Lazy.force inert) ();
          rng = Rng.create (config.seed + (wid * 7919));
          ring = Obs.track config.obs ("core" ^ string_of_int wid);
          parks = 0;
        })
      (fun hooks _ ->
        {
          Book.self;
          start = hooks.Hooks.on_start;
          finish = hooks.Hooks.on_finish;
          push = (fun w item -> Cldeque.push_bottom w.sched.deque item);
          pop = (fun w -> Cldeque.pop_bottom w.sched.deque);
        })
  in
  let workers = Book.workers t and hooks = Book.hooks t in
  let n_steals = Atomic.make 0 in

  (* One steal attempt against a random victim; [true] iff a continuation
     was acquired.  A lost CAS (thief race) and an empty victim both report
     [false] — the caller's backoff ladder decides how hard to keep
     trying. *)
  let attempt_steal (w : wstate Book.worker) =
    if nw <= 1 then false
    else begin
      let v = Rng.int w.sched.rng (nw - 1) in
      let victim = workers.(if v >= w.wid then v + 1 else v) in
      match Cldeque.steal_top victim.sched.deque with
      | Some item ->
          Atomic.incr n_steals;
          Evring.emit w.sched.ring ~kind:Ev.steal ~arg:victim.wid;
          Book.steal t w item;
          true
      | None -> false
    end
  in

  let engine = Book.engine t in
  let worker_loop (w : wstate Book.worker) =
    Domain.DLS.get wkey := Some w;
    Fj.install engine;
    Access.install (Hooks.with_counting (fun () -> w.cur) (hooks.Hooks.sink ~wid:w.wid));
    let idle_rounds = ref 0 in
    let rec loop () =
      match w.job with
      | Some j ->
          idle_rounds := 0;
          if Book.exec t w j then Book.fiber_end t w;
          loop ()
      | None ->
          if Book.finished t then ()
          else begin
            if attempt_steal w then idle_rounds := 0
            else begin
              incr idle_rounds;
              if !idle_rounds = Backoff.yield_round then begin
                w.sched.parks <- w.sched.parks + 1;
                Evring.emit w.sched.ring ~kind:Ev.park ~arg:w.wid
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
  Book.launch t main;
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
  Book.release t;
  hooks.Hooks.on_done ();
  Option.iter Micropool.shutdown pool;
  let elapsed_s = Unix.gettimeofday () -. t0 in
  Array.iter (fun w -> assert (Cldeque.is_empty w.Book.sched.deque)) workers;
  {
    elapsed_s;
    n_steals = Atomic.get n_steals;
    n_steal_cas_failures =
      Array.fold_left (fun acc w -> acc + Cldeque.steal_cas_failures w.Book.sched.deque) 0 workers;
    n_strands = Book.n_strands t;
    n_spawns = Book.n_spawns t;
    n_nontrivial_syncs = Book.n_nontrivial_syncs t;
    n_domains = nw + n_pools;
    n_parks =
      Option.fold ~none:0 ~some:Micropool.shared_parks pool
      + Array.fold_left (fun acc w -> acc + w.Book.sched.parks) 0 workers;
  }
