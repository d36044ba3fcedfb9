type config = {
  n_workers : int;
  seed : int;
  strand_cost : Srec.t -> Events.finish_kind -> int;
  stages : Stage.t list;
  obs_clock : Clock.t;
}

type result = {
  makespan : int;
  total : int;
  worker_clocks : int array;
  stage_clocks : (string * int) list;
  n_steals : int;
  n_strands : int;
  n_spawns : int;
  n_nontrivial_syncs : int;
  core_work : int;
}

let default_config =
  {
    n_workers = 4;
    seed = 1;
    strand_cost = Cost_model.base_cost;
    stages = [];
    obs_clock = Clock.null;
  }

let serial = { default_config with n_workers = 1 }

(* ------------------------------------------------------- scheduler state *)

type wstate = {
  mutable clock : int;
  (* deque as a list of (push time, item), newest (bottom) first; steals
     take the oldest (last).  Depth is bounded by spawn depth, so O(depth)
     steals are fine. *)
  mutable deque : (int * Book.parked) list;
  (* the fiber finished and was charged; its end resolves on the next turn *)
  mutable ending : bool;
}

let rec last_and_init acc = function
  | [] -> None
  | [ x ] -> Some (x, List.rev acc)
  | x :: rest -> last_and_init (x :: acc) rest

let dq_peek_top (w : wstate Book.worker) =
  match last_and_init [] w.sched.deque with None -> None | Some (x, _) -> Some x

let dq_steal_top (w : wstate Book.worker) =
  match last_and_init [] w.sched.deque with
  | None -> None
  | Some ((_, item), init) ->
      w.sched.deque <- init;
      Some item

(* -------------------------------------------------------------- the run *)

type sim_stage = { stage : Stage.t; mutable s_clock : int; mutable s_done : bool }

let run ~config ~driver main =
  let nw = config.n_workers in
  let rng = Rng.create config.seed in
  let n_steals = ref 0 in
  let core_work = ref 0 in
  let cur_wid = ref 0 in
  (* Pin the (virtual) observability clock to the acting worker's own
     timeline before every boundary hook: instrumented drivers stamp
     finishes at the worker's simulated time, deterministically. *)
  let oclk = config.obs_clock in
  let precharge (w : wstate Book.worker) kind =
    let c = config.strand_cost w.cur kind in
    w.sched.clock <- w.sched.clock + c;
    core_work := !core_work + c
  in
  let t =
    Book.create ~driver ~n_workers:nw
      (fun ~inert:_ _ -> { clock = 0; deque = []; ending = false })
      (fun hooks workers ->
        {
          Book.self = (fun () -> workers.(!cur_wid));
          start =
            (fun ~wid r kind ->
              Clock.set oclk workers.(wid).sched.clock;
              hooks.Hooks.on_start ~wid r kind);
          finish =
            (fun ~wid u kind ->
              let w = workers.(wid) in
              (match kind with
              | Events.F_spawn _ | Events.F_sync _ -> precharge w kind
              (* a fiber's last strand was charged when the fiber finished *)
              | Events.F_return _ | Events.F_root -> ());
              Clock.set oclk w.sched.clock;
              hooks.Hooks.on_finish ~wid u kind);
          push = (fun w item -> w.sched.deque <- (w.sched.clock, item) :: w.sched.deque);
          pop =
            (fun w ->
              match w.sched.deque with
              | [] -> None
              | (_, item) :: rest ->
                  w.sched.deque <- rest;
                  Some item);
        })
  in
  let workers = Book.workers t and hooks = Book.hooks t in

  let attempt_steal (w : wstate Book.worker) =
    (* a thief probes victims starting from a random one, like a real
       work-stealing loop does within one quantum *)
    let offset = Rng.int rng (nw - 1) in
    let rec probe i =
      if i >= nw - 1 then None
      else begin
        let v = (w.wid + 1 + ((offset + i) mod (nw - 1))) mod nw in
        let victim = workers.(v) in
        match dq_peek_top victim with
        | Some (pushed_at, _) when pushed_at <= w.sched.clock -> Some victim
        | _ -> probe (i + 1)
      end
    in
    match probe 0 with
    | Some victim ->
        let item = Option.get (dq_steal_top victim) in
        incr n_steals;
        w.sched.clock <- w.sched.clock + Cost_model.c_steal;
        Book.steal t w item
    | None ->
        w.sched.clock <- w.sched.clock + Cost_model.c_steal_fail;
        (* if every stealable item lies in the future, sleep until the first *)
        let earliest =
          Array.fold_left
            (fun acc v ->
              match dq_peek_top v with
              | Some (pushed_at, _) -> (
                  match acc with None -> Some pushed_at | Some e -> Some (min e pushed_at))
              | None -> acc)
            None workers
        in
        (match earliest with Some e when w.sched.clock < e -> w.sched.clock <- e | _ -> ())
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
  Fj.install (Book.engine t);
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
      Book.launch t main;
      (* main scheduling loop: always advance the lowest-clock runnable
         worker; tie-break on worker id for determinism *)
      while not (Book.finished t) do
        let any_items = Array.exists (fun w -> w.Book.sched.deque <> []) workers in
        let best = ref None in
        Array.iter
          (fun (w : wstate Book.worker) ->
            let runnable = Option.is_some w.job || w.sched.ending || any_items in
            if runnable then
              match !best with
              | Some b when b.Book.sched.clock <= w.sched.clock -> ()
              | _ -> best := Some w)
          workers;
        (match !best with
        | None -> failwith "Sim_exec: deadlock — no runnable worker but computation unfinished"
        | Some w -> (
            (* A fiber's end was precharged when its last strand executed;
               the deque pop (steal-vs-not resolution) happens on the
               worker's next turn, at the advanced clock, so thieves whose
               clocks fall inside the final strand's execution window still
               get their chance at the continuation. *)
            if w.sched.ending then begin
              w.sched.ending <- false;
              Book.fiber_end t w
            end
            else
              match w.job with
              | Some j ->
                  cur_wid := w.wid;
                  if Book.exec t w j then begin
                    (* the return-boundary constant does not depend on the
                       steal outcome *)
                    precharge w (Events.F_return { cont_stolen = false; parent_sync = None });
                    w.sched.ending <- true
                  end
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
  Array.iter (fun w -> assert (w.Book.sched.deque = [])) workers;
  let clocks = Array.map (fun w -> w.Book.sched.clock) workers in
  let makespan = Array.fold_left max 0 clocks in
  let total = List.fold_left (fun m a -> max m a.s_clock) makespan sim_stages in
  {
    makespan;
    total;
    worker_clocks = clocks;
    stage_clocks = List.map (fun a -> (Stage.name a.stage, a.s_clock)) sim_stages;
    n_steals = !n_steals;
    n_strands = Book.n_strands t;
    n_spawns = Book.n_spawns t;
    n_nontrivial_syncs = Book.n_nontrivial_syncs t;
    core_work = !core_work;
  }
