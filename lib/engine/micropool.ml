(* Shard micropools: the fixed stage-to-domain topology of the real
   executor (ROADMAP items 1-2, following the pinned-pool pattern of the
   ebsl OCaml-multicore work).

   One domain per pool, each cooperatively round-robining its own small
   set of stages — for PINT, shard k's {writer, lreader, rreader} treap
   triple — until every stage reports [`Done].  Stages are pinned for the
   pool's whole lifetime: a stage never migrates between domains, so all
   the single-owner state the stages carry (treaps, scratch buffers,
   consume buffers, AHQ cursors, event rings) keeps exactly one writing
   domain without any synchronization.  (OCaml exposes no portable OS-core
   affinity API, so "pinned" means pinned to a domain; the OS scheduler
   keeps a busy domain on its core in practice.)

   This replaces the previous one-domain-per-stage spawn: 3·shards
   domains, which oversubscribed the machine as soon as shards grew, and
   whose idle stages each burned a core waiting on their lane.  A pool
   interleaves its triple on one domain — the three stages of one shard
   share one lane's data anyway, so co-scheduling them is cache-friendly —
   and backs off with the engine {!Backoff} only when the whole triple is
   unproductive. *)

type pool = {
  p_id : int;
  p_stages : Stage.t array;
  p_ring : Evring.t; (* the pool domain's own obs track (Evring.null off) *)
  mutable p_parks : int; (* deep-backoff rounds: pool-idle diagnostics *)
}

type t = { pools : pool array; domains : unit Domain.t array }

let park_kind = Ev.park

(* Drive one pool to completion: round-robin every unfinished stage; any
   productive step resets the backoff ladder.  [`Idle]/[`Stalled] steps
   are counted by the stages themselves (Stage.exec), so per-stage
   diagnostics stay attributable even though the pool shares the domain. *)
let run_pool p =
  let n = Array.length p.p_stages in
  let finished = Array.make n false in
  let remaining = ref n in
  let idle_rounds = ref 0 in
  while !remaining > 0 do
    let progressed = ref false in
    Array.iteri
      (fun i s ->
        if not finished.(i) then begin
          let st = Stage.exec s in
          if Step.is_done st then begin
            finished.(i) <- true;
            decr remaining
          end
          else if Step.progressed st then progressed := true
        end)
      p.p_stages;
    if !remaining > 0 then
      if !progressed then idle_rounds := 0
      else begin
        incr idle_rounds;
        if !idle_rounds = Backoff.yield_round then begin
          (* entering the parked regime: one instant per park episode,
             emitted from the pool's own domain into its own ring *)
          p.p_parks <- p.p_parks + 1;
          Evring.emit p.p_ring ~kind:park_kind ~arg:p.p_id
        end;
        Backoff.relax !idle_rounds
      end
  done

let make ?(rings = [||]) (groups : Stage.t list list) =
  Array.of_list
    (List.mapi
       (fun i g ->
         {
           p_id = i;
           p_stages = Array.of_list g;
           p_ring = (if i < Array.length rings then rings.(i) else Evring.null);
           p_parks = 0;
         })
       groups)

(* Spawn one domain per pool.  The caller joins via {!join}; stages end on
   their own (`Done) once the upstream pipeline drains. *)
let spawn ?rings groups =
  let pools = make ?rings groups in
  let domains = Array.map (fun p -> Domain.spawn (fun () -> run_pool p)) pools in
  { pools; domains }

let join t = Array.iter Domain.join t.domains
let n_pools t = Array.length t.pools
let parks t = Array.fold_left (fun acc p -> acc + p.p_parks) 0 t.pools

(* ------------------------------------------------------------- shared pool *)

(* A shared pool generalizes [spawn]/[join] from one-shot to multi-tenant:
   K long-lived worker domains serve stage groups that arrive while the
   pool runs (pint_serve sessions).  The pinning discipline is unchanged —
   a submitted group is assigned to exactly one worker domain and never
   migrates, so every single-owner invariant the stages carry still sees
   one writing domain for its whole lifetime.  Only the handoff is
   synchronized: a submission enqueues under the worker's mutex, and the
   worker adopts pending groups into its private active set.  Completion
   flows back through one atomic countdown per lease: the worker that
   retires the lease's last slot takes it to 0 and calls the lease's
   [notify], so a waiter can sleep on its own event source instead of
   polling. *)

type lease = {
  l_left : int Atomic.t; (* slots not yet retired; 0 = every stage Done *)
  l_notify : unit -> unit; (* called once, by the worker that takes l_left to 0 *)
}

type slot = {
  sl_stages : Stage.t array;
  sl_finished : bool array; (* adopting worker's private done flags *)
  mutable sl_remaining : int;
  sl_lease : lease;
}

type worker = {
  w_id : int;
  w_lock : Mutex.t;
  mutable w_incoming : slot list; (* guarded by [w_lock] *)
  w_pending : int Atomic.t; (* |w_incoming|, checked without the lock *)
  w_load : int Atomic.t; (* slots assigned and not yet retired *)
  mutable w_active : slot list; (* worker-domain private *)
  w_ring : Evring.t;
  mutable w_parks : int;
}

type shared = {
  sh_workers : worker array;
  sh_domains : unit Domain.t array;
  sh_stop : bool Atomic.t;
  sh_rr : int Atomic.t; (* submission tie-break cursor *)
}

let adopt w =
  if Atomic.get w.w_pending > 0 then begin
    Mutex.lock w.w_lock;
    let incoming = w.w_incoming in
    w.w_incoming <- [];
    Atomic.set w.w_pending 0;
    Mutex.unlock w.w_lock;
    (* preserve arrival order for fairness; incoming is push-front *)
    w.w_active <- w.w_active @ List.rev incoming
  end

let step_slot sl progressed =
  let n = Array.length sl.sl_stages in
  for i = 0 to n - 1 do
    if not sl.sl_finished.(i) then begin
      let st = Stage.exec sl.sl_stages.(i) in
      if Step.is_done st then begin
        sl.sl_finished.(i) <- true;
        sl.sl_remaining <- sl.sl_remaining - 1
      end
      else if Step.progressed st then progressed := true
    end
  done

let run_worker stop w =
  let idle_rounds = ref 0 in
  let running = ref true in
  while !running do
    adopt w;
    let progressed = ref false in
    List.iter (fun sl -> step_slot sl progressed) w.w_active;
    let before = List.length w.w_active in
    w.w_active <-
      List.filter
        (fun sl ->
          if sl.sl_remaining = 0 then begin
            Atomic.decr w.w_load;
            if Atomic.fetch_and_add sl.sl_lease.l_left (-1) = 1 then sl.sl_lease.l_notify ();
            false
          end
          else true)
        w.w_active;
    if List.length w.w_active < before then progressed := true;
    if w.w_active = [] && Atomic.get w.w_pending = 0 && Atomic.get stop then running := false
    else if !progressed then idle_rounds := 0
    else begin
      incr idle_rounds;
      if !idle_rounds = Backoff.yield_round then begin
        w.w_parks <- w.w_parks + 1;
        Evring.emit w.w_ring ~kind:park_kind ~arg:w.w_id
      end;
      Backoff.relax !idle_rounds
    end
  done

let shared ?(rings = [||]) k =
  if k < 1 then invalid_arg "Micropool.shared: need at least one worker";
  let workers =
    Array.init k (fun i ->
        {
          w_id = i;
          w_lock = Mutex.create ();
          w_incoming = [];
          w_pending = Atomic.make 0;
          w_load = Atomic.make 0;
          w_active = [];
          w_ring = (if i < Array.length rings then rings.(i) else Evring.null);
          w_parks = 0;
        })
  in
  let stop = Atomic.make false in
  let domains = Array.map (fun w -> Domain.spawn (fun () -> run_worker stop w)) workers in
  { sh_workers = workers; sh_domains = domains; sh_stop = stop; sh_rr = Atomic.make 0 }

let submit ?(notify = ignore) sh (groups : Stage.t list list) =
  if Atomic.get sh.sh_stop then invalid_arg "Micropool.submit: pool is shutting down";
  (* the countdown is complete before any slot is published, so no early
     retirement can reach 0 while later groups are still being placed *)
  let lease = { l_left = Atomic.make (List.length groups); l_notify = notify } in
  List.iter
    (fun g ->
      let stages = Array.of_list g in
      let sl =
        {
          sl_stages = stages;
          sl_finished = Array.make (Array.length stages) false;
          sl_remaining = Array.length stages;
          sl_lease = lease;
        }
      in
      (* least-loaded worker; round-robin cursor breaks ties so equal-load
         workers share admission evenly *)
      let k = Array.length sh.sh_workers in
      let start = Atomic.fetch_and_add sh.sh_rr 1 mod k in
      let best = ref sh.sh_workers.(start) in
      for i = 1 to k - 1 do
        let w = sh.sh_workers.((start + i) mod k) in
        if Atomic.get w.w_load < Atomic.get !best.w_load then best := w
      done;
      let w = !best in
      Atomic.incr w.w_load;
      Mutex.lock w.w_lock;
      w.w_incoming <- sl :: w.w_incoming;
      Atomic.incr w.w_pending;
      Mutex.unlock w.w_lock)
    groups;
  lease

let lease_done l = Atomic.get l.l_left = 0

let await l =
  let r = ref 0 in
  while not (lease_done l) do
    incr r;
    Backoff.relax !r
  done

let shutdown sh =
  Atomic.set sh.sh_stop true;
  Array.iter Domain.join sh.sh_domains

let shared_parks sh = Array.fold_left (fun acc w -> acc + w.w_parks) 0 sh.sh_workers
