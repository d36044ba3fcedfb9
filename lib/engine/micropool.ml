(* Shard micropools: the pinned stage-to-domain topology of the streaming
   service (ROADMAP items 1-2, following the pinned-pool pattern of the
   ebsl OCaml-multicore work).

   K worker domains serve stage groups (for PINT, shard k's {writer,
   lreader, rreader} treap triple), which arrive while the pool runs (one
   lease per pint_serve session).  A submitted group is assigned to
   exactly one worker domain and never migrates, so all the single-owner
   state the stages carry (treaps, scratch buffers, consume buffers, AHQ
   cursors, event rings) keeps exactly one writing domain without any
   synchronization.  (OCaml exposes no portable OS-core affinity API, so
   "pinned" means pinned to a domain; the OS scheduler keeps a busy domain
   on its core in practice.)  Each worker steps all the groups it holds
   one {!Pipeline.step} round at a time — the three stages of one shard
   share one address range anyway, so co-scheduling them is
   cache-friendly —
   and backs off with the engine {!Backoff} only when every group it holds
   is unproductive.

   Only the handoff is synchronized: a submission enqueues under the
   worker's mutex, and the worker adopts pending groups into its private
   active set.  Completion flows back through one atomic countdown per
   lease: the worker that retires the lease's last group takes it to 0 and
   calls the lease's [notify], so a waiter can sleep on its own event
   source instead of polling. *)

type lease = {
  l_left : int Atomic.t; (* slots not yet retired; 0 = every stage Done *)
  l_notify : unit -> unit; (* called once, by the worker that takes l_left to 0 *)
}

type slot = {
  sl_group : Pipeline.t; (* stepped only by the adopting worker *)
  sl_lease : lease;
}

type worker = {
  w_lock : Mutex.t;
  mutable w_incoming : slot list; (* guarded by [w_lock] *)
  w_pending : int Atomic.t; (* |w_incoming|, checked without the lock *)
  w_load : int Atomic.t; (* slots assigned and not yet retired *)
  mutable w_active : slot list; (* worker-domain private *)
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

(* One round over every held group.  Top-level recursion rather than a
   closure over local flags, so a round that retires nothing allocates
   nothing. *)
let rec step_groups progressed = function
  | [] -> progressed
  | sl :: rest ->
      let p = Pipeline.step sl.sl_group in
      step_groups (p || progressed) rest

let slot_finished sl = Pipeline.finished sl.sl_group

(* Drop finished groups from the active set, counting each down on its
   lease; run only on a round where some group finished. *)
let retire w =
  w.w_active <-
    List.filter
      (fun sl ->
        if slot_finished sl then begin
          Atomic.decr w.w_load;
          if Atomic.fetch_and_add sl.sl_lease.l_left (-1) = 1 then sl.sl_lease.l_notify ();
          false
        end
        else true)
      w.w_active

let run_worker stop w =
  let idle_rounds = ref 0 in
  let running = ref true in
  while !running do
    adopt w;
    let progressed = step_groups false w.w_active in
    if List.exists slot_finished w.w_active then retire w;
    (* [stop] first: once it reads true, every submission made before
       [shutdown] is visible in [w_pending] *)
    if Atomic.get stop && w.w_active = [] && Atomic.get w.w_pending = 0 then running := false
    else if progressed then idle_rounds := 0
    else begin
      incr idle_rounds;
      (* entering the parked regime: one park episode *)
      if !idle_rounds = Backoff.yield_round then w.w_parks <- w.w_parks + 1;
      Backoff.relax !idle_rounds
    end
  done

let shared k =
  if k < 1 then invalid_arg "Micropool.shared: need at least one worker";
  let workers =
    Array.init k (fun _ ->
        {
          w_lock = Mutex.create ();
          w_incoming = [];
          w_pending = Atomic.make 0;
          w_load = Atomic.make 0;
          w_active = [];
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
      let sl = { sl_group = Pipeline.of_stages g; sl_lease = lease } in
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
