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

(* ------------------------------------------------------------- the team *)

(* Domains kept across runs.  A member parks on [m_wake] until a run hands
   it an order under [m_lock]: a job, whose return it reports by clearing
   the order, or its retirement.  Members no run holds wait in
   [team.t_idle], so a later run reuses their minor heaps and heap pools
   instead of spawning and joining domains.

   A parked domain is not free: it still takes part, through its backup
   thread, in every stop-the-world minor collection of the process.  On a
   2-core host an allocation loop on the main domain ran about 20x slower
   beside 8 parked domains, 2x slower beside 2, and unchanged beside one.
   So the team keeps at most [recommended_domain_count - 1] members, and
   retires the idle ones a run does not take before the run starts. *)
type order = Job of (unit -> unit) | Retire

type member = {
  m_lock : Mutex.t;
  m_wake : Condition.t;
  mutable m_order : order option; (* the order in hand; [None] once a job has returned *)
}

type team = { t_lock : Mutex.t; mutable t_idle : (member * unit Domain.t) list }

let team = { t_lock = Mutex.create (); t_idle = [] }

let hand m order =
  Mutex.lock m.m_lock;
  m.m_order <- Some order;
  Condition.broadcast m.m_wake;
  Mutex.unlock m.m_lock

let await m =
  Mutex.lock m.m_lock;
  while Option.is_some m.m_order do
    Condition.wait m.m_wake m.m_lock
  done;
  Mutex.unlock m.m_lock

(* A member's domain.  Jobs catch what they raise (see [guard] in [run]),
   so the domain always returns to its park. *)
let rec serve m =
  Mutex.lock m.m_lock;
  while Option.is_none m.m_order do
    Condition.wait m.m_wake m.m_lock
  done;
  let order = Option.get m.m_order in
  Mutex.unlock m.m_lock;
  match order with
  | Retire -> ()
  | Job job ->
      job ();
      Mutex.lock m.m_lock;
      m.m_order <- None;
      Condition.broadcast m.m_wake;
      Mutex.unlock m.m_lock;
      serve m

let retire (m, d) =
  hand m Retire;
  Domain.join d

(* Back to the park, up to the team's size; the rest retire. *)
let give_back members =
  let keep = Domain.recommended_domain_count () - 1 in
  Mutex.lock team.t_lock;
  let idle = members @ team.t_idle in
  team.t_idle <- List.filteri (fun i _ -> i < keep) idle;
  Mutex.unlock team.t_lock;
  List.iter retire (List.filteri (fun i _ -> i >= keep) idle)

(* [k] members for one run: idle ones first, fresh domains for the rest;
   idle ones beyond [k] retire. *)
let acquire k =
  Mutex.lock team.t_lock;
  let idle = team.t_idle in
  team.t_idle <- [];
  Mutex.unlock team.t_lock;
  let got = List.filteri (fun i _ -> i < k) idle in
  List.iter retire (List.filteri (fun i _ -> i >= k) idle);
  let rec spawn k got =
    if k = 0 then got
    else
      let m = { m_lock = Mutex.create (); m_wake = Condition.create (); m_order = None } in
      match Domain.spawn (fun () -> serve m) with
      | d -> spawn (k - 1) ((m, d) :: got)
      | exception e ->
          give_back got;
          raise e
  in
  Array.of_list (spawn (k - List.length got) got)

(* ------------------------------------------------------- scheduler state *)

type wstate = {
  deque : Book.parked Cldeque.t;
  rng : Rng.t;
  ring : Evring.t; (* this worker's obs track ("core<wid>") *)
  group : Pipeline.t option; (* the stage group a holder works first *)
  mutable idle : int; (* consecutive rounds without work *)
  mutable parks : int; (* deep-backoff episodes while idle *)
}

(* current worker for the executing domain *)
let wkey : wstate Book.worker option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let self () =
  match !(Domain.DLS.get wkey) with
  | Some w -> w
  | None -> failwith "Par_exec: not on a worker domain"

(* Step a group until a round makes no progress; true iff some round did. *)
let rec rounds g progressed = if Pipeline.step g then rounds g true else progressed

let work_stages (w : wstate Book.worker) =
  match w.sched.group with Some g -> rounds g false | None -> false

(* One round without work: a park episode starts at [Backoff.yield_round]. *)
let relax (w : wstate Book.worker) =
  let s = w.sched in
  s.idle <- s.idle + 1;
  if s.idle = Backoff.yield_round then begin
    s.parks <- s.parks + 1;
    Evring.emit s.ring ~kind:Ev.park ~arg:w.wid
  end;
  Backoff.relax s.idle

(* -------------------------------------------------------------- the run *)

let run ~config ~driver main =
  let nw = config.n_workers in
  if nw < 1 then invalid_arg "Par_exec.run: need at least one core worker";
  let groups = Array.of_list (List.map Pipeline.of_stages config.pools) in
  let n = nw + Array.length groups in
  let t =
    Book.create ~driver ~n_workers:n
      (fun ~inert wid ->
        {
          deque = Cldeque.create ~dummy:(Lazy.force inert) ();
          rng = Rng.create (config.seed + (wid * 7919));
          ring = Obs.track config.obs ("core" ^ string_of_int wid);
          group = (if wid < nw then None else Some groups.(wid - nw));
          idle = 0;
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
  (* the first exception a worker raised; every worker leaves its loop
     once it is set, and [run] re-raises it *)
  let failure = Atomic.make None in
  let failed () = Option.is_some (Atomic.get failure) in
  let guard f =
    try f ()
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (Atomic.compare_and_set failure None (Some (e, bt)))
  in
  (* workers still in their strand loop: [on_done] waits for 0 *)
  let in_loop = Atomic.make n in

  (* One steal attempt against a random victim; [true] iff a continuation
     was acquired.  A lost CAS (thief race) and an empty victim both report
     [false] — the caller's backoff ladder decides how hard to keep
     trying. *)
  let attempt_steal (w : wstate Book.worker) =
    if n <= 1 then false
    else begin
      let v = Rng.int w.sched.rng (n - 1) in
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

  (* A holder steps its group after every job segment and before every
     steal, so strands run only while its stages have nothing ready. *)
  let engine = Book.engine t in
  let strand_loop (w : wstate Book.worker) =
    Domain.DLS.get wkey := Some w;
    Fj.install engine;
    Access.install (Hooks.with_counting (fun () -> w.cur) (hooks.Hooks.sink ~wid:w.wid));
    let rec loop () =
      if failed () then ()
      else
        match w.job with
        | Some j ->
            w.sched.idle <- 0;
            if Book.exec t w j then Book.fiber_end t w;
            ignore (work_stages w);
            loop ()
        | None ->
            if Book.finished t then ()
            else begin
              let worked = work_stages w in
              if attempt_steal w || worked then w.sched.idle <- 0 else relax w;
              loop ()
            end
    in
    Fun.protect loop ~finally:(fun () ->
        Access.uninstall ();
        Fj.uninstall ();
        Domain.DLS.get wkey := None)
  in
  (* After the strands: a holder's stages report [`Done] once [on_done]
     has fired and they have drained the run's backlog. *)
  let drain (w : wstate Book.worker) =
    match w.sched.group with
    | None -> ()
    | Some g ->
        w.sched.idle <- 0;
        while not (Pipeline.finished g || failed ()) do
          if Pipeline.step g then w.sched.idle <- 0 else relax w
        done
  in
  let work w () =
    guard (fun () -> strand_loop w);
    Atomic.decr in_loop;
    guard (fun () -> drain w)
  in

  let t0 = Unix.gettimeofday () in
  guard (fun () -> Book.launch t main);
  (* worker i > 0 runs on member i - 1: core workers first, then one holder
     per stage group, so for PINT shard k's treaps stay on one domain *)
  let members = acquire (n - 1) in
  Array.iteri (fun i (m, _) -> hand m (Job (work workers.(i + 1)))) members;
  guard (fun () -> strand_loop workers.(0));
  Atomic.decr in_loop;
  let r = ref 0 in
  while Atomic.get in_loop > 0 do
    incr r;
    Backoff.relax !r
  done;
  if not (failed ()) then guard hooks.Hooks.on_done;
  Book.release t;
  Array.iter (fun (m, _) -> await m) members;
  let elapsed_s = Unix.gettimeofday () -. t0 in
  give_back (Array.to_list members);
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None ->
      Array.iter (fun w -> assert (Cldeque.is_empty w.Book.sched.deque)) workers;
      {
        elapsed_s;
        n_steals = Atomic.get n_steals;
        n_steal_cas_failures =
          Array.fold_left (fun acc w -> acc + Cldeque.steal_cas_failures w.Book.sched.deque) 0 workers;
        n_strands = Book.n_strands t;
        n_spawns = Book.n_spawns t;
        n_nontrivial_syncs = Book.n_nontrivial_syncs t;
        n_domains = n;
        n_parks = Array.fold_left (fun acc w -> acc + w.Book.sched.parks) 0 workers;
      }
