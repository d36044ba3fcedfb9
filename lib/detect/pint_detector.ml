(* The N-shard access-history topology (generalizing the paper's fixed
   {writer, lreader, rreader} triple and the §VI sharding sketch):
   address-range shard k owns the [Shard.shard_block]-word blocks
   congruent to k and runs its own {writer, lreader, rreader} treap
   triple.  Race checks are per-address, so restricting every treap to
   the block-aligned subranges its shard owns preserves the race set
   while every treap stays sequential — no concurrent treap is ever
   needed.  [shards = 1] is the paper's configuration: three treap
   workers, nothing ever split.

   Stage/worker layout for N shards (stage index = position below):
     [0]            the collector: scans traces in DAG order (Algorithm 2),
                    enqueues each strand once on the access-history queue,
                    and doubles as shard 0's writer treap worker
                    (processing the strand synchronously, exactly the
                    paper's writer at N = 1);
     [1 .. N-1]     shard k's writer treap worker;
     [N .. 2N-1]    shard k's left-most reader treap worker;
     [2N .. 3N-1]   shard k's right-most reader treap worker.
   Stage i ≥ 1 reads the queue through cursor i − 1, so every stage sees
   the full DAG-ordered strand stream and restricts each strand's reads,
   writes, clears and frees to its shard's blocks itself; per-shard
   clear/free ordering is preserved verbatim.

   [serial] is STINT as a configuration of the same core: one shard's
   treaps, whose three role steps ([role_step], the function every stage
   calls) run on the calling thread at each strand's finish — no trace, no
   queue, no stage. *)

(* ------------------------------------------------------------- stage roles *)

type role = Writer | Lreader | Rreader

let role_prefix = function Writer -> "writer" | Lreader -> "lreader" | Rreader -> "rreader"

(* Stage/track names: the paper's bare "writer"/"lreader"/"rreader" at one
   shard (so the default topology's tracks, clocks and diagnostics keep
   their historical names), "writer2"/"lreader0"/… when sharded.  Obs
   tracks, Chrome-trace threads and [Systems.run] stage clocks all key on
   these, so this is the single naming authority. *)
let stage_name_of ~shards role k =
  if shards = 1 then role_prefix role else role_prefix role ^ string_of_int k

let role_of_stage_name name =
  let strip prefix =
    let lp = String.length prefix and ln = String.length name in
    if ln >= lp && String.sub name 0 lp = prefix then
      if ln = lp then Some 0 else int_of_string_opt (String.sub name lp (ln - lp))
    else None
  in
  (* reader prefixes first: "writer" must not swallow nothing, but no reader
     name starts with "writer" and vice versa — order is just defensive *)
  match strip "lreader" with
  | Some k -> Some (Lreader, k)
  | None -> (
      match strip "rreader" with
      | Some k -> Some (Rreader, k)
      | None -> ( match strip "writer" with Some k -> Some (Writer, k) | None -> None))

(* Mean over the clocks of one role's stages — the per-role reduction the
   harness uses instead of pattern-matching stage-name prefixes. *)
let role_mean role clocks =
  let tot = ref 0. and n = ref 0 in
  List.iter
    (fun (name, c) ->
      match role_of_stage_name name with
      | Some (ro, _) when ro = role ->
          tot := !tot +. float_of_int c;
          incr n
      | _ -> ())
    clocks;
  if !n = 0 then 0. else !tot /. float_of_int !n

(* --------------------------------------------------------------- run state *)

(* One shard's access history: the treaps behind its writer, left-most
   reader and right-most reader roles. *)
type hist = {
  writer : Sp_order.strand Itreap.t;
  lreader : Sp_order.strand Itreap.t;
  rreader : Sp_order.strand Itreap.t;
}

(* The one seed rule of both detectors.  Shard 0 keeps the historical
   seeds, so a one-shard run's treap shapes, and hence its visit counts,
   are the same whether PINT's stages or [serial] drive the roles. *)
let make_hist ~seed k =
  let owner_eq = ( == ) in
  {
    writer = Itreap.create ~seed:(if k = 0 then seed else seed + 211 + k) ~owner_eq ();
    lreader = Itreap.create ~seed:(seed + 1 + k) ~owner_eq ();
    rreader = Itreap.create ~seed:(seed + 101 + k) ~owner_eq ();
  }

let role_treap h = function Writer -> h.writer | Lreader -> h.lreader | Rreader -> h.rreader

(* One treap's role context, built once per run: what [role_step]'s
   per-record path reads, the strand it is applying, the race kind it is
   checking and the subrange it is checking (set before each treap call),
   the query callback and keep policy, each built once over the context —
   so no record, subrange or read builds a closure — and the count of
   subranges the role has applied, and the racing pairs already sent to
   the report for the strand being applied ([sent]). *)
type tctx = {
  report : Report.t;
  sp : Sp_order.t;
  treap : Sp_order.strand Itreap.t;
  role : role;
  shards : int;
  shard : int;
  mutable kind : Report.kind;
  mutable cur : Sp_order.strand;
  mutable qlo : int;
  mutable qhi : int;
  mutable subranges : int;
  sent : Race_table.t;
  on_overlap : int -> int -> Sp_order.strand -> unit;
  keep : incumbent:Sp_order.strand -> [ `Keep | `Replace ];
}

let validate_hist h =
  Itreap.validate h.writer;
  Itreap.validate h.lreader;
  Itreap.validate h.rreader

(* Workload totals over finished strands.  [finish_strand] bumps them on
   every core-worker domain at once under [Par_exec], hence atomic. *)
type totals = { intervals : int Atomic.t; work : int Atomic.t; raw_events : int Atomic.t }

let make_totals () = { intervals = Atomic.make 0; work = Atomic.make 0; raw_events = Atomic.make 0 }

let totals_diags t =
  let get a = float_of_int (Atomic.get a) in
  [ ("intervals", get t.intervals); ("work", get t.work); ("raw_events", get t.raw_events) ]

(* State that exists only while a run is active. *)
type run = {
  ctx : Hooks.ctx;
  coals : Coalescer.t array; (* per core worker *)
  cur_traces : Trace.t array; (* per core worker *)
  scan : Trace.t Vec.t; (* active traces, private to the collector *)
  reg_lock : Mutex.t;
  (* traces core workers started since the collector last adopted, newest
     first, guarded by [reg_lock]; [n_incoming] counts them so the
     collector takes the lock only when there is something to adopt *)
  mutable incoming : Trace.t list;
  n_incoming : int Atomic.t;
  ahq : Ahq.t; (* one cursor per consuming stage: stage i reads cursor i - 1 *)
  consume_bufs : Srec.t array array; (* per consuming stage, reusable; slot 0 unused *)
  hist : hist array; (* one per shard *)
  roles : tctx array; (* stage i's treap context *)
  core_done : bool Atomic.t;
  collect_done : bool Atomic.t;
  mutable scan_cursor : int;
  mutable n_collected : int;
  mutable next_trace_id : int;
  totals : totals;
  (* observability (all Evring.null / unregistered when profiling is off):
     [obs_stage].(i) is stage i's track; [lat_collect] the finish→collected
     histogram (collector-owned); [lat_done].(i) the finish→all-treaps-done
     histogram bumped by whichever stage performed the last done_count
     increment, merged into the session's registered histogram once the
     pipeline drains ([lat_published] latches that hand-off). *)
  obs_stage : Evring.t array;
  lat_collect : Histo.t;
  lat_done : Histo.t array;
  done_target : int; (* 3 · shards: every stage processes every strand *)
  mutable lat_published : bool;
}

type t = {
  seed : int;
  shards : int;
  report : Report.t;
  mutable run : run option;
  mutable stage_list : Stage.t list;
  mutable obs : Obs.t;
  (* Backpressure window (Backoff rounds the collector rides out a full
     queue before rejecting an enqueue).  0 — the default — is mandatory
     under single-threaded drivers; real-domain runs opt in via
     [set_backpressure] before the run starts. *)
  mutable bp_rounds : int;
}

let dummy_trace = Trace.create ~id:(-1) ~owner:(-1)

(* AHQ capacity, in strand records. *)
let queue_capacity = 4096

(* The race check a role runs per stored interval its query meets: the
   stored owner races the strand being applied iff they are logically
   parallel, and the role sends each racing pair to the report once per
   strand, at its first overlap — the witness the report keeps.  The
   witness is built only when the pair is sent. *)
let[@pint.hot] on_overlap (c : tctx) lo hi prior =
  if Policies.race c.sp ~prior ~current:c.cur then begin
    let p = Sp_order.id prior in
    if Race_table.first c.sent ~prior:p c.kind then
      Report.add c.report c.kind ~prior:p ~current:(Sp_order.id c.cur)
        (Interval.make (Int.max lo c.qlo) (Int.min hi c.qhi))
  end

(* The reader treaps' keep policies (the writer never merges). *)
let[@pint.hot] keep (c : tctx) ~incumbent =
  match c.role with
  | Rreader -> Policies.keep_rightmost c.sp ~s:c.cur ~incumbent
  | Writer | Lreader -> Policies.keep_leftmost c.sp ~s:c.cur ~incumbent

let make_tctx report sp h role ~shards ~shard =
  let nobody = Srec.placeholder.Srec.sp in
  let rec c =
    {
      report;
      sp;
      treap = role_treap h role;
      role;
      shards;
      shard;
      kind = Report.Write_read;
      cur = nobody;
      qlo = 0;
      qhi = 0;
      subranges = 0;
      sent = Race_table.create ();
      on_overlap = (fun lo hi prior -> on_overlap c lo hi prior);
      keep = (fun ~incumbent -> keep c ~incumbent);
    }
  in
  c

let make ?(seed = 4242) ?(shards = 1) () =
  if shards < 1 then invalid_arg "Pint_detector.make: shards must be >= 1";
  {
    seed;
    shards;
    report = Report.create ();
    run = None;
    stage_list = [];
    obs = Obs.disabled;
    bp_rounds = 0;
  }

let shards t = t.shards
let set_obs t obs = t.obs <- obs

(* Recommended backpressure window for real-domain runs: the Backoff
   ladder's spin rungs plus ~50 parked sleeps (≈2.5 ms at 50 µs each) —
   long enough to ride out a treap worker's worst batch, short enough that
   a genuinely wedged queue still surfaces as a reject/stall. *)
let recommended_bp_rounds = 64

let set_backpressure t ~rounds =
  if rounds < 0 then invalid_arg "Pint_detector.set_backpressure: rounds must be >= 0";
  t.bp_rounds <- rounds

let stage_name t role k = stage_name_of ~shards:t.shards role k

(* Stage index layout (see the header comment): stage [i] plays
   [role_of_idx t i] for shard [i mod shards]. *)
let role_of_idx t i = if i < t.shards then Writer else if i < 2 * t.shards then Lreader else Rreader
let stage_name_of_idx t i = stage_name t (role_of_idx t i) (i mod t.shards)

let active t = match t.run with Some r -> r | None -> failwith "Pint: no active run"

(* ------------------------------------------------------- core-worker side *)

(* The access sink both detectors install on core worker [wid]: reads and
   writes coalesce in the worker's coalescer, frees are deferred onto the
   strand record (the heap gets the range back only after the treaps have
   seen its clear). *)
let coalescing_sink (ctx : Hooks.ctx) coals ~wid =
  let coal = coals.(wid) in
  {
    Access.on_read = (fun ~addr ~len -> Coalescer.add_read coal ~addr ~len);
    on_write = (fun ~addr ~len -> Coalescer.add_write coal ~addr ~len);
    on_free =
      (fun ~base ~len ->
        let u = ctx.current ~wid in
        u.Srec.frees <- (base, len) :: u.Srec.frees);
    on_compute = (fun ~amount:_ -> ());
  }

(* The core side of a strand's finish in both detectors: its coalesced
   intervals go on its record and into the totals. *)
let finish_strand coals (tot : totals) ~wid (u : Srec.t) =
  let reads, writes = Coalescer.finish coals.(wid) in
  u.Srec.reads <- reads;
  u.Srec.writes <- writes;
  ignore (Atomic.fetch_and_add tot.intervals (Array.length reads + Array.length writes));
  ignore (Atomic.fetch_and_add tot.work u.Srec.work);
  ignore (Atomic.fetch_and_add tot.raw_events (u.Srec.raw_reads + u.Srec.raw_writes))

let coal_diags coals =
  let sum f = Array.fold_left (fun acc c -> acc + f (Coalescer.sort_stats c)) 0 coals in
  [ ("coal_sort_skips", float_of_int (sum fst)); ("coal_sorts", float_of_int (sum snd)) ]

let new_trace r ~wid =
  Mutex.lock r.reg_lock;
  let id = r.next_trace_id in
  r.next_trace_id <- id + 1;
  let tr = Trace.create ~id ~owner:wid in
  r.incoming <- tr :: r.incoming;
  Atomic.incr r.n_incoming;
  Mutex.unlock r.reg_lock;
  r.cur_traces.(wid) <- tr;
  tr

let driver t (ctx : Hooks.ctx) =
  let s = t.shards in
  let n_stages = 3 * s in
  let obs_stage = Array.init n_stages (fun i -> Obs.track t.obs (stage_name_of_idx t i)) in
  (* the collector is the producer and processes shard 0's writer share
     itself, so only the other stages need a cursor *)
  let ahq = Ahq.create ~capacity:queue_capacity ~readers:(n_stages - 1) in
  Ahq.set_obs ahq ~writer:obs_stage.(0) ~readers:(Array.sub obs_stage 1 (n_stages - 1));
  let hist = Array.init s (make_hist ~seed:t.seed) in
  let r =
    {
      ctx;
      coals = Array.init ctx.n_workers (fun _ -> Coalescer.create ());
      cur_traces = Array.make ctx.n_workers dummy_trace;
      scan = Vec.create ~capacity:64 dummy_trace;
      reg_lock = Mutex.create ();
      incoming = [];
      n_incoming = Atomic.make 0;
      ahq;
      (* [Srec.placeholder] fills them before their first use; it is never
         processed, since peek_batch_into reports how many slots are live *)
      consume_bufs = Array.init n_stages (fun _ -> Array.make Ahq.default_batch Srec.placeholder);
      hist;
      roles =
        Array.init n_stages (fun i ->
            make_tctx t.report ctx.sp hist.(i mod s) (role_of_idx t i) ~shards:s ~shard:(i mod s));
      core_done = Atomic.make false;
      collect_done = Atomic.make false;
      scan_cursor = 0;
      n_collected = 0;
      next_trace_id = 0;
      totals = make_totals ();
      obs_stage;
      lat_collect = Obs.histo t.obs "lat.finish_to_collect";
      lat_done = Array.init n_stages (fun _ -> Histo.create ());
      done_target = n_stages;
      lat_published = false;
    }
  in
  for wid = 0 to ctx.n_workers - 1 do
    ignore (new_trace r ~wid)
  done;
  t.run <- Some r;
  List.iter Stage.reset_metrics t.stage_list;
  {
    Hooks.sink = coalescing_sink ctx r.coals;
    on_start =
      (fun ~wid _rec kind ->
        if Events.starts_trace kind then begin
          Trace.close r.cur_traces.(wid);
          ignore (new_trace r ~wid)
        end);
    on_finish =
      (fun ~wid u _kind ->
        finish_strand r.coals r.totals ~wid u;
        Trace.push r.cur_traces.(wid) u);
    on_done =
      (fun () ->
        Array.iter Trace.close r.cur_traces;
        Atomic.set r.core_done true);
  }

(* ------------------------------------------------------ treap-worker side *)

(* The shard's share of a strand's clears or frees, each (base, len). *)
let[@pint.hot] rec clear_all (c : tctx) = function
  | [] -> ()
  | (base, len) :: rest ->
      Shard.iter_subranges ~shards:c.shards ~shard:c.shard base (base + len - 1) c.treap
        Itreap.clear_range;
      clear_all c rest

let rec heap_free_all aspace = function
  | [] -> ()
  | (base, len) :: rest ->
      Aspace.heap_free aspace ~base ~len;
      heap_free_all aspace rest

(* The per-subrange treap calls [role_step] hands to
   [Shard.iter_subranges], each a toplevel function of the context: check
   subrange [lo, hi] against the treap as [c.kind]; the writer's check and
   take-over of one of its strand's write subranges; a reader's merge of
   one read subrange under its keep policy. *)
let[@pint.hot] check_sub (c : tctx) lo hi =
  c.subranges <- c.subranges + 1;
  c.qlo <- lo;
  c.qhi <- hi;
  Itreap.query c.treap lo hi ~f:c.on_overlap

let[@pint.hot] write_sub (c : tctx) lo hi =
  check_sub c lo hi;
  Itreap.insert_replace c.treap lo hi c.cur

let[@pint.hot] read_sub (c : tctx) lo hi =
  c.subranges <- c.subranges + 1;
  Itreap.insert_merge c.treap lo hi c.cur ~keep:c.keep

(* [f] over the shard's subranges of every interval of [ivs], in order. *)
let[@pint.hot] each_sub (c : tctx) (ivs : Interval.t array) f =
  for i = 0 to Array.length ivs - 1 do
    let iv = ivs.(i) in
    Shard.iter_subranges ~shards:c.shards ~shard:c.shard iv.lo iv.hi c f
  done

(* One role's treap work on the context's shard's share of strand [u];
   returns the treap-node visits.  Every PINT stage and [serial] run this.
   The treap checks the strand against its pre-strand contents before
   taking the strand's own updates:
   - writer: check the reads (Write_read), then check and insert each write
     in turn (Write_write) — coalesced writes are disjoint, so no write
     meets one its own strand inserted;
   - left-/right-most reader: check the writes (Read_write), then insert
     the reads under the role's keep policy;
   then the shard's share of the strand's clears and frees.  Index loops
   and the context's prebuilt callbacks keep it allocation-free. *)
let[@pint.hot] role_step (c : tctx) (u : Srec.t) =
  let treap = c.treap in
  let v0 = Itreap.visits treap in
  c.cur <- u.Srec.sp;
  (* [sent] holds for one strand *)
  Race_table.next_strand c.sent;
  (match c.role with
  | Writer ->
      c.kind <- Report.Write_read;
      each_sub c u.Srec.reads check_sub;
      c.kind <- Report.Write_write;
      each_sub c u.Srec.writes write_sub
  | Lreader | Rreader ->
      c.kind <- Report.Read_write;
      each_sub c u.Srec.writes check_sub;
      each_sub c u.Srec.reads read_sub);
  clear_all c u.Srec.clears;
  clear_all c u.Srec.frees;
  Itreap.visits treap - v0

(* [done_count] counts the stages that have processed the strand.  Only
   a profiled run keeps it — a run's rings are all live or all null —
   and the stage whose bump takes it to [3N] marks the strand complete
   and records its finish→done latency: [slot] indexes that stage's
   private histogram and the ring is its own track, so the emit stays
   single-owner. *)
let bump_done r ~slot ~ring (u : Srec.t) =
  if Evring.enabled ring && Atomic.fetch_and_add u.Srec.done_count 1 = r.done_target - 1 then begin
    let ts = Evring.now ring in
    Evring.emit_at ring ~ts ~kind:Ev.complete ~arg:u.Srec.uid;
    Histo.add r.lat_done.(slot) (ts - u.Srec.obs_ts)
  end

(* Algorithm 2: Collect.  The strand is enqueued once for every consuming
   stage (or the collector stalls on a full queue), then the collector
   does shard 0's writer work on it. *)
let collect t r (u : Srec.t) =
  Ahq.try_enqueue r.ahq ~rounds:t.bp_rounds u
  && begin
       (match u.Srec.child with
       | Some c when u.Srec.is_spawn || u.Srec.child_is_sync -> Atomic.decr c.Srec.pred
       | _ -> ());
       r.n_collected <- r.n_collected + 1;
       let ring = r.obs_stage.(0) in
       (if Evring.enabled ring then begin
          let ts = Evring.now ring in
          Evring.emit_at ring ~ts ~kind:Ev.collect ~arg:u.Srec.uid;
          Histo.add r.lat_collect (ts - u.Srec.obs_ts)
        end);
       (* under Par_exec downstream stages can outrun the collector's own
          bump, so the collector may observe the completing increment *)
       bump_done r ~slot:0 ~ring u;
       ignore (role_step r.roles.(0) u : int);
       (* the delayed frees become real here: the collector owns heap
          recycling (§III-D, §III-F), after shard 0's treaps saw the clear *)
       heap_free_all r.ctx.aspace u.Srec.frees;
       true
     end

(* Hand the traces core workers started since the last step to the
   collector's scan set, in creation order (the Micropool.adopt
   pattern). *)
let adopt_traces r =
  if Atomic.get r.n_incoming > 0 then begin
    Mutex.lock r.reg_lock;
    let incoming = r.incoming in
    r.incoming <- [];
    Atomic.set r.n_incoming 0;
    Mutex.unlock r.reg_lock;
    List.iter (Vec.push r.scan) (List.rev incoming)
  end

type scan = Collected | Empty | Full

(* One collection attempt of Algorithm 2: scan the active traces
   round-robin from position [i], retiring drained ones, and collect the
   first ready strand. *)
let rec scan_traces t r i tried =
  let len = Vec.length r.scan in
  if len = 0 || tried >= len then Empty
  else begin
    let idx = i mod len in
    let tr = Vec.get r.scan idx in
    if Trace.drained tr then begin
      (* retire: swap-remove *)
      Vec.set r.scan idx (Vec.get r.scan (len - 1));
      ignore (Vec.pop r.scan : Trace.t);
      scan_traces t r idx tried
    end
    else if Trace.unlocked tr then
      match Trace.peek tr with
      | Some u ->
          if collect t r u then begin
            Trace.pop tr;
            r.scan_cursor <- idx;
            Collected
          end
          else Full (* queue full: stall until its consumers catch up *)
      | None -> scan_traces t r (idx + 1) (tried + 1)
    else scan_traces t r (idx + 1) (tried + 1)
  end

(* The collector's step: up to [Ahq.default_batch] collection attempts,
   each resuming the scan at the last collected trace, so the strands go
   out in the order one attempt per step would send them; the batch ends
   at the first attempt that collects nothing. *)
let writer_step t : Step.t =
  let r = active t in
  (* read before adopting: once it reads true, every trace a core worker
     started is in the scan set when the step decides the run is over *)
  let core_done = Atomic.get r.core_done in
  adopt_traces r;
  let v0 = Itreap.visits r.hist.(0).writer in
  let n = ref 0 and last = ref Collected in
  while !last = Collected && !n < Ahq.default_batch do
    last := scan_traces t r r.scan_cursor 0;
    if !last = Collected then incr n
  done;
  if !n > 0 then Step.worked ~records:!n (Itreap.visits r.hist.(0).writer - v0)
  else
    match !last with
    | Full -> Step.stalled
    | Empty | Collected ->
        if core_done && Vec.length r.scan = 0 then begin
          Atomic.set r.collect_done true;
          Step.finished
        end
        else Step.idle

(* Stage [i]'s step for every stage but the collector: shard [i mod
   shards]'s treap worker for [role_of_idx t i], reading the queue through
   cursor [i - 1] in batches — one cursor update and one slot-recycling
   scan per batch, through the stage's reusable buffer, so the batch
   itself allocates nothing. *)
let consume_step t i : Step.t =
  let r = active t in
  let buf = r.consume_bufs.(i) in
  let n = Ahq.peek_batch_into r.ahq (i - 1) buf in
  if n = 0 then if Atomic.get r.collect_done then Step.finished else Step.idle
  else begin
    let c = r.roles.(i) in
    let visits = ref 0 in
    for j = 0 to n - 1 do
      let u = buf.(j) in
      visits := !visits + role_step c u;
      bump_done r ~slot:i ~ring:r.obs_stage.(i) u
    done;
    Ahq.advance_n r.ahq (i - 1) n;
    Step.worked ~records:n !visits
  end

(* The pipeline stages, in stage-index order: the collector, the shard
   writer workers, then the [2·N] reader workers, registered with the
   engine.  The same stage values are used by every executor (the simulator
   steps them in virtual time, the multi-domain executor hands each shard's
   triple to one pool worker, [drain] round-robins them), so the per-stage
   metrics accumulate in one place regardless of who drives the
   pipeline. *)
let stages t =
  let s = t.shards in
  let all =
    List.init (3 * s) (fun i ->
        let step = if i = 0 then fun () -> writer_step t else fun () -> consume_step t i in
        Stage.make ~name:(stage_name_of_idx t i) ~cost:Cost_model.treap_step_cost step)
  in
  t.stage_list <- all;
  all

let current_stages t = match t.stage_list with [] -> stages t | l -> l

(* The treap-side critical path under the stages' cost model: the slowest
   single stage, which is what bounds detection when every stage has its
   own worker.  Sharding's whole point is pushing this down — records per
   stage stay (at most) the strand count while each stage's visit share
   shrinks. *)
let detection_span t =
  List.fold_left
    (fun acc s ->
      let m = Stage.metrics s in
      Float.max acc (float_of_int (Stage.cost s ~records:m.Stage.records ~visits:m.Stage.visits)))
    0. t.stage_list

(* After the pipeline has drained, merge the per-stage finish→done
   histograms into the session's registered aggregate.  Latched: drain can
   be called repeatedly (Detector.races drains on every query), the merge
   must happen once.  Runs on the draining thread after every stage is
   done, so reading the per-stage histograms is race-free. *)
let publish_latencies t =
  match t.run with
  | Some r when Obs.enabled t.obs && not r.lat_published ->
      r.lat_published <- true;
      let dst = Obs.histo t.obs "lat.finish_to_done" in
      Array.iter (fun src -> Histo.merge_into ~src ~dst) r.lat_done
  | _ -> ()

let drain t =
  Pipeline.drive (Pipeline.of_stages (current_stages t));
  publish_latencies t

let stage_diagnostics t =
  match t.stage_list with
  | [] -> []
  | sl ->
      let collector_name = stage_name t Writer 0 in
      let consumers = List.filter (fun s -> Stage.name s <> collector_name) sl in
      let sum f = List.fold_left (fun acc s -> acc + f (Stage.metrics s)) 0 consumers in
      let csteps = sum (fun m -> m.Stage.steps) and crecords = sum (fun m -> m.Stage.records) in
      let writer_stalls =
        match List.find_opt (fun s -> Stage.name s = collector_name) sl with
        | Some w -> (Stage.metrics w).Stage.stalls
        | None -> 0
      in
      ("writer_stalls", float_of_int writer_stalls)
      :: ("ahq_batch", float_of_int crecords /. float_of_int (max 1 csteps))
      :: ("detect_span", detection_span t)
      :: Pipeline.diagnostics (Pipeline.of_stages sl)

let diagnostics t () =
  match t.run with
  | None -> []
  | Some r ->
      let sum_role f role = Array.fold_left (fun a h -> a + f (role_treap h role)) 0 r.hist in
      let sum_treaps f = sum_role f Writer + sum_role f Lreader + sum_role f Rreader in
      (* strands per stage of a role, averaged over its shards *)
      let role_strands role =
        role_mean role
          (List.map (fun st -> (Stage.name st, (Stage.metrics st).Stage.records)) t.stage_list)
      in
      (* the source intervals of every collected strand (all of them, once
         drained) against the subranges the shards' writers applied: the
         ratio is the split rate (1.0 = no interval ever straddled an
         ownership boundary) *)
      let split_intervals = Atomic.get r.totals.intervals in
      let split_subranges =
        Array.fold_left ( + ) 0 (Array.init t.shards (fun k -> r.roles.(k).subranges))
      in
      Policies.path_diags sum_treaps
      @ ("queue_min_rescans", float_of_int (Ahq.min_rescans r.ahq))
        :: coal_diags r.coals
      @ [
        ("collected", float_of_int r.n_collected);
        ("writer_strands", role_strands Writer);
        ("l_strands", role_strands Lreader);
        ("r_strands", role_strands Rreader);
        ("writer_visits", float_of_int (sum_role Itreap.visits Writer));
        ("lreader_visits", float_of_int (sum_role Itreap.visits Lreader));
        ("rreader_visits", float_of_int (sum_role Itreap.visits Rreader));
        ("writer_size", float_of_int (sum_role Itreap.size Writer));
        ("lreader_size", float_of_int (sum_role Itreap.size Lreader));
        ("rreader_size", float_of_int (sum_role Itreap.size Rreader));
        ("report_adds", float_of_int (Report.raw_count t.report));
        ("queue_enqueued", float_of_int (Ahq.enqueued r.ahq));
        ("lane_rejects", float_of_int (Ahq.rejects r.ahq));
        ("lane_peak_depth", float_of_int (Ahq.peak_occupancy r.ahq));
        ("backpressure_waits", float_of_int (Ahq.backpressure_waits r.ahq));
        ("split_intervals", float_of_int split_intervals);
        ("split_subranges", float_of_int split_subranges);
        ("split_rate", float_of_int split_subranges /. float_of_int (max 1 split_intervals));
        ("traces", float_of_int r.next_trace_id);
      ]
      @ totals_diags r.totals
      @ ("shards", float_of_int t.shards) :: stage_diagnostics t

(* Structural invariants of all 3·N treaps: heap order on priorities,
   BST order on intervals, pairwise disjointness, size counters. *)
let validate t = Option.iter (fun r -> Array.iter validate_hist r.hist) t.run

let detector t =
  {
    Detector.name = "pint";
    driver = driver t;
    report = t.report;
    drain = (fun () -> match t.run with Some _ -> drain t | None -> ());
    diagnostics = diagnostics t;
    validate = (fun () -> validate t);
  }

(* ------------------------------------------------------- serial: STINT *)

let serial ?(seed = 4242) ?(obs = Obs.disabled) () =
  let report = Report.create () in
  let ring = Obs.track obs "stint" in
  let diags = ref [] in
  (* installed by the driver once the treaps exist *)
  let validators = ref (fun () -> ()) in
  let driver (ctx : Hooks.ctx) =
    if ctx.n_workers > 1 then failwith "Stint: serial detector run on a parallel executor";
    let h = make_hist ~seed 0 in
    let coals = [| Coalescer.create () |] and tot = make_totals () and strands = ref 0 in
    (validators := fun () -> validate_hist h);
    let role r = make_tctx report ctx.sp h r ~shards:1 ~shard:0 in
    let writer = role Writer and lreader = role Lreader and rreader = role Rreader in
    (* the strand's three role steps, in stage order, then the heap takes
       its frees back *)
    let process (u : Srec.t) =
      incr strands;
      let w = role_step writer u in
      let l = role_step lreader u in
      let r = role_step rreader u in
      heap_free_all ctx.aspace u.frees;
      w + l + r
    in
    {
      Hooks.sink = coalescing_sink ctx coals;
      on_start = (fun ~wid:_ _ _ -> ());
      on_finish =
        (fun ~wid u _kind ->
          finish_strand coals tot ~wid u;
          if not (Evring.enabled ring) then ignore (process u : int)
          else begin
            let t0 = Evring.now ring in
            let dv = process u in
            let dur = if Evring.is_virtual ring then dv else Evring.now ring - t0 in
            Evring.emit_span ring ~ts:t0 ~dur ~kind:Ev.treap_op ~arg:dv
          end);
      on_done =
        (fun () ->
          let readers f = float_of_int (f h.lreader + f h.rreader) in
          diags :=
            (("strands", float_of_int !strands) :: totals_diags tot)
            @ [
                ("writer_visits", float_of_int (Itreap.visits h.writer));
                ("reader_visits", readers Itreap.visits);
                ("writer_size", float_of_int (Itreap.size h.writer));
                ("reader_size", readers Itreap.size);
                ("report_adds", float_of_int (Report.raw_count report));
              ]
            @ Policies.path_diags (fun f -> f h.writer + f h.lreader + f h.rreader)
            @ coal_diags coals);
    }
  in
  {
    Detector.name = "stint";
    driver;
    report;
    drain = (fun () -> ());
    diagnostics = (fun () -> !diags);
    validate = (fun () -> !validators ());
  }
