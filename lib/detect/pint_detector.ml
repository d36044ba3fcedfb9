(* The N-shard access-history topology (ROADMAP item 1, generalizing the
   paper's fixed {writer, lreader, rreader} triple and the §VI sharding
   sketch): address-range shard k owns the [Lanes.shard_block]-word blocks
   congruent to k and runs its own {writer, lreader, rreader} treap triple
   off its own AHQ lane.  Race checks are per-address, so routing every
   block-aligned subrange to exactly one shard preserves the race set while
   every treap stays sequential — no concurrent treap is ever needed.
   [shards = 1] is the paper's configuration: one lane, three treap
   workers, nothing ever split.

   Stage/worker layout for N shards (stage index = position below):
     [0]            the collector: scans traces in DAG order (Algorithm 2),
                    splits each strand's interval batch per shard, commits
                    the pieces to all N lanes atomically, and doubles as
                    shard 0's writer treap worker (processing its piece
                    synchronously, exactly the paper's writer at N = 1);
     [1 .. N-1]     shard k's writer treap worker, consuming lane k;
     [N .. 2N-1]    shard k's left-most reader treap worker;
     [2N .. 3N-1]   shard k's right-most reader treap worker.
   Every lane carries the full DAG-ordered strand stream (restricted to the
   shard's address range), so per-shard clear/free ordering is preserved
   verbatim.

   [serial] is STINT as a configuration of the same core: one shard's
   treaps, whose three role steps ([role_step], the function every stage
   calls) run on the calling thread at each strand's finish — no trace, no
   lane, no stage. *)

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

(* What a lane carries: the strand record plus this shard's block-aligned
   subranges of its read/write batches, computed once at collect time.  The
   record itself is shared across lanes (its done_count/pred atomics must
   be the strand's, not a copy's); at one shard the interval arrays are the
   record's own — the split only materializes when there is something to
   split. *)
type lane_rec = {
  u : Srec.t;
  s_reads : Interval.t array;
  s_writes : Interval.t array;
}

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
   per-record path reads, the strand it is applying and the interval it is
   checking (set before each treap call), and the query callback and keep
   policy, each built once over the context — so no record, interval or
   read builds a closure. *)
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
  lanes : lane_rec Lanes.t; (* one AHQ lane per shard *)
  consume_bufs : lane_rec array array; (* per consuming stage, reusable; slot 0 unused *)
  hist : hist array; (* one per shard *)
  roles : tctx array; (* stage i's treap context *)
  core_done : bool Atomic.t;
  collect_done : bool Atomic.t;
  mutable scan_cursor : int;
  mutable n_collected : int;
  (* Collector-side split accounting: source intervals seen vs per-shard
     subranges committed; the ratio is the split rate (1.0 = no interval
     ever straddled an ownership boundary). *)
  mutable split_intervals : int;
  mutable split_subranges : int;
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
  (* Lane backpressure window (Backoff rounds the collector rides out a
     saturated lane before rejecting a commit).  0 — the default — is
     mandatory under single-threaded drivers; real-domain runs opt in via
     [set_backpressure] before the run starts.  Applied to the lanes at
     wiring time (driver). *)
  mutable bp_rounds : int;
}

let dummy_trace = Trace.create ~id:(-1) ~owner:(-1)

(* Placeholder filling the reusable batch buffers before their first use;
   never processed (peek_batch_into reports how many slots are live). *)
let dummy_lane_rec =
  lazy
    (let _, root = Sp_order.create () in
     { u = Srec.make ~uid:(-1) root; s_reads = [||]; s_writes = [||] })

(* Per-lane AHQ capacity, in strand records. *)
let queue_capacity = 4096

(* The race check a role runs per stored interval its query meets: the
   stored owner races the strand being applied iff they are logically
   parallel; the witness is the overlap, built only for a race. *)
let[@pint.hot] on_overlap (c : tctx) lo hi prior =
  if Policies.race c.sp ~prior ~current:c.cur then
    Report.add c.report c.kind ~prior:(Sp_order.id prior) ~current:(Sp_order.id c.cur)
      (Interval.make (Int.max lo c.qlo) (Int.min hi c.qhi))

(* The reader treaps' keep policies (the writer never merges). *)
let[@pint.hot] keep (c : tctx) ~incumbent =
  match c.role with
  | Rreader -> Policies.keep_rightmost c.sp ~s:c.cur ~incumbent
  | Writer | Lreader -> Policies.keep_leftmost c.sp ~s:c.cur ~incumbent

let make_tctx report sp h role ~shards ~shard =
  let nobody = (Lazy.force dummy_lane_rec).u.Srec.sp in
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
   a genuinely wedged lane still surfaces as a reject/stall. *)
let recommended_bp_rounds = 64

let set_backpressure t ~rounds =
  if rounds < 0 then invalid_arg "Pint_detector.set_backpressure: rounds must be >= 0";
  t.bp_rounds <- rounds;
  match t.run with Some r -> Lanes.set_backpressure r.lanes ~rounds | None -> ()
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
  let lanes =
    (* lane 0 has no writer cursor (the collector processes shard 0's piece
       synchronously at collect time, exactly the paper's writer worker) *)
    Lanes.create ~capacity:queue_capacity ~shards:s
      ~readers_of_lane:(fun k -> if k = 0 then 2 else 3)
      ()
  in
  Lanes.set_backpressure lanes ~rounds:t.bp_rounds;
  let hist = Array.init s (make_hist ~seed:t.seed) in
  (* Lane obs wiring.  One shard: the lane's producer ring IS the writer
     stage's track (the historical single-queue occupancy counter).  When
     sharded, each lane gets its own "lane<k>" track so per-shard occupancy
     renders as separate Chrome counter tracks; all of them are emitted
     from the collector stage, which is the single producer on every
     lane. *)
  for k = 0 to s - 1 do
    let writer_ring =
      if s = 1 then obs_stage.(0) else Obs.track t.obs (Printf.sprintf "lane%d" k)
    in
    let readers =
      if k = 0 then [| obs_stage.(s); obs_stage.(2 * s) |]
      else [| obs_stage.(k); obs_stage.(s + k); obs_stage.(2 * s + k) |]
    in
    Ahq.set_obs (Lanes.lane lanes k) ~writer:writer_ring ~readers
  done;
  let r =
    {
      ctx;
      coals = Array.init ctx.n_workers (fun _ -> Coalescer.create ());
      cur_traces = Array.make ctx.n_workers dummy_trace;
      scan = Vec.create ~capacity:64 dummy_trace;
      reg_lock = Mutex.create ();
      incoming = [];
      n_incoming = Atomic.make 0;
      lanes;
      consume_bufs =
        Array.init n_stages (fun _ -> Array.make Ahq.default_batch (Lazy.force dummy_lane_rec));
      hist;
      roles =
        Array.init n_stages (fun i ->
            make_tctx t.report ctx.sp hist.(i mod s) (role_of_idx t i) ~shards:s ~shard:(i mod s));
      core_done = Atomic.make false;
      collect_done = Atomic.make false;
      scan_cursor = 0;
      n_collected = 0;
      split_intervals = 0;
      split_subranges = 0;
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
      Lanes.iter_subranges ~shards:c.shards ~shard:c.shard base (base + len - 1) c.treap
        Itreap.clear_range;
      clear_all c rest

let rec heap_free_all aspace = function
  | [] -> ()
  | (base, len) :: rest ->
      Aspace.heap_free aspace ~base ~len;
      heap_free_all aspace rest

let count_sub n _ _ = incr n

let fill_sub (out, i) lo hi =
  out.(!i) <- Interval.make lo hi;
  incr i

(* The per-shard split of one interval batch: two passes (count, fill) so
   the result is an exact-sized array.  Only reached when shards > 1. *)
let split_owned ~shards ~shard (ivs : Interval.t array) =
  let each ctx f =
    Array.iter (fun (iv : Interval.t) -> Lanes.iter_subranges ~shards ~shard iv.lo iv.hi ctx f) ivs
  in
  let n = ref 0 in
  each n count_sub;
  if !n = 0 then [||]
  else begin
    let fill = (Array.make !n (Interval.make 0 0), ref 0) in
    each fill fill_sub;
    fst fill
  end

let lane_payload ~shards (u : Srec.t) k =
  if shards = 1 then { u; s_reads = u.Srec.reads; s_writes = u.Srec.writes }
  else
    {
      u;
      s_reads = split_owned ~shards ~shard:k u.Srec.reads;
      s_writes = split_owned ~shards ~shard:k u.Srec.writes;
    }

(* Check interval [iv] against the context's treap as [kind]. *)
let[@pint.hot] check (c : tctx) kind (iv : Interval.t) =
  c.kind <- kind;
  c.qlo <- iv.lo;
  c.qhi <- iv.hi;
  Itreap.query c.treap iv ~f:c.on_overlap

(* One role's treap work on one strand's share [lr] of the context's shard;
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
let[@pint.hot] role_step (c : tctx) (lr : lane_rec) =
  let treap = c.treap in
  let v0 = Itreap.visits treap in
  let s = lr.u.Srec.sp and reads = lr.s_reads and writes = lr.s_writes in
  c.cur <- s;
  (match c.role with
  | Writer ->
      for i = 0 to Array.length reads - 1 do
        check c Report.Write_read reads.(i)
      done;
      for i = 0 to Array.length writes - 1 do
        check c Report.Write_write writes.(i);
        Itreap.insert_replace treap writes.(i) s
      done
  | Lreader | Rreader ->
      for i = 0 to Array.length writes - 1 do
        check c Report.Read_write writes.(i)
      done;
      for i = 0 to Array.length reads - 1 do
        Itreap.insert_merge treap reads.(i) s ~keep:c.keep
      done);
  clear_all c lr.u.Srec.clears;
  clear_all c lr.u.Srec.frees;
  Itreap.visits treap - v0

(* Last done_count bump (the 3N'th): the strand has passed all treap
   workers.  [slot] indexes the bumping stage's private histogram; the
   ring is the bumping stage's own track, so the emit stays single-owner. *)
let note_complete r ~slot ~ring (u : Srec.t) =
  if Evring.enabled ring then begin
    let ts = Evring.now ring in
    Evring.emit_at ring ~ts ~kind:Ev.complete ~arg:u.Srec.uid;
    Histo.add r.lat_done.(slot) (ts - u.Srec.obs_ts)
  end

let bump_done r ~slot ~ring (u : Srec.t) =
  let prev = Atomic.fetch_and_add u.Srec.done_count 1 in
  if prev = r.done_target - 1 then note_complete r ~slot ~ring u

(* Algorithm 2: Collect, generalized to N lanes.  The commit is
   all-or-nothing — either every shard's lane accepts the strand or none
   does (and the collector stalls) — so a strand is never half-visible to
   the shard set and per-lane DAG order is preserved. *)
let collect t r (u : Srec.t) =
  let shards = t.shards in
  Lanes.reserve r.lanes
  && begin
       let p0 = lane_payload ~shards u 0 in
       Lanes.push r.lanes 0 p0;
       let subs = ref (Array.length p0.s_reads + Array.length p0.s_writes) in
       for k = 1 to shards - 1 do
         let p = lane_payload ~shards u k in
         subs := !subs + Array.length p.s_reads + Array.length p.s_writes;
         Lanes.push r.lanes k p
       done;
       (match u.Srec.child with
       | Some c when u.Srec.is_spawn || u.Srec.child_is_sync -> Atomic.decr c.Srec.pred
       | _ -> ());
       r.n_collected <- r.n_collected + 1;
       r.split_intervals <-
         r.split_intervals + Array.length u.Srec.reads + Array.length u.Srec.writes;
       r.split_subranges <- r.split_subranges + !subs;
       let ring = r.obs_stage.(0) in
       (if Evring.enabled ring then begin
          let ts = Evring.now ring in
          Evring.emit_at ring ~ts ~kind:Ev.collect ~arg:u.Srec.uid;
          if shards > 1 then Evring.emit_at ring ~ts ~kind:Ev.split ~arg:!subs;
          Histo.add r.lat_collect (ts - u.Srec.obs_ts)
        end);
       (* under Par_exec downstream stages can outrun the collector's own
          bump, so the collector may observe the completing increment *)
       bump_done r ~slot:0 ~ring u;
       ignore (role_step r.roles.(0) p0 : int);
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
          else Full (* some lane full: stall until its consumers catch up *)
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
   shards]'s treap worker for [role_of_idx t i], consuming its lane in
   batches — one cursor update and one slot-recycling scan per batch,
   through the stage's reusable buffer, so the batch itself allocates
   nothing.  Lane 0 has no writer cursor (the collector does shard 0's
   writer work at collect time), so {lreader, rreader} read cursors
   {0, 1} there and {1, 2} behind the writer's cursor 0 elsewhere. *)
let consume_step t i : Step.t =
  let r = active t in
  let role = role_of_idx t i and shard = i mod t.shards in
  let cursor =
    (match role with Writer -> 0 | Lreader -> 1 | Rreader -> 2) - if shard = 0 then 1 else 0
  in
  let lane = Lanes.lane r.lanes shard in
  let buf = r.consume_bufs.(i) in
  let n = Ahq.peek_batch_into lane cursor buf in
  if n = 0 then if Atomic.get r.collect_done then Step.finished else Step.idle
  else begin
    let c = r.roles.(i) in
    let visits = ref 0 in
    for j = 0 to n - 1 do
      let lr = buf.(j) in
      visits := !visits + role_step c lr;
      bump_done r ~slot:i ~ring:r.obs_stage.(i) lr.u
    done;
    Ahq.advance_n lane cursor n;
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
      Policies.path_diags sum_treaps
      @ ("queue_min_rescans", float_of_int (Lanes.total_min_rescans r.lanes))
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
        ("queue_enqueued", float_of_int (Lanes.total_enqueued r.lanes));
        ("lane_rejects", float_of_int (Lanes.total_rejects r.lanes));
        ("lane_peak_depth", float_of_int (Lanes.max_peak_occupancy r.lanes));
        ("backpressure_waits", float_of_int (Lanes.backpressure_waits r.lanes));
        ("split_intervals", float_of_int r.split_intervals);
        ("split_subranges", float_of_int r.split_subranges);
        ( "split_rate",
          float_of_int r.split_subranges /. float_of_int (max 1 r.split_intervals) );
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
      let lr = lane_payload ~shards:1 u 0 in
      let w = role_step writer lr in
      let l = role_step lreader lr in
      let r = role_step rreader lr in
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
