exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

type outcome = {
  detector : string;
  n_strands : int;
  races : Report.race list;
  diagnostics : (string * float) list;
}

type strand_observer = sp:Sp_order.t -> pos:int -> Tracefile.entry -> Srec.t -> unit

(* One open sync block.  The executors keep a per-scope frame and
   save/restore it around [Fj.scope]; scope entry/exit is not a strand
   boundary, so it is invisible in the trace.  What the trace does record is
   which sync record every spawn and sync links to ([b_uid] below, the sync's
   uid in the original run) — and since blocks close innermost-first, a stack
   keyed by those links reconstructs the scope nesting exactly. *)
type block = { b_rec : Srec.t; b_uid : int }

(* Push one strand's recorded effects through the detector: accesses go
   through the sink (so sink-level detectors and coalescers see the run),
   ledgers and executor-side fields are restored on the record directly.
   The record's interval sets are pre-filled too — detectors that coalesce
   in their own sink will overwrite them with identical arrays, detectors
   that don't (the baseline) still leave a fully-populated record. *)
let push_effects ~aspace ~(sink : Access.sink) (e : Tracefile.entry) (r : Srec.t) =
  Array.iter
    (fun (iv : Interval.t) ->
      sink.Access.on_read ~addr:iv.Interval.lo ~len:(iv.Interval.hi - iv.Interval.lo + 1))
    e.Tracefile.reads;
  Array.iter
    (fun (iv : Interval.t) ->
      sink.Access.on_write ~addr:iv.Interval.lo ~len:(iv.Interval.hi - iv.Interval.lo + 1))
    e.Tracefile.writes;
  if e.Tracefile.compute > 0 then sink.Access.on_compute ~amount:e.Tracefile.compute;
  List.iter
    (fun (b, l) ->
      (* make the recorded free replayable on this (fresh) address space *)
      Aspace.reserve aspace ~base:b ~len:l;
      sink.Access.on_free ~base:b ~len:l)
    e.Tracefile.frees;
  r.Srec.reads <- e.Tracefile.reads;
  r.Srec.writes <- e.Tracefile.writes;
  r.Srec.raw_reads <- e.Tracefile.raw_reads;
  r.Srec.raw_writes <- e.Tracefile.raw_writes;
  r.Srec.work <- e.Tracefile.work;
  r.Srec.compute <- e.Tracefile.compute;
  r.Srec.clears <- e.Tracefile.clears;
  r.Srec.finished_at <- e.Tracefile.finished_at;
  r.Srec.cost <- e.Tracefile.cost

(* ---------------------------------------------------------------- sessions *)

(* The one replay walk: a canonical depth-first walk over the recorded
   strand DAG, kept as an explicit stack of pending strands so that it can
   suspend whenever the next strand's entry has not arrived yet.  A spawn
   pushes its continuation and then its child (child on top = DFS); a sync
   pushes the block's sync strand; a return (or the root's final strand)
   ends the chain.  The walk advances exactly while the top-of-stack uid has
   arrived, so a serially-captured stream (entries in finish order = DFS
   order) replays with O(1) strands buffered, a parallel capture buffers
   only its schedule skew, and a whole file ({!run}) is offered up front
   and walked in one go.  Stolen/trivial flags from the capture schedule
   are deliberately dropped — replay is the serial elision. *)
module Session = struct
  type pend = {
    p_uid : int; (* trace uid of the entry this strand replays *)
    p_rec : Srec.t;
    p_start : Events.start_kind;
    p_blocks : block list ref; (* shared along a chain, fresh per child *)
    p_parent_sync : Srec.t option;
  }

  (* A uid's entry and its arrival order (the observed-schedule position),
     until the walk replays it.  A replayed uid stays in the table, so a
     second entry with the same uid is rejected at intake and a second link
     to it leaves the walk stuck. *)
  type arrival = Arrived of { pos : int; entry : Tracefile.entry } | Replayed

  type t = {
    s_det : Detector.t;
    s_dec : Tracefile.Decoder.t;
    s_aspace : Aspace.t;
    s_hooks : Hooks.t;
    s_sink : Access.sink;
    s_sp : Sp_order.t;
    s_cur : Srec.t ref;
    s_next_uid : int ref;
    s_root_rec : Srec.t;
    s_strands : (int, arrival) Hashtbl.t; (* every uid offered so far *)
    s_on_strand : strand_observer option;
    s_seen : (Report.kind * int * int, unit) Hashtbl.t; (* races already returned *)
    mutable s_stack : pend list; (* DFS work stack; hd is next *)
    mutable s_started : bool; (* root entry arrived *)
    mutable s_visited : int; (* strands replayed *)
    mutable s_done : bool; (* on_done fired (eof or abort) *)
  }

  let make ~size ?(wrap = fun d -> d) ?on_strand (det : Detector.t) =
    let aspace = Aspace.create () in
    let sp, root_sp = Sp_order.create () in
    let next_uid = ref 1 in
    let root_rec = Srec.make ~uid:!next_uid root_sp in
    let cur = ref root_rec in
    let ctx = { Hooks.aspace; sp; n_workers = 1; current = (fun ~wid:_ -> !cur) } in
    (* hooks are created eagerly: a caller running the detector's stages on
       pool domains hands them over right after [create], which requires
       the driver's run to be set up *)
    let hooks = (wrap det.Detector.driver) ctx in
    {
      s_det = det;
      s_dec = Tracefile.Decoder.create ();
      s_aspace = aspace;
      s_hooks = hooks;
      s_sink = hooks.Hooks.sink ~wid:0;
      s_sp = sp;
      s_cur = cur;
      s_next_uid = next_uid;
      s_root_rec = root_rec;
      s_strands = Hashtbl.create size;
      s_on_strand = on_strand;
      s_seen = Hashtbl.create 64;
      s_stack = [];
      s_started = false;
      s_visited = 0;
      s_done = false;
    }

  let create ?wrap ?on_strand det = make ~size:256 ?wrap ?on_strand det

  let fresh t s =
    incr t.s_next_uid;
    Srec.make ~uid:!(t.s_next_uid) s

  (* Replay strand [e] as [p.p_rec] and push what follows it.  Records are
     created in a fixed order (continuation, first sync, child), so replay
     uids, and with them the race sets, depend only on the DAG. *)
  let exec_strand t (p : pend) ~pos (e : Tracefile.entry) =
    let r = p.p_rec in
    t.s_cur := r;
    t.s_hooks.Hooks.on_start ~wid:0 r p.p_start;
    push_effects ~aspace:t.s_aspace ~sink:t.s_sink e r;
    (match t.s_on_strand with None -> () | Some f -> f ~sp:t.s_sp ~pos e r);
    t.s_visited <- t.s_visited + 1;
    match e.Tracefile.finish with
    | Tracefile.Spawn { cont; sync; child; first } ->
        let blocks = p.p_blocks in
        let open_sync =
          if first then None
          else
            match !blocks with
            | top :: _ ->
                if top.b_uid <> sync then
                  corrupt "strand %d: spawn links sync %d but the open block's sync is %d"
                    e.Tracefile.uid sync top.b_uid;
                Some top.b_rec
            | [] -> corrupt "strand %d: non-first spawn with no open sync block" e.Tracefile.uid
        in
        let cont_rec, sync_rec, child_rec =
          Book.spawn t.s_sp ~fresh:(fresh t) ~u:r ~sync:open_sync
        in
        if first then blocks := { b_rec = sync_rec; b_uid = sync } :: !blocks;
        t.s_hooks.Hooks.on_finish ~wid:0 r
          (Events.F_spawn
             { cont = cont_rec; sync = sync_rec; child = child_rec; first_of_block = first });
        t.s_stack <-
          {
            p_uid = child;
            p_rec = child_rec;
            p_start = Events.S_child;
            p_blocks = ref [];
            p_parent_sync = Some sync_rec;
          }
          :: {
               p_uid = cont;
               p_rec = cont_rec;
               p_start = Events.S_cont { stolen = false };
               p_blocks = blocks;
               p_parent_sync = p.p_parent_sync;
             }
          :: t.s_stack
    | Tracefile.Sync { trivial = _; sync } ->
        let top, rest =
          match !(p.p_blocks) with
          | top :: rest -> (top, rest)
          | [] -> corrupt "strand %d: sync finish with no open sync block" e.Tracefile.uid
        in
        if top.b_uid <> sync then
          corrupt "strand %d: sync finish links sync %d but the open block's sync is %d"
            e.Tracefile.uid sync top.b_uid;
        t.s_hooks.Hooks.on_finish ~wid:0 r (Events.F_sync { trivial = true; sync = top.b_rec });
        p.p_blocks := rest;
        t.s_stack <-
          {
            p_uid = sync;
            p_rec = top.b_rec;
            p_start = Events.S_after_sync { trivial = true };
            p_blocks = p.p_blocks;
            p_parent_sync = p.p_parent_sync;
          }
          :: t.s_stack
    | Tracefile.Return _ ->
        if !(p.p_blocks) <> [] then
          corrupt "strand %d: return with %d open sync block(s)" e.Tracefile.uid
            (List.length !(p.p_blocks));
        t.s_hooks.Hooks.on_finish ~wid:0 r
          (Events.F_return { cont_stolen = false; parent_sync = p.p_parent_sync })
    | Tracefile.Root ->
        if !(p.p_blocks) <> [] then
          corrupt "strand %d: root finish with %d open sync block(s)" e.Tracefile.uid
            (List.length !(p.p_blocks));
        t.s_hooks.Hooks.on_finish ~wid:0 r Events.F_root

  (* Intake of one entry, in stream order: its arrival order is its
     observed-schedule position, and the root strand starts the walk. *)
  let offer t (e : Tracefile.entry) =
    let uid = e.Tracefile.uid in
    if Hashtbl.mem t.s_strands uid then corrupt "trace holds two strands with uid %d" uid;
    (match e.Tracefile.start with
    | Events.S_root ->
        if t.s_started then corrupt "trace has more than one root strand";
        t.s_started <- true;
        t.s_stack <-
          {
            p_uid = uid;
            p_rec = t.s_root_rec;
            p_start = Events.S_root;
            p_blocks = ref [];
            p_parent_sync = None;
          }
          :: t.s_stack
    | _ -> ());
    Hashtbl.add t.s_strands uid (Arrived { pos = Hashtbl.length t.s_strands; entry = e })

  (* Replay as far as the arrived entries allow. *)
  let rec advance t =
    match t.s_stack with
    | p :: rest -> (
        match Hashtbl.find t.s_strands p.p_uid with
        | Arrived { pos; entry } ->
            Hashtbl.replace t.s_strands p.p_uid Replayed;
            t.s_stack <- rest;
            exec_strand t p ~pos entry;
            advance t
        | Replayed | (exception Not_found) -> ())
    | [] -> ()

  (* End of stream: every offered strand must have been replayed, from one
     root, with no link left dangling.  Then the detector's run ends. *)
  let close t =
    (match t.s_stack with
    | p :: _ when Hashtbl.mem t.s_strands p.p_uid ->
        corrupt "trace links to strand uid %d twice" p.p_uid
    | p :: _ -> corrupt "trace links to unknown strand uid %d" p.p_uid
    | [] -> ());
    if not t.s_started then corrupt "trace has no root strand";
    let unreached = Hashtbl.length t.s_strands - t.s_visited in
    if unreached <> 0 then
      corrupt "trace holds %d strand(s) unreachable from the root" unreached;
    t.s_done <- true;
    t.s_hooks.Hooks.on_done ()

  (* Races reported since the last call, at Theorem-5 key granularity.
     [Report.races] is safe to poll while pool domains are still adding. *)
  let new_races t =
    List.filter
      (fun (r : Report.race) ->
        let k = (r.Report.kind, r.Report.prior, r.Report.current) in
        if Hashtbl.mem t.s_seen k then false
        else begin
          Hashtbl.replace t.s_seen k ();
          true
        end)
      (Report.races t.s_det.Detector.report)

  let feed t ?pos ?len chunk =
    if t.s_done then invalid_arg "Replay.Session.feed: session already finished";
    Tracefile.Decoder.feed t.s_dec ?pos ?len chunk;
    let rec offer_decoded () =
      match Tracefile.Decoder.next t.s_dec with
      | Some e ->
          offer t e;
          offer_decoded ()
      | None -> ()
    in
    offer_decoded ();
    advance t;
    new_races t

  (* [feed] has offered and walked everything decoded, so the stream
     holds nothing more once the decoder accepts its end. *)
  let eof t =
    if t.s_done then invalid_arg "Replay.Session.eof: session already finished";
    Tracefile.Decoder.finish t.s_dec;
    close t;
    new_races t

  (* Terminate a failed session's run so pipeline stages still reach
     [`Done] and pool domains are not wedged on a dead walk. *)
  let abort t =
    if not t.s_done then begin
      t.s_done <- true;
      t.s_hooks.Hooks.on_done ()
    end

  let poll_races t = new_races t
  let finished t = t.s_done
  let fed_strands t = t.s_visited

  let outcome t =
    if not t.s_done then invalid_arg "Replay.Session.outcome: session still streaming";
    {
      detector = t.s_det.Detector.name;
      n_strands = t.s_visited;
      races = Report.races t.s_det.Detector.report;
      diagnostics = t.s_det.Detector.diagnostics ();
    }
end

(* Offline replay is a session offered the whole file, walked in one go,
   and then the detector's pipeline drained on the calling thread. *)
let run ?wrap ?on_strand (tf : Tracefile.t) (d : Detector.t) =
  let s = Session.make ~size:(Tracefile.entry_count tf) ?wrap ?on_strand d in
  Array.iter (Session.offer s) tf.Tracefile.entries;
  Session.advance s;
  Session.close s;
  d.Detector.drain ();
  Session.outcome s

(* ------------------------------------------------------------ differential *)

type divergence = { left_only : Report.race list; right_only : Report.race list }

let no_divergence d = d.left_only = [] && d.right_only = []

let key (r : Report.race) = (r.Report.kind, r.Report.prior, r.Report.current)

let diff_races a b =
  let tbl_of l =
    let t = Hashtbl.create 64 in
    List.iter (fun r -> Hashtbl.replace t (key r) ()) l;
    t
  in
  let ta = tbl_of a and tb = tbl_of b in
  {
    left_only = List.filter (fun r -> not (Hashtbl.mem tb (key r))) a;
    right_only = List.filter (fun r -> not (Hashtbl.mem ta (key r))) b;
  }

let differential tf da db =
  let oa = run tf da in
  let ob = run tf db in
  diff_races oa.races ob.races

let pp_divergence fmt d =
  if no_divergence d then Format.fprintf fmt "race sets agree"
  else begin
    List.iter (fun r -> Format.fprintf fmt "< %a@." Report.pp_race r) d.left_only;
    List.iter (fun r -> Format.fprintf fmt "> %a@." Report.pp_race r) d.right_only
  end
