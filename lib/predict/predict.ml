(* Predictive race detection over captured traces — see predict.mli for the
   semantics.  Everything here is deterministic: same dag + window + observed
   set => same findings and same diagnostic counters. *)

type node = {
  pos : int;
  uid : int;
  id : int;
  sp : Sp_order.strand;
  reads : Interval.t array;
  writes : Interval.t array;
  wipes : Interval.t list;
  preds : int list;
  succs : int list;
}

type dag = { sp : Sp_order.t; nodes : node array }

(* ------------------------------------------------------------- building *)

let wipes_of (e : Tracefile.entry) =
  let iv (b, l) = if l <= 0 then None else Some (Interval.make b (b + l - 1)) in
  let all = List.filter_map iv e.Tracefile.clears @ List.filter_map iv e.Tracefile.frees in
  List.sort Interval.compare all

(* DAG successor uids of an entry, from its finish link. *)
let succ_uids (e : Tracefile.entry) =
  match e.Tracefile.finish with
  | Tracefile.Spawn { cont; child; _ } -> [ child; cont ]
  | Tracefile.Sync { sync; _ } -> [ sync ]
  | Tracefile.Return { parent_sync = Some s; _ } -> [ s ]
  | Tracefile.Return { parent_sync = None; _ } | Tracefile.Root -> []

module Builder = struct
  type t = {
    mutable acc : (int * Tracefile.entry * Sp_order.strand) list;
    mutable n : int;
    mutable sp : Sp_order.t option;
  }

  let create () = { acc = []; n = 0; sp = None }

  let observer t : Replay.strand_observer =
   fun ~sp ~pos e r ->
    t.sp <- Some sp;
    t.n <- t.n + 1;
    t.acc <- (pos, e, r.Srec.sp) :: t.acc

  let count t = t.n

  let dag t =
    let sp =
      match t.sp with
      | Some sp -> sp
      | None -> failwith "Predict.Builder.dag: no strands observed"
    in
    let n = t.n in
    let slots = Array.make n None in
    List.iter
      (fun (pos, e, s) ->
        if pos < 0 || pos >= n then failwith "Predict.Builder.dag: position out of range";
        if Option.is_some slots.(pos) then failwith "Predict.Builder.dag: duplicate position";
        slots.(pos) <- Some (e, s))
      t.acc;
    let pos_of = Hashtbl.create (2 * n) in
    Array.iteri
      (fun pos slot ->
        match slot with
        | None -> failwith "Predict.Builder.dag: missing position"
        | Some ((e : Tracefile.entry), _) -> Hashtbl.replace pos_of e.Tracefile.uid pos)
      slots;
    let succs =
      Array.mapi
        (fun pos slot ->
          let e, _ = Option.get slot in
          List.map
            (fun uid ->
              match Hashtbl.find_opt pos_of uid with
              | Some p when p > pos -> p
              | Some _ -> failwith "Predict.Builder.dag: DAG link points backwards"
              | None -> failwith "Predict.Builder.dag: dangling DAG link")
            (succ_uids e))
        slots
    in
    let preds = Array.make n [] in
    Array.iteri (fun pos -> List.iter (fun s -> preds.(s) <- pos :: preds.(s))) succs;
    let nodes =
      Array.mapi
        (fun pos slot ->
          let (e : Tracefile.entry), s = Option.get slot in
          {
            pos;
            uid = e.Tracefile.uid;
            id = Sp_order.id s;
            sp = s;
            reads = e.Tracefile.reads;
            writes = e.Tracefile.writes;
            wipes = wipes_of e;
            preds = List.rev preds.(pos);
            succs = succs.(pos);
          })
        slots
    in
    { sp; nodes }
end

let dag_of_trace tf =
  let b = Builder.create () in
  let (_ : Replay.outcome) = Replay.run ~on_strand:(Builder.observer b) tf (Nodetect.make ()) in
  Builder.dag b

(* ------------------------------------------------------------- findings *)

type finding = { kind : Report.kind; prior : int; current : int; where : Interval.t }

type result = { window : int; predicted : finding list; diagnostics : (string * float) list }

let kind_tag = function Report.Write_write -> 0 | Report.Write_read -> 1 | Report.Read_write -> 2

let finding_key f = (f.kind, f.prior, f.current)

let compare_findings a b =
  match compare a.prior b.prior with
  | 0 -> (
      match compare a.current b.current with
      | 0 -> (
          match compare (kind_tag a.kind) (kind_tag b.kind) with
          | 0 -> Interval.compare a.where b.where
          | c -> c)
      | c -> c)
  | c -> c

let equal_findings a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y -> compare_findings x y = 0 && Interval.equal x.where y.where)
       a b

let pp_finding fmt f =
  Format.fprintf fmt "predicted %s race between strands %d and %d at %a"
    (Report.kind_to_string f.kind) f.prior f.current Interval.pp f.where

(* The observed set at Theorem-5 granularity, both orientations: an observed
   (kind, prior, current) names the same pair as the flipped kind with the
   strands swapped (collect order and position order can disagree under a
   parallel capture). *)
let flip_kind = function
  | Report.Write_write -> Report.Write_write
  | Report.Write_read -> Report.Read_write
  | Report.Read_write -> Report.Write_read

let observed_table (observed : Report.race list) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (r : Report.race) ->
      Hashtbl.replace tbl (kind_tag r.Report.kind, r.Report.prior, r.Report.current) ();
      Hashtbl.replace tbl (kind_tag (flip_kind r.Report.kind), r.Report.current, r.Report.prior) ())
    observed;
  tbl

(* --------------------------------------------------- interval machinery *)

(* Merge-walk over two sorted, disjoint interval arrays: every pairwise
   intersection in increasing address order. *)
let iter_overlaps (a : Interval.t array) (b : Interval.t array) ~f =
  let i = ref 0 and j = ref 0 in
  while !i < Array.length a && !j < Array.length b do
    let x = a.(!i) and y = b.(!j) in
    let lo = max x.Interval.lo y.Interval.lo and hi = min x.Interval.hi y.Interval.hi in
    if lo <= hi then f (Interval.make lo hi);
    if x.Interval.hi < y.Interval.hi then incr i else incr j
  done

let has_overlap (a : Interval.t array) (b : Interval.t array) =
  let i = ref 0 and j = ref 0 and found = ref false in
  while (not !found) && !i < Array.length a && !j < Array.length b do
    let x = a.(!i) and y = b.(!j) in
    if Interval.overlaps x y then found := true
    else if x.Interval.hi < y.Interval.hi then incr i
    else incr j
  done;
  !found

let subtract_one (s : Interval.t) (k : Interval.t) =
  if k.Interval.hi < s.Interval.lo || k.Interval.lo > s.Interval.hi then [ s ]
  else
    let left =
      if k.Interval.lo > s.Interval.lo then [ Interval.make s.Interval.lo (k.Interval.lo - 1) ]
      else []
    in
    let right =
      if k.Interval.hi < s.Interval.hi then [ Interval.make (k.Interval.hi + 1) s.Interval.hi ]
      else []
    in
    left @ right

let subtract_all segs kills =
  List.fold_left (fun segs k -> List.concat_map (fun s -> subtract_one s k) segs) segs kills

(* Reuse suppression (see mli): wipes of [u] itself plus wipes of strictly
   intervening strands serial before [v]. *)
let suppressors (dag : dag) up vp =
  let u = dag.nodes.(up) and v = dag.nodes.(vp) in
  let mid = ref [] in
  for fp = up + 1 to vp - 1 do
    let f = dag.nodes.(fp) in
    match f.wipes with
    | [] -> ()
    | wipes -> if Sp_order.series dag.sp f.sp v.sp then mid := wipes :: !mid
  done;
  List.concat (u.wipes :: !mid)

(* First (lowest-address) conflict residue for one kind, or the fact that
   the whole conflicting region was wiped. *)
let kind_residue ~kills aa bb =
  let segs = ref [] in
  iter_overlaps aa bb ~f:(fun s -> segs := s :: !segs);
  match List.rev !segs with
  | [] -> None
  | segs -> (
      match subtract_all segs kills with
      | [] -> Some None
      | w :: _ -> Some (Some w))

(* ------------------------------------------------- candidate generation *)

type stats = {
  mutable candidates : int;
  mutable pair_scans : int;
  mutable windows : int;
  mutable infeasible : int;
  mutable suppressed_reuse : int;
  mutable suppressed_observed : int;
}

let fresh_stats () =
  {
    candidates = 0;
    pair_scans = 0;
    windows = 0;
    infeasible = 0;
    suppressed_reuse = 0;
    suppressed_observed = 0;
  }

(* Candidate pairs (upos, vpos), upos < vpos, vpos - upos <= 2w+1, whose
   interval sets conflict and whose strands are logically parallel — the
   exact necessary condition for w-predictability short of feasibility —
   in (vpos, upos) order. *)
let scan_candidates (dag : dag) ~window st =
  let span = (2 * window) + 1 in
  let cands = ref [] in
  Array.iteri
    (fun vpos v ->
      for upos = max 0 (vpos - span) to vpos - 1 do
        st.pair_scans <- st.pair_scans + 1;
        let u = dag.nodes.(upos) in
        if
          (has_overlap u.writes v.writes || has_overlap u.writes v.reads
         || has_overlap u.reads v.writes)
          && Sp_order.parallel dag.sp u.sp v.sp
        then cands := (upos, vpos) :: !cands
      done)
    dag.nodes;
  List.rev !cands

let candidates ~window dag = scan_candidates dag ~window (fresh_stats ())

(* --------------------------------------- adjacency feasibility (exact) *)

(* Displacement windows folded through the DAG give per-position release
   slots and deadlines; pinning a pair to two adjacent slots and scheduling
   the rest by earliest deadline first decides feasibility exactly (EDF is
   exact for unit jobs with release times and deadlines, and
   precedence-safe here because folded windows strictly increase along
   every edge, so a successor can never underbid its predecessor).

   Each pin stays local.  The fold is a worklist over the nodes whose
   window actually tightens ("touched").  EDF over the base windows runs
   once, recording its pending set at every slot boundary s; in a feasible
   run that set lies within positions [s-w, s+w), one 2w-bit row.  A
   pinned run agrees with the base run up to s0, the least base release
   of a touched node, so it restarts from the row at s0.  Once past every
   touched node's base deadline, both runs have released the same jobs and
   no job still to run is touched; a pending set equal to the base row
   then means the remainder replays the (feasible) base run exactly, so
   the pin is feasible — the verdict full EDF would give. *)
module Sched = struct
  type t = {
    n : int;
    w : int;
    base_r : int array;  (* folded releases; i - w <= base_r.(i) <= i *)
    base_d : int array;  (* folded deadlines; i <= base_d.(i) <= i + w *)
    preds : int list array;
    succs : int list array;
    pending : Bytes.t;  (* base EDF checkpoints: row s, bit k = position s-w+k *)
    row : int;  (* bytes per row *)
    r : int array;  (* per-pin windows: base except at touched nodes *)
    d : int array;
    touched : bool array;
    mutable touched_list : int list;
    heap : int array;  (* EDF keys d*n + i; at most w+1 jobs are ever released and unscheduled *)
    mutable heap_n : int;
    mutable edf_slots : int;
  }

  let heap_push t key =
    let h = t.heap in
    let i = ref t.heap_n in
    t.heap_n <- t.heap_n + 1;
    h.(!i) <- key;
    while !i > 0 && h.((!i - 1) / 2) > h.(!i) do
      let p = (!i - 1) / 2 in
      let tmp = h.(p) in
      h.(p) <- h.(!i);
      h.(!i) <- tmp;
      i := p
    done

  let heap_pop t =
    let h = t.heap in
    let top = h.(0) in
    t.heap_n <- t.heap_n - 1;
    h.(0) <- h.(t.heap_n);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < t.heap_n && h.(l) < h.(!m) then m := l;
      if r < t.heap_n && h.(r) < h.(!m) then m := r;
      if !m = !i then continue := false
      else begin
        let tmp = h.(!m) in
        h.(!m) <- h.(!i);
        h.(!i) <- tmp;
        i := !m
      end
    done;
    top

  let push_job t i = heap_push t ((t.d.(i) * t.n) + i)

  (* One EDF slot: release the jobs whose release is [s] (windows keep them
     within [s-w, s+w]) and run the most urgent; false on a missed slot or
     deadline. *)
  let step t s =
    for i = max 0 (s - t.w) to min (t.n - 1) (s + t.w) do
      if t.r.(i) = s then push_job t i
    done;
    t.heap_n > 0 && heap_pop t / t.n >= s

  let bit t s k = Char.code (Bytes.get t.pending ((s * t.row) + (k lsr 3))) land (1 lsl (k land 7)) <> 0

  (* Is the pending set at boundary [s] exactly the base checkpoint?  Only
     asked where both runs released the same jobs, so equal sizes follow. *)
  let matches t s =
    let ok = ref true and j = ref 0 in
    while !ok && !j < t.heap_n do
      let k = (t.heap.(!j) mod t.n) - s + t.w in
      ok := k >= 0 && k < 2 * t.w && bit t s k;
      incr j
    done;
    !ok

  let make ~window (dag : dag) =
    let n = Array.length dag.nodes in
    let base_r = Array.init n (fun i -> max 0 (i - window)) in
    let base_d = Array.init n (fun i -> min (n - 1) (i + window)) in
    let preds = Array.map (fun (nd : node) -> nd.preds) dag.nodes in
    let succs = Array.map (fun (nd : node) -> nd.succs) dag.nodes in
    for i = 0 to n - 1 do
      List.iter (fun j -> if base_r.(j) + 1 > base_r.(i) then base_r.(i) <- base_r.(j) + 1) preds.(i)
    done;
    for i = n - 1 downto 0 do
      List.iter (fun j -> if base_d.(j) - 1 < base_d.(i) then base_d.(i) <- base_d.(j) - 1) succs.(i)
    done;
    let row = ((2 * window) + 7) / 8 in
    let t =
      {
        n;
        w = window;
        base_r;
        base_d;
        preds;
        succs;
        pending = Bytes.make ((n + 1) * row) '\000';
        row;
        r = Array.copy base_r;
        d = Array.copy base_d;
        touched = Array.make n false;
        touched_list = [];
        heap = Array.make (min n (window + 1)) 0;
        heap_n = 0;
        edf_slots = 0;
      }
    in
    (* the identity order is permissible, so the base run never fails *)
    for s = 0 to n - 1 do
      for j = 0 to t.heap_n - 1 do
        let k = (t.heap.(j) mod n) - s + window in
        let at = (s * row) + (k lsr 3) in
        Bytes.set t.pending at (Char.chr (Char.code (Bytes.get t.pending at) lor (1 lsl (k land 7))))
      done;
      if not (step t s) then failwith "Predict.Sched.make: base windows infeasible"
    done;
    t

  let edf_slots t = t.edf_slots

  (* Restart EDF at the checkpoint before the first touched release and run
     until it fails or rejoins the base run. *)
  let replay t =
    let s0 = List.fold_left (fun m i -> min m t.base_r.(i)) max_int t.touched_list in
    let last = List.fold_left (fun m i -> max m t.base_d.(i)) 0 t.touched_list in
    t.heap_n <- 0;
    for k = 0 to (2 * t.w) - 1 do
      if bit t s0 k then push_job t (s0 - t.w + k)
    done;
    let rec go s =
      (s > last && matches t s)
      || begin
           t.edf_slots <- t.edf_slots + 1;
           step t s && go (s + 1)
         end
    in
    go s0

  let pin t ~a ~b ~p =
    let ok = ref true and fwd = ref [] and bwd = ref [] in
    let touch i =
      if not t.touched.(i) then begin
        t.touched.(i) <- true;
        t.touched_list <- i :: t.touched_list
      end
    in
    let raise_r i v =
      if v > t.r.(i) then begin
        touch i;
        t.r.(i) <- v;
        if v > t.d.(i) then ok := false;
        fwd := i :: !fwd
      end
    in
    let lower_d i v =
      if v < t.d.(i) then begin
        touch i;
        t.d.(i) <- v;
        if t.r.(i) > v then ok := false;
        bwd := i :: !bwd
      end
    in
    let rec drain q f =
      if !ok then
        match !q with
        | [] -> ()
        | i :: rest ->
            q := rest;
            f i;
            drain q f
    in
    raise_r a p;
    lower_d a p;
    raise_r b (p + 1);
    lower_d b (p + 1);
    drain fwd (fun i -> List.iter (fun j -> raise_r j (t.r.(i) + 1)) t.succs.(i));
    drain bwd (fun i -> List.iter (fun j -> lower_d j (t.d.(i) - 1)) t.preds.(i));
    let feasible = !ok && (t.touched_list = [] || replay t) in
    List.iter
      (fun i ->
        t.touched.(i) <- false;
        t.r.(i) <- t.base_r.(i);
        t.d.(i) <- t.base_d.(i))
      t.touched_list;
    t.touched_list <- [];
    feasible
end

(* Can some permissible reordering run [a] and [b] back to back (either
   order)?  Pin slots are exhaustive over the folded windows, so this is
   exact, with early exit on the first feasible pin. *)
let feasible_adjacent (t : Sched.t) st ~a ~b =
  let try_order a b =
    let lo = max t.base_r.(a) (t.base_r.(b) - 1) in
    let hi = min t.base_d.(a) (t.base_d.(b) - 1) in
    let rec go p =
      p <= hi
      && begin
           st.windows <- st.windows + 1;
           Sched.pin t ~a ~b ~p || go (p + 1)
         end
    in
    go lo
  in
  try_order a b || try_order b a

(* ------------------------------------------------------------ predictor *)

let predict ~window ~observed (dag : dag) =
  if window < 0 then invalid_arg "Predict.predict: negative window";
  let st = fresh_stats () in
  let cands = scan_candidates dag ~window st in
  st.candidates <- List.length cands;
  let sched = Sched.make ~window dag in
  let obs = observed_table observed in
  let findings = ref [] in
  List.iter
    (fun (up, vp) ->
      let u = dag.nodes.(up) and v = dag.nodes.(vp) in
      let kills = suppressors dag up vp in
      let residues =
        List.filter_map
          (fun (k, aa, bb) ->
            match kind_residue ~kills aa bb with
            | None -> None
            | Some None ->
                st.suppressed_reuse <- st.suppressed_reuse + 1;
                None
            | Some (Some w) -> Some (k, w))
          [
            (Report.Write_write, u.writes, v.writes);
            (Report.Write_read, u.writes, v.reads);
            (Report.Read_write, u.reads, v.writes);
          ]
      in
      match residues with
      | [] -> ()
      | residues ->
        if feasible_adjacent sched st ~a:up ~b:vp then
          List.iter
            (fun (k, w) ->
              if Hashtbl.mem obs (kind_tag k, u.id, v.id) then
                st.suppressed_observed <- st.suppressed_observed + 1
              else findings := { kind = k; prior = u.id; current = v.id; where = w } :: !findings)
            residues
        else st.infeasible <- st.infeasible + 1)
    cands;
  let predicted = List.sort compare_findings !findings in
  {
    window;
    predicted;
    diagnostics =
      [
        ("predict_candidates", float_of_int st.candidates);
        ("predict_windows", float_of_int st.windows);
        ("predict_edf_slots", float_of_int (Sched.edf_slots sched));
        ("predict_pair_scans", float_of_int st.pair_scans);
        ("predict_infeasible", float_of_int st.infeasible);
        ("predict_suppressed_reuse", float_of_int st.suppressed_reuse);
        ("predict_suppressed_observed", float_of_int st.suppressed_observed);
        ("predicted", float_of_int (List.length predicted));
      ];
  }

(* --------------------------------------------------------------- oracle *)

(* Independent implementation for certification: reachability is a
   transitive closure over the raw DAG links (not Sp_order), conflicts are
   nested-loop intersections (not merge walks), reuse subtraction is
   re-derived, and adjacency feasibility enumerates *all* permissible
   reorderings via a subset DP over the at-most-(2w+1) positions in flight
   around each slot. *)

let oracle ~window ~observed (dag : dag) =
  if window < 0 then invalid_arg "Predict.oracle: negative window";
  if window > 10 then invalid_arg "Predict.oracle: window too large (max 10)";
  let n = Array.length dag.nodes in
  if n = 0 then []
  else begin
    let reach = Array.make_matrix n n false in
    for i = n - 1 downto 0 do
      reach.(i).(i) <- true;
      List.iter
        (fun j ->
          for k = 0 to n - 1 do
            if reach.(j).(k) then reach.(i).(k) <- true
          done)
        dag.nodes.(i).succs
    done;
    (* State (i, mask): slots 0..i-1 are filled; bit j of mask says position
       (i - window) + j is already placed; every position below i - window
       is placed, every position above i + window is not. *)
    let can_place i mask p =
      let base = i - window in
      p >= max 0 base
      && p <= min (n - 1) (i + window)
      && mask land (1 lsl (p - base)) = 0
      && List.for_all
           (fun q -> q < base || mask land (1 lsl (q - base)) <> 0)
           dag.nodes.(p).preds
    in
    (* Place p at slot i and shift the window; None if position (i - window)
       would miss its deadline. *)
    let advance i mask p =
      let base = i - window in
      let m = mask lor (1 lsl (p - base)) in
      if base >= 0 && m land 1 = 0 then None else Some (m lsr 1)
    in
    let memo = Hashtbl.create 4096 in
    let rec completable i mask =
      i = n
      ||
      match Hashtbl.find_opt memo (i, mask) with
      | Some b -> b
      | None ->
          let rec go p =
            p <= min (n - 1) (i + window)
            && ((can_place i mask p
                &&
                match advance i mask p with
                | None -> false
                | Some m -> completable (i + 1) m)
               || go (p + 1))
          in
          let b = go (max 0 (i - window)) in
          Hashtbl.add memo (i, mask) b;
          b
    in
    (* Forward-reachable states, layer by layer. *)
    let layers = Array.make (n + 1) [] in
    layers.(0) <- [ 0 ];
    let seen = Hashtbl.create 4096 in
    Hashtbl.add seen (0, 0) ();
    for i = 0 to n - 1 do
      List.iter
        (fun mask ->
          for p = max 0 (i - window) to min (n - 1) (i + window) do
            if can_place i mask p then
              match advance i mask p with
              | None -> ()
              | Some m ->
                  if not (Hashtbl.mem seen (i + 1, m)) then begin
                    Hashtbl.add seen (i + 1, m) ();
                    layers.(i + 1) <- m :: layers.(i + 1)
                  end
          done)
        layers.(i)
    done;
    (* Pairs placeable at adjacent slots of some complete permissible
       reordering. *)
    let adjacent = Hashtbl.create 256 in
    for i = 0 to n - 2 do
      List.iter
        (fun mask ->
          for a = max 0 (i - window) to min (n - 1) (i + window) do
            if can_place i mask a then
              match advance i mask a with
              | None -> ()
              | Some m1 ->
                  for b = max 0 (i + 1 - window) to min (n - 1) (i + 1 + window) do
                    if b <> a && can_place (i + 1) m1 b then
                      match advance (i + 1) m1 b with
                      | None -> ()
                      | Some m2 ->
                          if completable (i + 2) m2 then
                            Hashtbl.replace adjacent (min a b, max a b) ()
                  done
          done)
        layers.(i)
    done;
    (* Independent conflict + reuse subtraction. *)
    let overlap_segs (aa : Interval.t array) (bb : Interval.t array) =
      let segs = ref [] in
      Array.iter
        (fun x ->
          Array.iter
            (fun y ->
              if Interval.overlaps x y then
                segs :=
                  Interval.make
                    (max x.Interval.lo y.Interval.lo)
                    (min x.Interval.hi y.Interval.hi)
                  :: !segs)
            bb)
        aa;
      List.sort Interval.compare !segs
    in
    let residue segs kills =
      (* walk each segment against the kill set, keeping uncovered spans *)
      let keep = ref [] in
      List.iter
        (fun (s : Interval.t) ->
          let cursor = ref s.Interval.lo in
          List.iter
            (fun (k : Interval.t) ->
              if k.Interval.lo <= s.Interval.hi && k.Interval.hi >= !cursor then begin
                if k.Interval.lo > !cursor then
                  keep := Interval.make !cursor (k.Interval.lo - 1) :: !keep;
                cursor := max !cursor (k.Interval.hi + 1)
              end)
            (List.sort Interval.compare kills);
          if !cursor <= s.Interval.hi then keep := Interval.make !cursor s.Interval.hi :: !keep)
        segs;
      List.sort Interval.compare !keep
    in
    let obs = observed_table observed in
    let findings = ref [] in
    for up = 0 to n - 1 do
      for vp = up + 1 to n - 1 do
        if
          Hashtbl.mem adjacent (up, vp)
          && (not reach.(up).(vp))
          && not reach.(vp).(up)
        then begin
          let u = dag.nodes.(up) and v = dag.nodes.(vp) in
          let kills = ref u.wipes in
          for fp = up + 1 to vp - 1 do
            let f = dag.nodes.(fp) in
            if reach.(fp).(vp) then kills := f.wipes @ !kills
          done;
          List.iter
            (fun (k, aa, bb) ->
              match residue (overlap_segs aa bb) !kills with
              | [] -> ()
              | w :: _ ->
                  if not (Hashtbl.mem obs (kind_tag k, u.id, v.id)) then
                    findings := { kind = k; prior = u.id; current = v.id; where = w } :: !findings)
            [
              (Report.Write_write, u.writes, v.writes);
              (Report.Write_read, u.writes, v.reads);
              (Report.Read_write, u.reads, v.writes);
            ]
        end
      done
    done;
    List.sort compare_findings !findings
  end
