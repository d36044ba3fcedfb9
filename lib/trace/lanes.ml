(* Address-range sharding router for the access history.

   Shard ownership is by aligned block: block [b] belongs to shard
   [b mod shards].  Race checks are per-address, so splitting every
   interval batch along block boundaries and routing each piece to its
   owning shard preserves the race set exactly — each address is seen by
   exactly one {writer, lreader, rreader} treap triple, every treap stays
   sequential, and no synchronization between shards is ever needed.
   [shards = 1] routes everything to lane 0 unsplit, which is the paper's
   configuration.

   The block size trades split frequency against balance: bigger blocks
   split fewer coalesced intervals, smaller blocks interleave a single
   allocation's addresses across more shards.  256 words keeps splits
   rare (coalesced intervals are usually one stencil row / merge run of a
   few dozen words, so most fit inside one block) while still spreading a
   few-thousand-word working set — the evaluation workloads' scale —
   across 8 shards.

   The router itself is a fixed array of AHQ lanes plus producer-private
   backpressure counters; all mutation is on the single collector stage
   (the lanes' own single-producer discipline is documented in Ahq). *)

let shard_block = 1024

let owner ?(block = shard_block) ~shards addr = addr / block mod shards

(* A toplevel loop rather than a closure over the interval, so a split
   allocates nothing of its own. *)
let[@pint.hot] rec iter_blocks block shards shard lo hi ctx f =
  if shards = 1 then f ctx lo hi
  else if lo <= hi then begin
    let bhi = Int.min hi ((lo / block * block) + block - 1) in
    if lo / block mod shards = shard then f ctx lo bhi;
    iter_blocks block shards shard (bhi + 1) hi ctx f
  end

let iter_subranges ?(block = shard_block) ~shards ~shard lo hi ctx f =
  iter_blocks block shards shard lo hi ctx f

type 'a t = {
  lanes : 'a Ahq.t array;
  (* Per-lane all-or-nothing rejections — how often THIS lane was the one
     without room when the collector tried to commit a strand to every
     lane.  Collector-owned (single producer). *)
  rejects : int array;
  (* Backpressure policy: how many backoff rounds the producer rides out a
     saturated lane before giving up on the commit.  0 — the default, and
     mandatory under any single-threaded driver — rejects immediately: with
     nobody running concurrently there is no consumer to wait for, and a
     spin would either hang (round-robin drivers interleave the consumers
     anyway) or waste the round.  Real-domain runs set this up so that a
     momentarily-behind shard pool stalls the collector briefly instead of
     forcing a reject/retry cycle through the strand scheduler.
     Collector-owned, set at wiring time. *)
  mutable bp_rounds : int;
  (* Producer backoff rounds actually taken waiting out a full lane.
     Collector-owned. *)
  mutable bp_waits : int;
}

let create ?capacity ~shards ~readers_of_lane () =
  if shards < 1 then invalid_arg "Lanes.create: shards must be >= 1";
  {
    lanes = Array.init shards (fun k -> Ahq.create ?capacity ~readers:(readers_of_lane k) ());
    rejects = Array.make shards 0;
    bp_rounds = 0;
    bp_waits = 0;
  }

let lane t k = t.lanes.(k)

let set_backpressure t ~rounds =
  if rounds < 0 then invalid_arg "Lanes.set_backpressure: rounds must be >= 0";
  t.bp_rounds <- rounds

let backpressure_waits t = t.bp_waits

(* All-or-nothing commit: probe every lane for room first ([reserve]),
   then enqueue one record per lane ([push]).  Sound even with consumers
   advancing cursors concurrently on other domains, because the collector
   is the only producer on every lane: consumers only CREATE room
   (recycling consumed slots), never take it away, so room observed by the
   probe cannot shrink before the pushes commit.  The converse race — a
   probe that finds a lane full just before a concurrent consumer frees it
   — is what the backpressure loop absorbs: ride the {!Backoff} ladder up
   to [bp_rounds] re-probes before declaring the commit rejected.  The
   caller builds each lane's record only after [reserve] succeeds, so
   payload construction (the interval split) is never wasted work on a
   stall. *)
let all_have_room t =
  let n = Array.length t.lanes in
  let rec go k = k >= n || (Ahq.has_room t.lanes.(k) && go (k + 1)) in
  go 0

(* commit rejected: account every still-roomless lane, exactly as the
   policy-free path always did *)
let note_rejects t =
  for k = 0 to Array.length t.lanes - 1 do
    if not (Ahq.has_room t.lanes.(k)) then t.rejects.(k) <- t.rejects.(k) + 1
  done

let rec wait_for_room t round =
  if all_have_room t then true
  else if round >= t.bp_rounds then begin
    note_rejects t;
    false
  end
  else begin
    t.bp_waits <- t.bp_waits + 1;
    Backoff.relax round;
    wait_for_room t (round + 1)
  end

let reserve t = wait_for_room t 0

let[@pint.hot] push t k x =
  if not (Ahq.try_enqueue t.lanes.(k) x) then
    (* unreachable after [reserve] by the single-producer argument above *)
    failwith "Lanes.push: lane lost room after probe"

let rejects t k = t.rejects.(k)
let total_rejects t = Array.fold_left ( + ) 0 t.rejects
let drained t = Array.for_all Ahq.drained t.lanes
let total_enqueued t = Array.fold_left (fun acc l -> acc + Ahq.enqueued l) 0 t.lanes
let total_min_rescans t = Array.fold_left (fun acc l -> acc + Ahq.min_rescans l) 0 t.lanes
let max_peak_occupancy t = Array.fold_left (fun acc l -> max acc (Ahq.peak_occupancy l)) 0 t.lanes
