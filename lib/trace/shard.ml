(* Address-range shard router for the access history.

   Shard ownership is by aligned block: block [b] belongs to shard
   [b mod shards].  Race checks are per-address, so restricting every
   access, clear and free to the block-aligned pieces a shard owns
   preserves the race set exactly — each address is seen by exactly one
   {writer, lreader, rreader} treap triple, every treap stays sequential,
   and no synchronization between shards is ever needed.  [shards = 1]
   passes every range through unsplit, which is the paper's
   configuration.

   The block size trades split frequency against balance: bigger blocks
   split fewer coalesced intervals, smaller blocks interleave a single
   allocation's addresses across more shards.  1024 words keeps splits
   rare (coalesced intervals are usually one stencil row / merge run of a
   few dozen words, so most fit inside one block) while still spreading a
   few-thousand-word working set — the evaluation workloads' scale —
   across 8 shards. *)

let shard_block = 1024

(* The one ownership rule, shared by [owner] and the subrange walk. *)
let[@inline] block_owner block shards addr = addr / block mod shards

let owner ?(block = shard_block) ~shards addr = block_owner block shards addr

(* A toplevel loop rather than a closure over the interval, so a split
   allocates nothing of its own. *)
let[@pint.hot] rec iter_blocks block shards shard lo hi ctx f =
  if shards = 1 then f ctx lo hi
  else if lo <= hi then begin
    let bhi = Int.min hi ((lo / block * block) + block - 1) in
    if block_owner block shards lo = shard then f ctx lo bhi;
    iter_blocks block shards shard (bhi + 1) hi ctx f
  end

let iter_subranges ?(block = shard_block) ~shards ~shard lo hi ctx f =
  iter_blocks block shards shard lo hi ctx f
