(* Calibrated once against heat's Figure-1 magnitudes, then frozen.
   One recalibration since: [c_treap_visit] 14 -> 12 when the treap nodes
   started carrying their endpoints as immediate int fields — a visit now
   reads two ints out of the node block instead of dereferencing a boxed
   interval, and the constant models exactly that per-visit touch. *)
let c_flop = 1
let c_word = 2
let c_strand = 60
let c_spawn = 90
let c_sync = 70
let c_coal_word = 8
let c_instr_event = 190
let c_trace_push = 150
let c_hash_word = 250
let c_treap_visit = 12
let c_treap_strand = 120
let c_steal = 1500
let c_steal_fail = 300

let boundary (kind : Events.finish_kind) =
  match kind with
  | Events.F_spawn _ -> c_spawn
  | Events.F_sync _ -> c_sync
  | Events.F_return _ -> c_strand
  | Events.F_root -> 0

let base_cost (u : Srec.t) kind =
  c_strand + (c_word * u.work) + (c_flop * u.compute) + boundary kind

let events (u : Srec.t) = u.raw_reads + u.raw_writes

let stint_core_cost u kind =
  base_cost u kind + (c_coal_word * u.Srec.work) + (c_instr_event * events u)

let pint_core_cost u kind = stint_core_cost u kind + c_trace_push

let cracer_core_cost u kind = base_cost u kind + (c_hash_word * u.Srec.work)

(* The virtual treap workers an N-shard PINT pipeline occupies: every
   shard runs a {writer, lreader, rreader} triple, and the collector rides
   on shard 0's writer.  The paper's "P cores = (P−3) core workers +
   3 treap workers" accounting generalizes to P − treap_workers. *)
let treap_workers ~shards = 3 * shards

let treap_step_cost ~records ~visits = (c_treap_strand * records) + (c_treap_visit * visits)
