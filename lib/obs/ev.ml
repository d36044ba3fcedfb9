(* Event kind codes stored in ring buffers.  Kept as plain ints so hot
   emit sites pass immediates; the Chrome exporter owns the decoding. *)

let strand_finish = 0
let enqueue = 1 (* AHQ occupancy sample; arg = occupancy after the enqueue *)
let collect = 2
let treap_op = 3 (* span; arg = treap-node visits of the step *)
let stall = 4 (* span; writer blocked on a full AHQ *)
let recycle = 5 (* arg = slots recycled by this cursor advance *)
let complete = 6 (* all 3N treap workers have processed the strand *)
let steal = 7 (* worker stole a ditem from a peer deque; arg = victim worker *)
let park = 8 (* a pool/worker domain entered the deep-backoff sleep regime *)

let name = function
  | 0 -> "finish"
  | 1 -> "ahq"
  | 2 -> "collect"
  | 3 -> "treap"
  | 4 -> "stall"
  | 5 -> "recycle"
  | 6 -> "complete"
  | 7 -> "steal"
  | 8 -> "park"
  | k -> "ev" ^ string_of_int k

(* The exporter's phase split: spans render as Chrome "X" complete events,
   counters as "C", everything else as thread-scoped instants. *)
let is_span k = k = treap_op || k = stall
let is_counter k = k = enqueue

let arg_label = function
  | 1 -> "occupancy"
  | 3 -> "visits"
  | 5 -> "slots"
  | 7 -> "victim"
  | 8 -> "pool"
  | 0 | 2 | 6 -> "uid"
  | _ -> "arg"
