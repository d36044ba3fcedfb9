(* A key packs (prior id, race kind) into one int and lands in the slot
   its low bits name ([slots] is a power of two).  A slot holds the last
   key that landed there and the stamp of the strand that wrote it, so an
   entry from an earlier strand never matches. *)

let slots = 64

type t = { keys : int array; stamps : int array; mutable stamp : int }

let create () = { keys = Array.make slots (-1); stamps = Array.make slots (-1); stamp = 0 }

let[@pint.hot] next_strand t = t.stamp <- t.stamp + 1

let[@pint.hot] first t ~prior kind =
  let key = (prior * 3) + Report.kind_index kind in
  let i = key land (slots - 1) in
  if t.stamps.(i) = t.stamp && t.keys.(i) = key then false
  else begin
    t.keys.(i) <- key;
    t.stamps.(i) <- t.stamp;
    true
  end
