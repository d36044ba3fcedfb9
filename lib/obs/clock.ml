type t =
  | Null
  | Monotonic
  | Manual of { mutable m_now : int }
  | Counter of { mutable c_now : int }

let null = Null
let monotonic = Monotonic
let manual () = Manual { m_now = 0 }
let counter () = Counter { c_now = 0 }

let now = function
  | Null -> 0
  | Monotonic -> int_of_float (Unix.gettimeofday () *. 1e6)
  | Manual m -> m.m_now
  | Counter c ->
      c.c_now <- c.c_now + 1;
      c.c_now

let set t v =
  match t with
  | Manual m -> m.m_now <- v
  | Counter c -> if v > c.c_now then c.c_now <- v
  | Null | Monotonic -> ()

let catch_up t v =
  match t with
  | Manual m -> if v > m.m_now then m.m_now <- v
  | Counter c -> if v > c.c_now then c.c_now <- v
  | Null | Monotonic -> ()

let is_virtual = function Null | Manual _ | Counter _ -> true | Monotonic -> false
