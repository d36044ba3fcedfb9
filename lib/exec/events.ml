type start_kind =
  | S_root
  | S_child
  | S_cont of { stolen : bool }
  | S_after_sync of { trivial : bool }

type finish_kind =
  | F_spawn of { cont : Srec.t; sync : Srec.t; child : Srec.t; first_of_block : bool }
  | F_return of { cont_stolen : bool; parent_sync : Srec.t option }
  | F_sync of { trivial : bool; sync : Srec.t }
  | F_root

let starts_trace = function
  | S_cont { stolen = true } | S_after_sync { trivial = false } -> true
  | S_root | S_child | S_cont { stolen = false } | S_after_sync { trivial = true } -> false
