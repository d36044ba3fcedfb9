
type strand = { sid : int; english : Om.record; hebrew : Om.record }

type t = { e_list : Om.t; h_list : Om.t; next_id : int Atomic.t }

let id s = s.sid

let create () =
  let e_list = Om.create () in
  let h_list = Om.create () in
  let root = { sid = 0; english = Om.base e_list; hebrew = Om.base h_list } in
  ({ e_list; h_list; next_id = Atomic.make 1 }, root)

let fresh_id t = Atomic.fetch_and_add t.next_id 1

(* All OM insertions hang off records reachable only from the spawning
   worker's control flow, so no lock beyond Om's internal one is needed:
   concurrent spawns by different workers insert after disjoint records. *)
let spawn t ~sync_pre u =
  let child =
    { sid = fresh_id t;
      english = Om.insert_after t.e_list u.english;
      hebrew = Om.insert_after t.h_list u.hebrew }
  in
  (* Target layouts — English: u, child, cont; Hebrew: u, cont, child.
     Inserting cont after u in Hebrew lands it between u and the
     already-inserted child. *)
  let cont =
    { sid = fresh_id t;
      english = Om.insert_after t.e_list child.english;
      hebrew = Om.insert_after t.h_list u.hebrew }
  in
  let sync =
    match sync_pre with
    | Some s -> s
    | None ->
        (* First spawn of the block: pre-insert the sync strand at what will
           remain the end of the block in both orders — after the
           continuation in English, after the child in Hebrew. *)
        { sid = fresh_id t;
          english = Om.insert_after t.e_list cont.english;
          hebrew = Om.insert_after t.h_list child.hebrew }
  in
  (child, cont, sync)

let series t u v =
  u == v
  || (Om.precedes t.e_list u.english v.english && Om.precedes t.h_list u.hebrew v.hebrew)

let parallel t u v =
  u != v
  && Om.precedes t.e_list u.english v.english <> Om.precedes t.h_list u.hebrew v.hebrew

let left_of t u v = Om.precedes t.e_list u.english v.english

let strand_count t = Atomic.get t.next_id

