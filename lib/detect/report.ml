type kind = Write_write | Write_read | Read_write

type origin = Observed | Predicted

type race = { kind : kind; prior : int; current : int; where : Interval.t }

type t = {
  tbl : (int * int * kind, race) Hashtbl.t;
  lock : Mutex.t;
  mutable raw : int;
}

let create () = { tbl = Hashtbl.create 64; lock = Mutex.create (); raw = 0 }

let add t kind ~prior ~current where =
  Mutex.lock t.lock;
  t.raw <- t.raw + 1;
  let key = (prior, current, kind) in
  if not (Hashtbl.mem t.tbl key) then Hashtbl.add t.tbl key { kind; prior; current; where };
  Mutex.unlock t.lock

let count t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.tbl in
  Mutex.unlock t.lock;
  n

let raw_count t = t.raw

let races t =
  Mutex.lock t.lock;
  let l = Hashtbl.fold (fun _ r acc -> r :: acc) t.tbl [] in
  Mutex.unlock t.lock;
  List.sort
    (fun a b ->
      match compare a.prior b.prior with
      | 0 -> ( match compare a.current b.current with 0 -> compare a.kind b.kind | c -> c)
      | c -> c)
    l

let mem t ~prior ~current =
  Mutex.lock t.lock;
  let found =
    Hashtbl.mem t.tbl (prior, current, Write_write)
    || Hashtbl.mem t.tbl (prior, current, Write_read)
    || Hashtbl.mem t.tbl (prior, current, Read_write)
  in
  Mutex.unlock t.lock;
  found

let kind_index = function Write_write -> 0 | Write_read -> 1 | Read_write -> 2

let kind_to_string = function
  | Write_write -> "W/W"
  | Write_read -> "W/R"
  | Read_write -> "R/W"

let origin_to_string = function Observed -> "observed" | Predicted -> "predicted"

let pp_race fmt r =
  Format.fprintf fmt "%s race between strands %d and %d at %a" (kind_to_string r.kind) r.prior
    r.current Interval.pp r.where
