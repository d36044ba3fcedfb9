
type side = {
  buf : Interval.t Vec.t;
  (* True while the buffer is already in canonical form: sorted by [lo] with
     pairwise-disjoint, non-adjacent entries.  Holds as long as every access
     lands at or after the last recorded interval (the monotone sweep of a
     loop nest): merges then only ever extend the last entry's [hi], and an
     entry's gap to its predecessor is fixed at push time.  The flag drops
     the moment an access starts before the last entry's [lo] — a merge that
     extends [lo] leftwards can create adjacency with the predecessor, and an
     out-of-order push breaks sortedness outright. *)
  mutable canonical : bool;
}

type t = {
  reads : side;
  writes : side;
  mutable sorts : int;
  mutable sort_skips : int;
}

let dummy = Interval.point 0

let create () =
  {
    reads = { buf = Vec.create ~capacity:64 dummy; canonical = true };
    writes = { buf = Vec.create ~capacity:64 dummy; canonical = true };
    sorts = 0;
    sort_skips = 0;
  }

let[@pint.hot] add side ~addr ~len =
  if len <= 0 then invalid_arg "Coalescer.add: len must be positive";
  let lo = addr and hi = addr + len - 1 in
  let n = Vec.length side.buf in
  let merges =
    n > 0
    &&
    let last = Vec.peek side.buf in
    if lo < last.Interval.lo then side.canonical <- false;
    last.Interval.lo <= hi + 1 && lo <= last.Interval.hi + 1
  in
  if not merges then Vec.push side.buf (Interval.make lo hi)
  else begin
    (* The access is adjacent to or overlaps the last entry: their hull
       replaces it, boxed once, and only when it is larger. *)
    let last = Vec.peek side.buf in
    let llo = last.Interval.lo and lhi = last.Interval.hi in
    if lo < llo || hi > lhi then
      Vec.set side.buf (n - 1) (Interval.make (Int.min lo llo) (Int.max hi lhi))
  end

let add_read t = add t.reads
let add_write t = add t.writes

let canonicalize t side =
  let n = Vec.length side.buf in
  if n = 0 then [||]
  else if side.canonical then begin
    (* Already sorted, disjoint and non-adjacent — the monotone common case
       skips both the sort and the re-merge pass. *)
    t.sort_skips <- t.sort_skips + 1;
    Vec.to_array side.buf
  end
  else begin
    t.sorts <- t.sorts + 1;
    Vec.sort Interval.compare side.buf;
    let out = Vec.create ~capacity:n dummy in
    Vec.iter
      (fun iv ->
        if Vec.is_empty out then Vec.push out iv
        else
          let last = Vec.peek out in
          if Interval.adjacent_or_overlapping last iv then
            Vec.set out (Vec.length out - 1) (Interval.hull last iv)
          else Vec.push out iv)
      side.buf;
    Vec.to_array out
  end

let finish t =
  let reads = canonicalize t t.reads in
  let writes = canonicalize t t.writes in
  Vec.clear t.reads.buf;
  Vec.clear t.writes.buf;
  t.reads.canonical <- true;
  t.writes.canonical <- true;
  (reads, writes)

let sort_stats t = (t.sort_skips, t.sorts)

let pending t = (Vec.length t.reads.buf, Vec.length t.writes.buf)
