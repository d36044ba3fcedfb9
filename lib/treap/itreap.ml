(* Single-owner arena.  Slot [n]'s fields live at [nodes.(n * stride + f)]
   for the field offsets below, its owner at [owners.(n)]; [nil] is the
   empty tree.  Free slots are linked through their [left] field from
   [free].  Nodes are int indices, never heap blocks, so relinking is a
   plain int store with no write barrier and no operation allocates once
   the arena has grown to the working-set size (DESIGN.md §8). *)
let stride = 5
let f_left = 0
let f_right = 1
let f_lo = 2
let f_hi = 3
let f_prio = 4
let nil = -1

(* Reusable slow-path buffer: parallel arrays instead of an entry record or
   tuple list, so pushing a piece allocates nothing once the arrays have
   grown to the working-set size.  Two live per treap ([ovl] for detached
   overlap entries, [pieces] for their replacement) — treaps are
   single-owner by design (paper §III: each treap worker owns exactly one
   treap, nothing here is thread-safe), so the buffers can never be in use
   by two operations at once. *)
type 'o scratch = {
  mutable s_lo : int array;
  mutable s_hi : int array;
  mutable s_own : 'o array;
  mutable s_len : int;
}

type 'o t = {
  mutable nodes : int array;
  mutable owners : 'o array;
  mutable free : int;
  mutable root : int;
  (* the two halves the last split produced, and the deepest node it put
     into each: the left half's maximum and the right half's minimum *)
  mutable split_l : int;
  mutable split_r : int;
  mutable max_l : int;
  mutable min_r : int;
  mutable size : int;
  mutable visits : int;
  mutable covered : int;
  mutable fastpath_hits : int;
  mutable inplace_hits : int;
  mutable slowpath_hits : int;
  mutable scratch_reuse : int;
  ovl : 'o scratch;
  pieces : 'o scratch;
  rng : Rng.t;
  owner_eq : 'o -> 'o -> bool;
}

let scratch () = { s_lo = [||]; s_hi = [||]; s_own = [||]; s_len = 0 }

let create ~seed ~owner_eq () =
  {
    nodes = [||];
    owners = [||];
    free = nil;
    root = nil;
    split_l = nil;
    split_r = nil;
    max_l = nil;
    min_r = nil;
    size = 0;
    visits = 0;
    covered = 0;
    fastpath_hits = 0;
    inplace_hits = 0;
    slowpath_hits = 0;
    scratch_reuse = 0;
    ovl = scratch ();
    pieces = scratch ();
    rng = Rng.create seed;
    owner_eq;
  }

let size t = t.size
let visits t = t.visits
let covered t = t.covered
let fastpath_hits t = t.fastpath_hits
let inplace_hits t = t.inplace_hits
let slowpath_hits t = t.slowpath_hits
let scratch_reuse t = t.scratch_reuse
let capacity t = Array.length t.owners

let visit t = t.visits <- t.visits + 1

(* ------------------------------------------------------------ the arena *)

let[@inline] left t n = t.nodes.((n * stride) + f_left)
let[@inline] right t n = t.nodes.((n * stride) + f_right)
let[@inline] lo_of t n = t.nodes.((n * stride) + f_lo)
let[@inline] hi_of t n = t.nodes.((n * stride) + f_hi)
let[@inline] prio_of t n = t.nodes.((n * stride) + f_prio)
let[@inline] set_left t n x = t.nodes.((n * stride) + f_left) <- x
let[@inline] set_right t n x = t.nodes.((n * stride) + f_right) <- x

let free_slot t n =
  set_left t n t.free;
  t.free <- n

(* The only place the arena allocates: doubles the slot count and threads
   the new slots onto the free list, lowest index first.  [own] seeds the
   owner array, which needs an element to exist.  A freed slot keeps its
   last owner reachable until reuse, so at most [capacity] stale owners are
   retained. *)
let grow t own =
  let cap = capacity t in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let nodes = Array.make (ncap * stride) nil and owners = Array.make ncap own in
  Array.blit t.nodes 0 nodes 0 (cap * stride);
  Array.blit t.owners 0 owners 0 cap;
  t.nodes <- nodes;
  t.owners <- owners;
  for n = ncap - 1 downto cap do
    free_slot t n
  done

let[@pint.hot] alloc t lo hi owner prio =
  if t.free = nil then grow t owner;
  let n = t.free in
  let b = n * stride in
  t.free <- t.nodes.(b + f_left);
  t.nodes.(b + f_left) <- nil;
  t.nodes.(b + f_right) <- nil;
  t.nodes.(b + f_lo) <- lo;
  t.nodes.(b + f_hi) <- hi;
  t.nodes.(b + f_prio) <- prio;
  t.owners.(n) <- owner;
  n

(* ------------------------------------------------------- scratch buffers *)

let s_clear s = s.s_len <- 0

(* Growth needs no dummy element: the pushed [own] seeds the new array. *)
let s_push s lo hi own =
  let cap = Array.length s.s_lo in
  if s.s_len = cap then begin
    let ncap = if cap = 0 then 8 else 2 * cap in
    let nlo = Array.make ncap 0 and nhi = Array.make ncap 0 and nown = Array.make ncap own in
    Array.blit s.s_lo 0 nlo 0 s.s_len;
    Array.blit s.s_hi 0 nhi 0 s.s_len;
    Array.blit s.s_own 0 nown 0 s.s_len;
    s.s_lo <- nlo;
    s.s_hi <- nhi;
    s.s_own <- nown
  end;
  s.s_lo.(s.s_len) <- lo;
  s.s_hi.(s.s_len) <- hi;
  s.s_own.(s.s_len) <- own;
  s.s_len <- s.s_len + 1

(* Pieces are generated in address order and never overlap, so keeping them
   coalesced only needs an adjacency check against the top entry. *)
let s_push_coalesce t s lo hi own =
  if s.s_len > 0 && t.owner_eq s.s_own.(s.s_len - 1) own && s.s_hi.(s.s_len - 1) + 1 = lo then
    s.s_hi.(s.s_len - 1) <- hi
  else s_push s lo hi own

(* ---------------------------------------------------------- tree plumbing *)

(* Every descent below relinks on the way back up, after its recursive
   call returns.  Where it calls [visit] and when it draws a priority are
   part of its contract: the cost model charges per visit, and
   test_treap's visit-parity test and test_golden's visit pins hold the
   sequence fixed (DESIGN.md §8). *)

(* A split puts each node of its path into one half as it unwinds, deepest
   first, so the first node [put_left] sees is the left half's maximum and
   the first [put_right] sees is the right half's minimum: the two in-order
   neighbours of the split point, which [commit] reads from [t.max_l] and
   [t.min_r] instead of walking a spine.  The leaf resets them, so an empty
   half records [nil]. *)
let[@inline] split_leaf t =
  t.split_l <- nil;
  t.split_r <- nil;
  t.max_l <- nil;
  t.min_r <- nil

let[@inline] put_left t n =
  if t.split_l = nil then t.max_l <- n;
  set_right t n t.split_l;
  t.split_l <- n

let[@inline] put_right t n =
  if t.split_r = nil then t.min_r <- n;
  set_left t n t.split_r;
  t.split_r <- n

(* [split t k n] partitions [n] by low endpoint: (lo < k) into
   [t.split_l], (lo >= k) into [t.split_r]. *)
let[@pint.hot] rec split t k n =
  if n = nil then split_leaf t
  else begin
    visit t;
    if lo_of t n < k then (split t k (right t n); put_left t n)
    else (split t k (left t n); put_right t n)
  end

(* [split_below t lo n] partitions [n] by high endpoint: the intervals that
   end before [lo] into [t.split_l], the rest into [t.split_r].  Stored
   intervals are disjoint, so high endpoints order them as low endpoints
   do; an interval straddling [lo] goes right, with the others that reach
   [lo] or beyond. *)
let[@pint.hot] rec split_below t lo n =
  if n = nil then split_leaf t
  else begin
    visit t;
    if hi_of t n < lo then (split_below t lo (right t n); put_left t n)
    else (split_below t lo (left t n); put_right t n)
  end

(* Does node [n] end at [lo - 1] or start at [hi + 1] with an owner equal
   to [owner]?  Such a neighbour must coalesce with [\[lo, hi\]], which only
   the general path does. *)
let[@inline] touches_same t n lo hi owner =
  (hi_of t n + 1 = lo || lo_of t n = hi + 1) && t.owner_eq t.owners.(n) owner

(* [split_probe]'s result when the general path must run.  It and [nil]
   are the only negative results; a node index is never negative. *)
let overlap = -2

(* [split_probe t lo hi owner n] is the insert probe: one descent that
   splits [n] while it looks for a stored interval that intersects
   [\[lo, hi\]] or touches it with an owner equal to [owner].  Three
   outcomes:
   - the first such node is exactly [\[lo, hi\]]: it is returned and
     nothing is relinked (stored intervals are disjoint, so it is the only
     intersecting node);
   - any other such node: from there the descent is [split_below t lo],
     and [overlap] is returned with the tree split for the general path.
     Above that node the two splits agree: an interval that misses
     [\[lo, hi\]] starts before [lo] exactly when it ends before [lo];
   - none: the split at [lo] — (lo' < lo) into [t.split_l], (lo' >= lo)
     into [t.split_r] — completes and [nil] is returned.
   Reaching the leaf proves nothing stored intersects [\[lo, hi\]]: at any
   non-intersecting node the skipped subtree lies outside the probe range
   (went left => skipped keys all exceed [hi]; went right => skipped
   intervals all end before the node, hence before [lo]).  Both in-order
   neighbours of the split point lie on the path, so neither touches the
   new interval with [owner].  The probe and the insert-position split are
   therefore the same single descent. *)
let[@pint.hot] rec split_probe t lo hi owner n =
  if n = nil then (split_leaf t; nil)
  else begin
    visit t;
    let nlo = lo_of t n and nhi = hi_of t n in
    if nlo = lo && nhi = hi then n
    else if (nhi >= lo && nlo <= hi) || touches_same t n lo hi owner then begin
      if nhi < lo then (split_below t lo (right t n); put_left t n)
      else (split_below t lo (left t n); put_right t n);
      overlap
    end
    else if nlo < lo then begin
      let hit = split_probe t lo hi owner (right t n) in
      if hit < 0 then put_left t n;
      hit
    end
    else begin
      let hit = split_probe t lo hi owner (left t n) in
      if hit < 0 then put_right t n;
      hit
    end
  end

(* [join t a b] assumes every key in [a] is smaller than every key in [b]. *)
let[@pint.hot] rec join t a b =
  if a = nil then b
  else if b = nil then a
  else begin
    visit t;
    if prio_of t a > prio_of t b then (set_right t a (join t (right t a) b); a)
    else (set_left t b (join t a (left t b)); b)
  end

(* Three-way join: every key in [a] < fresh node [m] < every key in [b].
   Descends from the higher-priority side until [m]'s priority dominates,
   then roots [m] there with [a]/[b] remainders as children — the fresh
   node sinks straight to its heap position instead of two spine-walking
   two-way joins. *)
let[@pint.hot] rec join_mid_desc t m a b =
  let prio = prio_of t m in
  visit t;
  if a <> nil && prio_of t a > prio && (b = nil || prio_of t a > prio_of t b) then
    (set_right t a (join_mid_desc t m (right t a) b); a)
  else if b <> nil && prio_of t b > prio then (set_left t b (join_mid_desc t m a (left t b)); b)
  else (set_left t m a; set_right t m b; m)

let[@pint.hot] join_mid t a b lo hi owner =
  let prio = Rng.next t.rng in
  join_mid_desc t (alloc t lo hi owner prio) a b

(* Does any stored interval intersect [qlo, qhi]?  Stored intervals are
   disjoint, so low and high endpoints induce the same order and a single
   find-style descent decides. *)
let[@pint.hot] rec intersects t qlo qhi n =
  n <> nil
  && begin
       visit t;
       if lo_of t n > qhi then intersects t qlo qhi (left t n)
       else if hi_of t n < qlo then intersects t qlo qhi (right t n)
       else true
     end

(* Read-only extreme-node probes for [update_in_place]; [remove_max] and
   [remove_min] relink (and free the slot) when [commit] merges a boundary
   neighbour. *)
let[@pint.hot] rec max_node t n =
  if n = nil then nil else (visit t; if right t n = nil then n else max_node t (right t n))

let[@pint.hot] rec min_node t n =
  if n = nil then nil else (visit t; if left t n = nil then n else min_node t (left t n))

let[@pint.hot] rec remove_max t n =
  if n = nil then nil
  else begin
    visit t;
    let r = right t n in
    if r <> nil then (set_right t n (remove_max t r); n)
    else (let l = left t n in free_slot t n; l)
  end

let[@pint.hot] rec remove_min t n =
  if n = nil then nil
  else begin
    visit t;
    let l = left t n in
    if l <> nil then (set_left t n (remove_min t l); n)
    else (let r = right t n in free_slot t n; r)
  end

let rec in_order t n acc =
  if n = nil then acc
  else
    in_order t (left t n)
      (({ Interval.lo = lo_of t n; hi = hi_of t n }, t.owners.(n)) :: in_order t (right t n) acc)

(* Move a detached subtree's entries into [t.ovl] in address order and
   return its slots to the free list. *)
let rec drain_ovl t n =
  if n <> nil then begin
    drain_ovl t (left t n);
    s_push t.ovl (lo_of t n) (hi_of t n) t.owners.(n);
    let r = right t n in
    free_slot t n;
    drain_ovl t r
  end

(* ---------------------------------------------------------- fast paths *)

(* Insert an interval the caller has just proven (via [split_probe]) to
   overlap nothing stored and to touch no same-owner neighbour: the probe
   descent already left the split halves in [t.split_l]/[t.split_r], so all
   that is left is the three-way join — no overlap bookkeeping, no extra
   descent. *)
let insert_disjoint t lo hi owner =
  t.fastpath_hits <- t.fastpath_hits + 1;
  t.root <- join_mid t t.split_l t.split_r lo hi owner;
  t.size <- t.size + 1;
  t.covered <- t.covered + (hi - lo + 1)

(* Give slot [n], which [split_probe] matched exactly, the owner [owner]
   without relinking anything.  An owner equal to the incumbent changes
   nothing.  Otherwise [owner] is the inserting strand, which the probe
   has already checked against every ancestor of [n], so the only
   neighbours left to check are the extreme nodes of [n]'s two subtrees.
   Returns [false], with nothing changed, when one of them touches [n]
   with [owner]: the two must coalesce, which only the general path
   does. *)
let[@pint.hot] update_in_place t n owner =
  t.owner_eq t.owners.(n) owner
  || begin
       let lo = lo_of t n and hi = hi_of t n in
       let l = left t n and r = right t n in
       (l = nil || not (touches_same t (max_node t l) lo hi owner))
       && (r = nil || not (touches_same t (min_node t r) lo hi owner))
       && (t.owners.(n) <- owner; true)
     end

(* The front both inserts share: one probe descent, then either a
   [join_mid] insert of an interval that meets nothing stored, or an
   in-place update of the one slot holding exactly [\[lo, hi\]], whose new
   owner [keep] picks from the incumbent.  [false] means neither applied:
   the tree is then split as [split_below t lo] splits it, for the general
   path — by the probe itself, or from the root when a subtree neighbour
   of the exact match touches it with the new owner. *)
let[@pint.hot] insert_fast t lo hi owner keep =
  let n = split_probe t lo hi owner t.root in
  if n = nil then (insert_disjoint t lo hi owner; true)
  else if n = overlap then false
  else begin
    let incumbent = t.owners.(n) in
    let owner = match keep ~incumbent with `Keep -> incumbent | `Replace -> owner in
    if update_in_place t n owner then (t.inplace_hits <- t.inplace_hits + 1; true)
    else (split_below t lo t.root; false)
  end

let replace_any ~incumbent:_ = `Replace

let note_slow t =
  t.slowpath_hits <- t.slowpath_hits + 1;
  if Array.length t.pieces.s_lo > 0 then t.scratch_reuse <- t.scratch_reuse + 1

(* ---------------------------------------------------------- slow path *)

(* With the tree split below [lo] — everything that ends before [lo] in
   [t.split_l], the rest in [t.split_r] — one split of the right half at
   [hi + 1] isolates the stored intervals that intersect [\[lo, hi\]].
   They move into [t.ovl] in address order and their slots are freed.
   Leaves the trees of everything strictly left / strictly right in
   [t.split_l] / [t.split_r], and their boundary nodes in [t.max_l] /
   [t.min_r]. *)
let slow_extract t hi =
  let lower = t.split_l and lower_max = t.max_l in
  split t (hi + 1) t.split_r;
  s_clear t.ovl;
  drain_ovl t t.split_l;
  t.split_l <- lower;
  t.max_l <- lower_max

(* Replace the overlap region between the trees [slow_extract] left in
   [t.split_l]/[t.split_r]: the detached entries sit in [t.ovl], their
   replacement (sorted, already internally coalesced) in [t.pieces].  Merges
   with the boundary neighbours when owners match and intervals touch.  The
   last piece goes in with a three-way join, so a single piece costs one
   descent.  Maintains the size/covered ledgers. *)
let commit t =
  let ovl = t.ovl and ps = t.pieces in
  let removed_w = ref 0 in
  for i = 0 to ovl.s_len - 1 do
    removed_w := !removed_w + (ovl.s_hi.(i) - ovl.s_lo.(i) + 1)
  done;
  let removed_n = ref ovl.s_len in
  let lower = ref t.split_l and upper = ref t.split_r in
  let lst = ps.s_len - 1 in
  if lst >= 0 then begin
    (let m = t.max_l in
     if m <> nil && t.owner_eq t.owners.(m) ps.s_own.(0) && hi_of t m + 1 = ps.s_lo.(0) then begin
       ps.s_lo.(0) <- lo_of t m;
       removed_w := !removed_w + (hi_of t m - lo_of t m + 1);
       incr removed_n;
       lower := remove_max t !lower
     end);
    let m = t.min_r in
    if m <> nil && t.owner_eq t.owners.(m) ps.s_own.(lst) && ps.s_hi.(lst) + 1 = lo_of t m then begin
      ps.s_hi.(lst) <- hi_of t m;
      removed_w := !removed_w + (hi_of t m - lo_of t m + 1);
      incr removed_n;
      upper := remove_min t !upper
    end
  end;
  let added_w = ref 0 and middle = ref nil in
  for i = 0 to lst do
    added_w := !added_w + (ps.s_hi.(i) - ps.s_lo.(i) + 1);
    if i < lst then
      middle := join t !middle (alloc t ps.s_lo.(i) ps.s_hi.(i) ps.s_own.(i) (Rng.next t.rng))
  done;
  let lower = join t !lower !middle in
  t.root <-
    (if lst < 0 then join t lower !upper
     else join_mid t lower !upper ps.s_lo.(lst) ps.s_hi.(lst) ps.s_own.(lst));
  t.size <- t.size + ps.s_len - !removed_n;
  t.covered <- t.covered + !added_w - !removed_w

(* ---------------------------------------------------------- operations *)

let insert_replace t lo hi owner =
  if not (insert_fast t lo hi owner replace_any) then begin
    note_slow t;
    slow_extract t hi;
    let ovl = t.ovl and ps = t.pieces in
    s_clear ps;
    if ovl.s_len > 0 && ovl.s_lo.(0) < lo then s_push ps ovl.s_lo.(0) (lo - 1) ovl.s_own.(0);
    s_push_coalesce t ps lo hi owner;
    if ovl.s_len > 0 && ovl.s_hi.(ovl.s_len - 1) > hi then
      s_push_coalesce t ps (hi + 1) ovl.s_hi.(ovl.s_len - 1) ovl.s_own.(ovl.s_len - 1);
    commit t
  end

let insert_merge t lo hi owner ~keep =
  (* When nothing stored intersects, the whole range is one uncovered gap:
     it goes to the new strand, same as insert_replace. *)
  if not (insert_fast t lo hi owner keep) then begin
    note_slow t;
    slow_extract t hi;
    let ovl = t.ovl and ps = t.pieces in
    s_clear ps;
    if ovl.s_len > 0 && ovl.s_lo.(0) < lo then s_push ps ovl.s_lo.(0) (lo - 1) ovl.s_own.(0);
    let cur = ref lo in
    for k = 0 to ovl.s_len - 1 do
      let clo = max ovl.s_lo.(k) lo and chi = min ovl.s_hi.(k) hi in
      if !cur < clo then s_push_coalesce t ps !cur (clo - 1) owner;
      let incumbent = ovl.s_own.(k) in
      let seg_owner = match keep ~incumbent with `Keep -> incumbent | `Replace -> owner in
      s_push_coalesce t ps clo chi seg_owner;
      cur := chi + 1
    done;
    if !cur <= hi then s_push_coalesce t ps !cur hi owner;
    if ovl.s_len > 0 && ovl.s_hi.(ovl.s_len - 1) > hi then
      s_push_coalesce t ps (hi + 1) ovl.s_hi.(ovl.s_len - 1) ovl.s_own.(ovl.s_len - 1);
    commit t
  end

let clear_range t lo hi =
  (* No extension here: an interval merely touching the cleared range is
     left alone, so "nothing stored intersects" means "nothing to do". *)
  if not (intersects t lo hi t.root) then t.fastpath_hits <- t.fastpath_hits + 1
  else begin
    note_slow t;
    split_below t lo t.root;
    slow_extract t hi;
    let ovl = t.ovl and ps = t.pieces in
    s_clear ps;
    if ovl.s_len > 0 && ovl.s_lo.(0) < lo then s_push ps ovl.s_lo.(0) (lo - 1) ovl.s_own.(0);
    if ovl.s_len > 0 && ovl.s_hi.(ovl.s_len - 1) > hi then
      s_push ps (hi + 1) ovl.s_hi.(ovl.s_len - 1) ovl.s_own.(ovl.s_len - 1);
    commit t
  end

(* A toplevel descent rather than a closure over the query bounds, so a
   query allocates nothing; [f] gets the stored segment as two ints. *)
let[@pint.hot] rec query_desc t qlo qhi f n =
  if n <> nil then begin
    visit t;
    let lo = lo_of t n and hi = hi_of t n in
    if lo > qhi then query_desc t qlo qhi f (left t n)
    else if hi < qlo then query_desc t qlo qhi f (right t n)
    else begin
      query_desc t qlo qhi f (left t n);
      f lo hi t.owners.(n);
      query_desc t qlo qhi f (right t n)
    end
  end

let[@pint.hot] query t lo hi ~f = query_desc t lo hi f t.root

let find t addr =
  let rec go n =
    if n = nil then None
    else begin
      visit t;
      if addr < lo_of t n then go (left t n)
      else if addr > hi_of t n then go (right t n)
      else Some ({ Interval.lo = lo_of t n; hi = hi_of t n }, t.owners.(n))
    end
  in
  go t.root

let to_list t = in_order t t.root []

let reset t =
  t.root <- nil;
  t.size <- 0;
  t.covered <- 0;
  s_clear t.ovl;
  s_clear t.pieces;
  t.free <- nil;
  for n = capacity t - 1 downto 0 do
    free_slot t n
  done

let validate t =
  let fail fmt = Printf.ksprintf failwith fmt in
  (* Slot accounting: every slot is either reachable from the root or on
     the free list, exactly once — a slot in both, or in neither, is a
     relink that lost or duplicated a node.  Marking before descending also
     stops a cyclic link from looping, so this runs before anything walks
     the tree. *)
  let cap = capacity t in
  let seen = Bytes.make cap '\000' in
  let mark where n =
    if n < 0 || n >= cap then fail "%s slot %d outside the arena (capacity %d)" where n cap;
    if Bytes.get seen n <> '\000' then fail "slot %d reached twice (%s)" n where;
    Bytes.set seen n '\001'
  in
  (* Structural BST and heap checks with propagated bounds: the fast path
     inserts via split/join while the slow path rebuilds through commit, and
     both must land keys in the same positions for later descents to find
     them. *)
  let rec check_tree lo_b hi_b n =
    if n <> nil then begin
      mark "tree" n;
      let lo = lo_of t n in
      if hi_of t n < lo then fail "malformed interval [%d,%d]" lo (hi_of t n);
      (match lo_b with Some b when lo <= b -> fail "BST violation (left bound) at %d" lo | _ -> ());
      (match hi_b with Some b when lo >= b -> fail "BST violation (right bound) at %d" lo | _ -> ());
      let l = left t n and r = right t n in
      if l <> nil && prio_of t l > prio_of t n then fail "heap violation (left) at %d" lo;
      if r <> nil && prio_of t r > prio_of t n then fail "heap violation (right) at %d" lo;
      check_tree lo_b (Some lo) l;
      check_tree (Some lo) hi_b r
    end
  in
  check_tree None None t.root;
  let rec check_free n =
    if n <> nil then begin
      mark "free list" n;
      check_free (left t n)
    end
  in
  check_free t.free;
  Bytes.iteri (fun n c -> if c = '\000' then fail "slot %d neither in the tree nor free" n) seen;
  let entries = to_list t in
  let n = List.length entries in
  if n <> t.size then fail "size ledger %d but %d entries" t.size n;
  let w = List.fold_left (fun w (iv, _) -> w + Interval.width iv) 0 entries in
  if w <> t.covered then fail "covered ledger %d but %d covered" t.covered w;
  let rec check_pairs = function
    | (iv1, o1) :: ((iv2, o2) :: _ as rest) ->
        if iv2.Interval.lo <= iv1.Interval.hi then
          fail "overlap: %s vs %s" (Interval.to_string iv1) (Interval.to_string iv2);
        if t.owner_eq o1 o2 && iv1.Interval.hi + 1 = iv2.Interval.lo then
          fail "uncoalesced same-owner neighbours at %d" iv2.Interval.lo;
        check_pairs rest
    | _ -> ()
  in
  check_pairs entries
