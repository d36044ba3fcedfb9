(* Fixed-capacity event ring: four parallel int arrays, overwrite-oldest.
   One ring per track (pipeline stage, core worker, serial detector); the
   track's single owner is the only writer, so no synchronization is
   needed (OWNERSHIP.md).  The disabled path is one immediate bool load —
   cheap enough to leave in [@pint.hot] call sites. *)

type t = {
  clock : Clock.t;
  cap : int;
  ts : int array;
  kinds : int array;
  args : int array;
  durs : int array;
  mutable n : int; (* total events emitted; live slot = n mod cap *)
  enabled : bool;
}

let null =
  {
    clock = Clock.null;
    cap = 1;
    ts = [| 0 |];
    kinds = [| 0 |];
    args = [| 0 |];
    durs = [| 0 |];
    n = 0;
    enabled = false;
  }

let create ~clock ~capacity =
  if capacity <= 0 then invalid_arg "Evring.create: capacity must be positive";
  {
    clock;
    cap = capacity;
    ts = Array.make capacity 0;
    kinds = Array.make capacity 0;
    args = Array.make capacity 0;
    durs = Array.make capacity 0;
    n = 0;
    enabled = true;
  }

let enabled t = t.enabled
let now t = Clock.now t.clock
let is_virtual t = Clock.is_virtual t.clock

let[@pint.hot] emit_span t ~ts ~dur ~kind ~arg =
  if t.enabled then begin
    Clock.catch_up t.clock (ts + dur);
    let i = t.n mod t.cap in
    t.ts.(i) <- ts;
    t.durs.(i) <- dur;
    t.kinds.(i) <- kind;
    t.args.(i) <- arg;
    t.n <- t.n + 1
  end

let[@pint.hot] emit_at t ~ts ~kind ~arg = emit_span t ~ts ~dur:0 ~kind ~arg

let[@pint.hot] emit t ~kind ~arg =
  if t.enabled then begin
    let ts = Clock.now t.clock in
    let i = t.n mod t.cap in
    t.ts.(i) <- ts;
    t.durs.(i) <- 0;
    t.kinds.(i) <- kind;
    t.args.(i) <- arg;
    t.n <- t.n + 1
  end

let recorded t = t.n
let retained t = if t.n < t.cap then t.n else t.cap
let dropped t = t.n - retained t

(* Oldest retained event first. *)
let iter t f =
  let live = retained t in
  for k = t.n - live to t.n - 1 do
    let i = k mod t.cap in
    f ~ts:t.ts.(i) ~dur:t.durs.(i) ~kind:t.kinds.(i) ~arg:t.args.(i)
  done
