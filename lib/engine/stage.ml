type metrics = {
  mutable steps : int;
  mutable records : int;
  mutable visits : int;
  mutable idles : int;
  mutable stalls : int;
  mutable minor_words : int;
}

type t = {
  name : string;
  step : unit -> Step.t;
  cost : records:int -> visits:int -> int;
  metrics : metrics;
  (* observability: the stage's event track plus the open-stall latch;
     only the thread driving [exec] touches them (OWNERSHIP.md) *)
  mutable ring : Evring.t;
  mutable in_stall : bool;
  mutable stall_t0 : int;
}

let fresh_metrics () =
  { steps = 0; records = 0; visits = 0; idles = 0; stalls = 0; minor_words = 0 }

let make ~name ~cost step =
  {
    name;
    step;
    cost;
    metrics = fresh_metrics ();
    ring = Evring.null;
    in_stall = false;
    stall_t0 = 0;
  }

let name t = t.name
let cost t ~records ~visits = t.cost ~records ~visits
let metrics t = t.metrics
let set_ring t ring = t.ring <- ring

let reset_metrics t =
  let m = t.metrics in
  m.steps <- 0;
  m.records <- 0;
  m.visits <- 0;
  m.idles <- 0;
  m.stalls <- 0;
  m.minor_words <- 0;
  t.in_stall <- false;
  t.stall_t0 <- 0

(* Consecutive `Stalled steps collapse into one span, closed by the first
   non-stalled step at its pre-step timestamp. *)
let close_stall t now =
  if t.in_stall then begin
    t.in_stall <- false;
    Evring.emit_span t.ring ~ts:t.stall_t0 ~dur:(now - t.stall_t0) ~kind:Ev.stall ~arg:0
  end

let exec t =
  let tracing = Evring.enabled t.ring in
  let t0 = if tracing then Evring.now t.ring else 0 in
  (* [Gc.minor_words] counts the calling domain's allocation only, so the
     difference is this step's own, whichever domain drives the stage *)
  let w0 = Gc.minor_words () in
  let st = t.step () in
  let m = t.metrics in
  m.minor_words <- m.minor_words + int_of_float (Gc.minor_words () -. w0);
  (match st with
  | `Worked o ->
      m.steps <- m.steps + 1;
      m.records <- m.records + o.Step.records;
      m.visits <- m.visits + o.Step.visits;
      if tracing then begin
        close_stall t t0;
        (* under a virtual clock the span's width is the scheduler's own
           price for the step — exactly what Sim_exec adds to s_clock —
           so trace spans and simulated time agree by construction *)
        let dur =
          if Evring.is_virtual t.ring then t.cost ~records:o.Step.records ~visits:o.Step.visits
          else Evring.now t.ring - t0
        in
        Evring.emit_span t.ring ~ts:t0 ~dur ~kind:Ev.treap_op ~arg:o.Step.visits
      end
  | `Idle ->
      m.idles <- m.idles + 1;
      if tracing then close_stall t t0
  | `Stalled ->
      m.stalls <- m.stalls + 1;
      if tracing && not t.in_stall then begin
        t.in_stall <- true;
        t.stall_t0 <- t0
      end
  | `Done -> if tracing then close_stall t t0);
  st

let diagnostics t =
  let m = t.metrics in
  let key suffix = Printf.sprintf "stage.%s.%s" t.name suffix in
  [
    (key "steps", float_of_int m.steps);
    (key "records", float_of_int m.records);
    (key "visits", float_of_int m.visits);
    (key "idle", float_of_int m.idles);
    (key "stalls", float_of_int m.stalls);
    (key "minor_words", float_of_int m.minor_words);
  ]
