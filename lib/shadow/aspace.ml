type frame = { base : int; words : int; mutable live : bool }

type stack = { region_base : int; region_words : int; frames : frame Vec.t; mutable sp : int }

(* Free and allocated heap blocks; [free] kept sorted by base for first-fit
   with coalescing, [allocated] indexed by base for liveness checks. *)
type heap = {
  mutable free : (int * int) list; (* (base, len), sorted by base, coalesced *)
  allocated : (int, int) Hashtbl.t; (* base -> len *)
  pending : (int, int) Hashtbl.t; (* base -> extra reserved lifetimes, see [reserve] *)
  mutable brk : int;
  mutable live_words : int;
}

type t = { stacks : stack array; heap : heap; lock : Mutex.t }

let max_workers = 64
let stack_words = 1 lsl 20
let heap_base = max_workers * stack_words

let create () =
  let stacks =
    Array.init max_workers (fun w ->
        {
          region_base = w * stack_words;
          region_words = stack_words;
          frames = Vec.create { base = 0; words = 0; live = false };
          sp = 0;
        })
  in
  {
    stacks;
    heap =
      {
        free = [];
        allocated = Hashtbl.create 256;
        pending = Hashtbl.create 8;
        brk = heap_base;
        live_words = 0;
      };
    lock = Mutex.create ();
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ------------------------------------------------------------------ heap *)

let heap_alloc t words =
  if words <= 0 then invalid_arg "Aspace.heap_alloc: words must be positive";
  with_lock t (fun () ->
      let h = t.heap in
      (* first fit *)
      let rec take acc = function
        | [] ->
            let base = h.brk in
            h.brk <- h.brk + words;
            (base, List.rev acc)
        | (b, l) :: rest when l >= words ->
            let remainder = if l = words then [] else [ (b + words, l - words) ] in
            (b, List.rev_append acc (remainder @ rest))
        | blk :: rest -> take (blk :: acc) rest
      in
      let base, free = take [] h.free in
      h.free <- free;
      Hashtbl.replace h.allocated base words;
      h.live_words <- h.live_words + words;
      base)

let heap_free t ~base ~len =
  with_lock t (fun () ->
      let h = t.heap in
      (match Hashtbl.find_opt h.allocated base with
      | Some l when l <> len ->
          failwith (Printf.sprintf "Aspace.heap_free: block %d has length %d, not %d" base l len)
      | Some _ -> ()
      | None -> failwith (Printf.sprintf "Aspace.heap_free: no live block at %d" base));
      match Hashtbl.find_opt h.pending base with
      | Some n ->
          (* a nested reserved lifetime: this free closes the oldest one; the
             block stays live for the lifetime(s) reserved on top of it *)
          if n = 1 then Hashtbl.remove h.pending base else Hashtbl.replace h.pending base (n - 1)
      | None ->
      Hashtbl.remove h.allocated base;
      h.live_words <- h.live_words - len;
      (* insert sorted, then coalesce adjacent blocks *)
      let rec insert = function
        | [] -> [ (base, len) ]
        | (b, l) :: rest ->
            if base + len <= b then (base, len) :: (b, l) :: rest
            else if b + l <= base then (b, l) :: insert rest
            else failwith "Aspace.heap_free: double free / overlap"
      in
      let rec coalesce = function
        | (b1, l1) :: (b2, l2) :: rest when b1 + l1 = b2 -> coalesce ((b1, l1 + l2) :: rest)
        | blk :: rest -> blk :: coalesce rest
        | [] -> []
      in
      h.free <- coalesce (insert h.free))

let reserve t ~base ~len =
  if len <= 0 then invalid_arg "Aspace.reserve: len must be positive";
  with_lock t (fun () ->
      let h = t.heap in
      match Hashtbl.find_opt h.allocated base with
      | Some l when l = len ->
          (* Already live with the same extent: a replayed trace can record
             two lifetimes of one base back-to-back (the capture run recycled
             eagerly) while the consumer frees lazily (PINT's delayed
             recycling processes both frees later, §III-F).  Count the extra
             lifetime so the matching number of [heap_free]s succeeds. *)
          Hashtbl.replace h.pending base
            (1 + Option.value ~default:0 (Hashtbl.find_opt h.pending base))
      | Some l ->
          invalid_arg
            (Printf.sprintf "Aspace.reserve: block at %d is live with length %d, not %d" base l len)
      | None ->
          (* carve [base, base+len) out of the free list; anything in the
             range that is neither free nor allocated is virgin territory *)
          let rec carve = function
            | [] -> []
            | (b, l) :: rest ->
                let lo = max b base and hi = min (b + l) (base + len) in
                if lo >= hi then (b, l) :: carve rest
                else
                  (* keep the sorted order: left remainder before right *)
                  let keep =
                    (if b < base then [ (b, base - b) ] else [])
                    @ if b + l > base + len then [ (base + len, b + l - (base + len)) ] else []
                  in
                  keep @ carve rest
          in
          h.free <- carve h.free;
          if base + len > h.brk then h.brk <- base + len;
          Hashtbl.replace h.allocated base len;
          h.live_words <- h.live_words + len)

let heap_live_words t = with_lock t (fun () -> t.heap.live_words)

let heap_block_live t ~base ~len =
  with_lock t (fun () -> Hashtbl.find_opt t.heap.allocated base = Some len)

(* ---------------------------------------------------------------- stacks *)

let stack t worker =
  if worker < 0 || worker >= max_workers then invalid_arg "Aspace: bad worker id";
  t.stacks.(worker)

let frame_push t ~worker ~words =
  if words <= 0 then invalid_arg "Aspace.frame_push: words must be positive";
  let s = stack t worker in
  if s.sp + words > s.region_words then
    failwith (Printf.sprintf "Aspace: stack overflow on worker %d" worker);
  let base = s.region_base + s.sp in
  Vec.push s.frames { base; words; live = true };
  s.sp <- s.sp + words;
  base

let frame_pop t ~worker ~base =
  let s = stack t worker in
  let found = ref false in
  Vec.iter (fun f -> if f.base = base && f.live then (f.live <- false; found := true)) s.frames;
  if not !found then
    failwith (Printf.sprintf "Aspace.frame_pop: no live frame at %d on worker %d" base worker);
  (* lazy reclaim of the dead suffix *)
  let rec reclaim () =
    if not (Vec.is_empty s.frames) && not (Vec.peek s.frames).live then begin
      let f = Vec.pop s.frames in
      s.sp <- s.sp - f.words;
      reclaim ()
    end
  in
  reclaim ()

let stack_used t ~worker = (stack t worker).sp
let is_stack_addr _ addr = addr >= 0 && addr < heap_base
