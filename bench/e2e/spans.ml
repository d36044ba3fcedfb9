(* Bench-side tracing: spans recorded around calls into each layer, kept in
   memory and written out when the benchmark ends.

   A span is (name, start, end, parent, run id) on bechamel's nanosecond
   monotonic clock.  Coarse spans (one per phase of an operation) are always
   kept; leaf spans (one per hook, sink call, strand or stage step) are
   always accounted but only the first [keep_leaves] are kept for the Chrome
   trace, so a 100k-strand run cannot exhaust memory.  Accounting is by
   name: per name, the total duration of its spans and the part of it their
   child spans cover, which is what self times are made of.

   Every domain records into its own buffer, so recording never
   synchronises.  Buffers are read only after every recording domain has
   been joined.  Nothing is recorded unless [enable] was called: an
   untraced run pays one bool load per [with_span]. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* A span name, interned: an index into every domain's totals.  Intern
   names once, outside the code being timed. *)
type name = int

let names = Hashtbl.create 64
let names_lock = Mutex.create ()

let name s =
  Mutex.protect names_lock (fun () ->
      match Hashtbl.find_opt names s with
      | Some n -> n
      | None ->
          let n = Hashtbl.length names in
          Hashtbl.add names s n;
          n)

(* Every interned name, indexed by its [name]. *)
let name_strings () =
  Mutex.protect names_lock (fun () ->
      let a = Array.make (Hashtbl.length names) "" in
      Hashtbl.iter (fun s n -> a.(n) <- s) names;
      a)

type span = {
  id : int;
  sname : name;
  track : string;  (** Chrome-trace thread the span is drawn on *)
  t0 : int;
  t1 : int;
  parent : int;  (** enclosing span's id, -1 for none *)
  run : int;
}

(* A recorded or open span, as a parent of others. *)
type node = { nid : int; nname : name }

let root = { nid = -1; nname = -1 }

type buf = {
  dom : int;
  track : string;  (** this domain's Chrome-trace thread *)
  mutable seq : int;
  mutable stack : (node * int) list;  (** open spans and their starts, innermost first *)
  mutable kept : span list;
  mutable calls : int array;  (** per name: spans recorded *)
  mutable total : int array;  (** per name: their total duration *)
  mutable covered : int array;  (** per name: what their child spans cover *)
}

let on = ref false
let run_id = Atomic.make 0
let keep_leaves = 50_000
let leaves_kept = Atomic.make 0
let bufs = ref []
let bufs_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          dom = (Domain.self () :> int);
          track = Printf.sprintf "domain%d" (Domain.self () :> int);
          seq = 0;
          stack = [];
          kept = [];
          calls = [||];
          total = [||];
          covered = [||];
        }
      in
      Mutex.protect bufs_lock (fun () -> bufs := b :: !bufs);
      b)

let enable () = on := true
let disable () = on := false
let enabled () = !on
let set_run r = Atomic.set run_id r

let fresh_id b =
  b.seq <- b.seq + 1;
  (b.dom lsl 40) lor b.seq

let grow b n =
  let len = max (n + 1) (2 * Array.length b.total) in
  let ext a = Array.append a (Array.make (len - Array.length a) 0) in
  b.calls <- ext b.calls;
  b.total <- ext b.total;
  b.covered <- ext b.covered

let account b ~name ~parent dur =
  if name >= Array.length b.total || parent.nname >= Array.length b.total then
    grow b (max name parent.nname);
  b.calls.(name) <- b.calls.(name) + 1;
  b.total.(name) <- b.total.(name) + dur;
  if parent.nid >= 0 then b.covered.(parent.nname) <- b.covered.(parent.nname) + dur

let span ~id ~track name ~parent t0 t1 =
  { id; sname = name; track; t0; t1; parent; run = Atomic.get run_id }

(* Whether the process-wide cap still allows keeping a leaf span for the
   Chrome trace (and if so, take one).  Once the cap is reached this is a
   plain load, so domains recording leaves do not contend on the counter. *)
let room () =
  Atomic.get leaves_kept < keep_leaves && Atomic.fetch_and_add leaves_kept 1 < keep_leaves

(* [record name ~parent t0 t1] — a coarse span whose bounds were taken
   elsewhere (client-side session phases, the root strand's finish). *)
let record ?track name ~parent t0 t1 =
  let b = Domain.DLS.get key in
  let id = fresh_id b in
  let track = match track with Some t -> t | None -> b.track in
  account b ~name ~parent (t1 - t0);
  b.kept <- span ~id ~track name ~parent:parent.nid t0 t1 :: b.kept;
  { nid = id; nname = name }

let current b = match b.stack with (p, _) :: _ -> p | [] -> root

(* Open a span on this domain now; spans opened later on this domain, and
   leaves recorded on it, become its children until [leave]. *)
let enter name =
  let b = Domain.DLS.get key in
  let n = { nid = fresh_id b; nname = name } in
  b.stack <- (n, now ()) :: b.stack;
  n

(* Close the innermost open span of this domain, at [at] or now.  With
   [~leaf:true] it is kept only while the leaf cap allows. *)
let leave ?at ?(leaf = false) n =
  let t1 = match at with Some t -> t | None -> now () in
  let b = Domain.DLS.get key in
  let t0 =
    match b.stack with
    | (top, t0) :: rest when top.nid = n.nid ->
        b.stack <- rest;
        t0
    | _ -> invalid_arg "Spans.leave: not the innermost open span"
  in
  let parent = current b in
  account b ~name:n.nname ~parent (t1 - t0);
  if (not leaf) || room () then
    b.kept <- span ~id:n.nid ~track:b.track n.nname ~parent:parent.nid t0 t1 :: b.kept

let with_span name f =
  if not !on then f ()
  else begin
    let s = enter name in
    match f () with
    | v ->
        leave s;
        v
    | exception e ->
        leave s;
        raise e
  end

(* A leaf: accounted under [name] and charged to the innermost open span of
   this domain.  Pass [~keep:false] for leaves drawn by the caller in
   coalesced form. *)
let leaf ?(keep = true) name t0 t1 =
  let b = Domain.DLS.get key in
  let parent = current b in
  account b ~name ~parent (t1 - t0);
  if keep && room () then
    b.kept <- span ~id:(fresh_id b) ~track:b.track name ~parent:parent.nid t0 t1 :: b.kept

(* Draw-only span: kept for the Chrome trace (subject to the leaf cap) but
   not accounted — its time was already accounted leaf by leaf. *)
let draw ~track name t0 t1 =
  if room () then begin
    let b = Domain.DLS.get key in
    b.kept <- span ~id:(fresh_id b) ~track name ~parent:(-1) t0 t1 :: b.kept
  end

let all_bufs () = Mutex.protect bufs_lock (fun () -> !bufs)

(* Per-name totals over every domain: (name, calls, total ns, self ns).  A
   span's self time is its duration minus what its children cover. *)
let table () =
  let n = Mutex.protect names_lock (fun () -> Hashtbl.length names) in
  let calls = Array.make n 0 and total = Array.make n 0 and covered = Array.make n 0 in
  List.iter
    (fun b ->
      let add into a = Array.iteri (fun i v -> if i < n then into.(i) <- into.(i) + v) a in
      add calls b.calls;
      add total b.total;
      add covered b.covered)
    (all_bufs ());
  Mutex.protect names_lock (fun () ->
      Hashtbl.fold
        (fun s i acc ->
          if calls.(i) = 0 then acc else (s, calls.(i), total.(i), total.(i) - covered.(i)) :: acc)
        names [])
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON (loads in Perfetto and chrome://tracing): every
   kept span as a complete ("X") event in microseconds from the first span,
   one thread per track. *)
let write_chrome ~meta path =
  let spans = List.concat_map (fun b -> b.kept) (all_bufs ()) in
  let spans = List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) spans in
  let origin = match spans with s :: _ -> s.t0 | [] -> 0 in
  let names = name_strings () in
  let tids = Hashtbl.create 16 in
  let tid track =
    match Hashtbl.find_opt tids track with
    | Some t -> t
    | None ->
        let t = Hashtbl.length tids + 1 in
        Hashtbl.add tids track t;
        t
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          Printf.fprintf oc
            "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"run\":%d,\"id\":%d,\"parent\":%d}}"
            (json_string names.(s.sname)) (tid s.track)
            (float_of_int (s.t0 - origin) /. 1e3)
            (float_of_int (s.t1 - s.t0) /. 1e3)
            s.run s.id s.parent)
        spans;
      Hashtbl.iter
        (fun track t ->
          Printf.fprintf oc
            ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%s}}" t
            (json_string track))
        tids;
      output_string oc "],\n\"otherData\":{";
      let dropped = max 0 (Atomic.get leaves_kept - keep_leaves) in
      let meta = meta @ [ ("leaf_spans_not_kept", string_of_int dropped) ] in
      List.iteri
        (fun i (k, v) ->
          Printf.fprintf oc "%s%s:%s" (if i > 0 then "," else "") (json_string k) (json_string v))
        meta;
      output_string oc "}}\n")
