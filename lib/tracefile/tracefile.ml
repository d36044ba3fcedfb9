exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let magic = "PINTRACE"
let current_version = 1

type finish =
  | Spawn of { cont : int; sync : int; child : int; first : bool }
  | Return of { cont_stolen : bool; parent_sync : int option }
  | Sync of { trivial : bool; sync : int }
  | Root

type entry = {
  uid : int;
  start : Events.start_kind;
  finish : finish;
  reads : Interval.t array;
  writes : Interval.t array;
  clears : (int * int) list;
  frees : (int * int) list;
  raw_reads : int;
  raw_writes : int;
  work : int;
  compute : int;
  finished_at : int;
  cost : int;
}

type t = { version : int; meta : (string * string) list; entries : entry array }

let entry_count t = Array.length t.entries

let root t =
  match Array.find_opt (fun e -> e.start = Events.S_root) t.entries with
  | Some e -> e
  | None -> error "trace has no root strand"

let find t uid =
  match Array.find_opt (fun e -> e.uid = uid) t.entries with
  | Some e -> e
  | None -> error "trace references unknown strand uid %d" uid

let meta_find t key =
  List.find_map (fun (k, v) -> if k = key then Some v else None) t.meta

let boundary_count t =
  Array.fold_left (fun acc e -> if Events.starts_trace e.start then acc + 1 else acc) 0 t.entries

let interval_totals t =
  Array.fold_left
    (fun (r, w) e -> (r + Array.length e.reads, w + Array.length e.writes))
    (0, 0) t.entries

(* ---------------------------------------------------------------- encoding *)

let start_tag = function
  | Events.S_root -> 0
  | Events.S_child -> 1
  | Events.S_cont { stolen = false } -> 2
  | Events.S_cont { stolen = true } -> 3
  | Events.S_after_sync { trivial = true } -> 4
  | Events.S_after_sync { trivial = false } -> 5

let start_of_tag = function
  | 0 -> Events.S_root
  | 1 -> Events.S_child
  | 2 -> Events.S_cont { stolen = false }
  | 3 -> Events.S_cont { stolen = true }
  | 4 -> Events.S_after_sync { trivial = true }
  | 5 -> Events.S_after_sync { trivial = false }
  | n -> error "bad start-kind tag %d" n

let bool_byte b = if b then 1 else 0

let bool_of_byte = function
  | 0 -> false
  | 1 -> true
  | n -> error "bad boolean byte %d" n

let put_intervals buf (ivs : Interval.t array) =
  Varint.write buf (Array.length ivs);
  let prev = ref 0 in
  Array.iter
    (fun (iv : Interval.t) ->
      if iv.Interval.lo < !prev then error "interval set not sorted at %d" iv.Interval.lo;
      Varint.write buf (iv.Interval.lo - !prev);
      Varint.write buf (iv.Interval.hi - iv.Interval.lo);
      prev := iv.Interval.hi)
    ivs

(* The streaming decoder parses structure before the trailing CRC can be
   verified, so every count read from the wire is bounded before it sizes
   an allocation: a corrupt length field must raise [Error], not OOM. *)
let check_count ~max what n =
  if n > max then error "corrupt trace body: implausible %s count %d" what n

let get_intervals ~max c =
  let n = Varint.read c in
  check_count ~max "interval" n;
  let prev = ref 0 in
  Array.init n (fun _ ->
      let lo = !prev + Varint.read c in
      let hi = lo + Varint.read c in
      prev := hi;
      Interval.make lo hi)

let put_ranges buf rs =
  Varint.write buf (List.length rs);
  List.iter
    (fun (b, l) ->
      Varint.write buf b;
      Varint.write buf l)
    rs

let get_ranges ~max c =
  let n = Varint.read c in
  check_count ~max "range" n;
  List.init n (fun _ ->
      let b = Varint.read c in
      let l = Varint.read c in
      (b, l))

let put_entry buf e =
  Varint.write buf e.uid;
  Buffer.add_char buf (Char.chr (start_tag e.start));
  (match e.finish with
  | Root -> Buffer.add_char buf '\000'
  | Spawn { cont; sync; child; first } ->
      Buffer.add_char buf '\001';
      Varint.write buf cont;
      Varint.write buf sync;
      Varint.write buf child;
      Buffer.add_char buf (Char.chr (bool_byte first))
  | Return { cont_stolen; parent_sync } ->
      Buffer.add_char buf '\002';
      Buffer.add_char buf (Char.chr (bool_byte cont_stolen));
      Varint.write buf (match parent_sync with None -> 0 | Some u -> u + 1)
  | Sync { trivial; sync } ->
      Buffer.add_char buf '\003';
      Buffer.add_char buf (Char.chr (bool_byte trivial));
      Varint.write buf sync);
  put_intervals buf e.reads;
  put_intervals buf e.writes;
  put_ranges buf e.clears;
  put_ranges buf e.frees;
  Varint.write buf e.raw_reads;
  Varint.write buf e.raw_writes;
  Varint.write buf e.work;
  Varint.write buf e.compute;
  Varint.write buf e.finished_at;
  Varint.write buf e.cost

let get_entry ~max c =
  let uid = Varint.read c in
  let start = start_of_tag (Varint.read_byte c) in
  let finish =
    match Varint.read_byte c with
    | 0 -> Root
    | 1 ->
        let cont = Varint.read c in
        let sync = Varint.read c in
        let child = Varint.read c in
        let first = bool_of_byte (Varint.read_byte c) in
        Spawn { cont; sync; child; first }
    | 2 ->
        let cont_stolen = bool_of_byte (Varint.read_byte c) in
        let ps = Varint.read c in
        Return { cont_stolen; parent_sync = (if ps = 0 then None else Some (ps - 1)) }
    | 3 ->
        let trivial = bool_of_byte (Varint.read_byte c) in
        let sync = Varint.read c in
        Sync { trivial; sync }
    | n -> error "bad finish-kind tag %d" n
  in
  let reads = get_intervals ~max c in
  let writes = get_intervals ~max c in
  let clears = get_ranges ~max c in
  let frees = get_ranges ~max c in
  let raw_reads = Varint.read c in
  let raw_writes = Varint.read c in
  let work = Varint.read c in
  let compute = Varint.read c in
  let finished_at = Varint.read c in
  let cost = Varint.read c in
  {
    uid;
    start;
    finish;
    reads;
    writes;
    clears;
    frees;
    raw_reads;
    raw_writes;
    work;
    compute;
    finished_at;
    cost;
  }

let to_bytes t =
  let body = Buffer.create 4096 in
  Varint.write body t.version;
  Varint.write body (List.length t.meta);
  List.iter
    (fun (k, v) ->
      Varint.write body (String.length k);
      Buffer.add_string body k;
      Varint.write body (String.length v);
      Buffer.add_string body v)
    t.meta;
  Varint.write body (Array.length t.entries);
  Array.iter (fun e -> put_entry body e) t.entries;
  let body = Buffer.contents body in
  let crc = Crc32.digest body in
  let out = Buffer.create (String.length body + 12) in
  Buffer.add_string out magic;
  Buffer.add_string out body;
  for i = 0 to 3 do
    Buffer.add_char out
      (Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical crc (8 * i)) 0xFFl)))
  done;
  Buffer.contents out

(* ---------------------------------------------------------------- decoding *)

(* Resumable streaming decoder: consumes arbitrary byte chunks, yields
   complete entries as soon as they parse, and carries all varint / CRC
   state across chunk boundaries.  The whole-file [of_bytes] below is a
   thin wrapper (one feed, one finish), so this state machine is THE
   parser for the format.

   The buffer-and-retry discipline: [pending.[off ..]] holds the bytes of
   the item currently being assembled.  Each pump attempt parses one whole
   item (the header, one entry, the CRC trailer) from a fresh cursor; if
   the bytes run out mid-item the attempt raises [Need_more] and nothing
   is consumed — the retry after the next feed re-parses from the item
   start, which is what carries a varint split across chunks.  Only a
   complete item advances [off] and folds its bytes into the running CRC.

   Entries handed out before the trailer arrives are provisional: the
   CRC-32 over the body is only checkable once every entry has been
   consumed.  [finish] (or reaching [C_done]) is the integrity verdict. *)

exception Need_more

type decoder_state =
  | C_magic (* expecting the 8 magic bytes (not CRC-covered) *)
  | C_header (* version + meta + n_entries, one atomic item *)
  | C_entries (* n_entries × entry *)
  | C_crc (* the 4-byte LE trailer *)
  | C_done

type decoder = {
  mutable pending : string; (* fed, not yet consumed (plus a consumed prefix) *)
  mutable off : int; (* consumed prefix length within [pending] *)
  mutable crc : int32; (* running register over consumed body bytes *)
  mutable state : decoder_state;
  mutable d_version : int;
  mutable d_meta : (string * string) list;
  mutable d_expected : int; (* n_entries, valid once past C_header *)
  mutable d_decoded : int;
  mutable d_fed : int; (* total bytes ever fed *)
  d_out : entry Queue.t; (* decoded, not yet taken by [next] *)
  d_max : int; (* max bytes of one unconsumed item; also the count bound *)
}

module Decoder = struct
  type t = decoder

  let default_max_pending = 16 * 1024 * 1024

  let create ?(max_pending = default_max_pending) () =
    {
      pending = "";
      off = 0;
      crc = Crc32.init;
      state = C_magic;
      d_version = 0;
      d_meta = [];
      d_expected = 0;
      d_decoded = 0;
      d_fed = 0;
      d_out = Queue.create ();
      d_max = max max_pending 16;
    }

  let available d = String.length d.pending - d.off

  (* Parse one item with the shared cursor readers.  Truncation means the
     item is split across a chunk boundary — retry after more bytes;
     anything else (varint overflow) is malformation. *)
  let item d f =
    let c = { Varint.data = d.pending; pos = d.off } in
    match f c with
    | v -> (v, c.Varint.pos - d.off)
    | exception Failure m ->
        if m = "Varint: truncated input" then raise Need_more
        else error "corrupt trace body: %s" m

  let consume d ~in_crc n =
    if in_crc then d.crc <- Crc32.update d.crc d.pending ~pos:d.off ~len:n;
    d.off <- d.off + n

  let read_header c ~max =
    let version = Varint.read c in
    if version <> current_version then
      error "unsupported trace version %d (this build reads %d)" version current_version;
    let n_meta = Varint.read c in
    check_count ~max "metadata" n_meta;
    let meta =
      List.init n_meta (fun _ ->
          let klen = Varint.read c in
          check_count ~max "metadata key byte" klen;
          let k = Varint.read_string c klen in
          let vlen = Varint.read c in
          check_count ~max "metadata value byte" vlen;
          let v = Varint.read_string c vlen in
          (k, v))
    in
    let n = Varint.read c in
    check_count ~max "entry" n;
    (version, meta, n)

  let rec pump d =
    match d.state with
    | C_magic ->
        let mlen = String.length magic in
        if available d >= mlen then begin
          if String.sub d.pending d.off mlen <> magic then
            error "bad magic (not a PINT trace file)";
          consume d ~in_crc:false mlen;
          d.state <- C_header;
          pump d
        end
    | C_header ->
        let (version, meta, n), used = item d (read_header ~max:d.d_max) in
        consume d ~in_crc:true used;
        d.d_version <- version;
        d.d_meta <- meta;
        d.d_expected <- n;
        d.state <- (if n = 0 then C_crc else C_entries);
        pump d
    | C_entries ->
        while d.d_decoded < d.d_expected do
          let e, used = item d (get_entry ~max:d.d_max) in
          consume d ~in_crc:true used;
          Queue.push e d.d_out;
          d.d_decoded <- d.d_decoded + 1
        done;
        d.state <- C_crc;
        pump d
    | C_crc ->
        if available d >= 4 then begin
          let stored =
            let b i = Int32.of_int (Char.code d.pending.[d.off + i]) in
            List.fold_left Int32.logor 0l
              [
                b 0;
                Int32.shift_left (b 1) 8;
                Int32.shift_left (b 2) 16;
                Int32.shift_left (b 3) 24;
              ]
          in
          let actual = Crc32.finalize d.crc in
          if stored <> actual then
            error "CRC mismatch (stored %08lx, computed %08lx)" stored actual;
          consume d ~in_crc:false 4;
          d.state <- C_done;
          pump d
        end
    | C_done -> if available d > 0 then error "trailing bytes after last entry"

  let feed d ?(pos = 0) ?len s =
    let len = match len with Some l -> l | None -> String.length s - pos in
    if pos < 0 || len < 0 || pos + len > String.length s then
      invalid_arg "Tracefile.Decoder.feed: bad range";
    d.d_fed <- d.d_fed + len;
    if len > 0 then begin
      (* compact: drop the consumed prefix while appending the chunk *)
      let keep = available d in
      if keep = 0 then d.pending <- String.sub s pos len
      else begin
        let b = Bytes.create (keep + len) in
        Bytes.blit_string d.pending d.off b 0 keep;
        Bytes.blit_string s pos b keep len;
        d.pending <- Bytes.unsafe_to_string b
      end;
      d.off <- 0
    end;
    (try pump d with Need_more -> ());
    if available d > d.d_max then
      error "decoder buffer overflow: one item exceeds %d pending bytes" d.d_max

  let next d = Queue.take_opt d.d_out

  let header d = if d.state = C_magic || d.state = C_header then None
    else Some (d.d_version, d.d_meta)

  let complete d = d.state = C_done

  let fed_bytes d = d.d_fed
  let entries_decoded d = d.d_decoded

  let entries_expected d =
    if d.state = C_magic || d.state = C_header then None else Some d.d_expected

  let finish d =
    if d.state <> C_done then
      error "trace truncated mid-stream (%d bytes fed, %d/%s entries decoded)" d.d_fed
        d.d_decoded
        (match entries_expected d with Some n -> string_of_int n | None -> "?")
end

let of_bytes s =
  (* the whole image is one chunk, so no single item can out-size it *)
  let d = Decoder.create ~max_pending:(String.length s) () in
  Decoder.feed d s;
  Decoder.finish d;
  let entries = Array.init d.d_decoded (fun _ -> Queue.take d.d_out) in
  { version = d.d_version; meta = d.d_meta; entries }

let write t path =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_bytes t))

let load path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_bytes s

(* ----------------------------------------------------------------- capture *)

let capturing ?(meta = []) (inner : Hooks.driver) : Hooks.driver * (unit -> t) =
  let result = ref None in
  let driver (ctx : Hooks.ctx) =
    let h = inner ctx in
    let n = ctx.Hooks.n_workers in
    (* A strand starts and finishes on one worker, which runs one strand at
       a time, so its coalescer, frees and start kind are per-worker state
       and need no lock; the shared entry list does (the parallel executor
       finishes strands on many domains). *)
    let coals = Array.init n (fun _ -> Coalescer.create ()) in
    let frees = Array.make n [] in
    let starts = Array.make n Events.S_root in
    let lock = Mutex.create () in
    let entries = ref [] in
    let sink ~wid =
      let s = h.Hooks.sink ~wid in
      let coal = coals.(wid) in
      {
        Access.on_read =
          (fun ~addr ~len ->
            Coalescer.add_read coal ~addr ~len;
            s.Access.on_read ~addr ~len);
        on_write =
          (fun ~addr ~len ->
            Coalescer.add_write coal ~addr ~len;
            s.Access.on_write ~addr ~len);
        on_free =
          (fun ~base ~len ->
            frees.(wid) <- (base, len) :: frees.(wid);
            s.Access.on_free ~base ~len);
        on_compute = (fun ~amount -> s.Access.on_compute ~amount);
      }
    in
    let on_start ~wid r kind =
      starts.(wid) <- kind;
      h.Hooks.on_start ~wid r kind
    in
    let on_finish ~wid (u : Srec.t) kind =
      let reads, writes = Coalescer.finish coals.(wid) in
      let fl = List.rev frees.(wid) in
      frees.(wid) <- [];
      let uid (r : Srec.t) = r.Srec.uid in
      let finish =
        match kind with
        | Events.F_root -> Root
        | Events.F_spawn { cont; sync; child; first_of_block } ->
            Spawn { cont = uid cont; sync = uid sync; child = uid child; first = first_of_block }
        | Events.F_return { cont_stolen; parent_sync } ->
            Return { cont_stolen; parent_sync = Option.map uid parent_sync }
        | Events.F_sync { trivial; sync } -> Sync { trivial; sync = uid sync }
      in
      let e =
        {
          uid = u.Srec.uid;
          start = starts.(wid);
          finish;
          reads;
          writes;
          clears = u.Srec.clears;
          frees = fl;
          raw_reads = u.Srec.raw_reads;
          raw_writes = u.Srec.raw_writes;
          work = u.Srec.work;
          compute = u.Srec.compute;
          finished_at = u.Srec.finished_at;
          cost = u.Srec.cost;
        }
      in
      Mutex.lock lock;
      entries := e :: !entries;
      Mutex.unlock lock;
      h.Hooks.on_finish ~wid u kind
    in
    let on_done () =
      h.Hooks.on_done ();
      let meta = meta @ [ ("n_workers", string_of_int n) ] in
      result := Some { version = current_version; meta; entries = Array.of_list (List.rev !entries) }
    in
    { Hooks.sink; on_start; on_finish; on_done }
  in
  let get () =
    match !result with
    | Some t -> t
    | None -> error "capture: the run has not completed (on_done never fired)"
  in
  (driver, get)

let capture ?meta ~path inner =
  let driver, get = capturing ?meta inner in
  fun ctx ->
    let h = driver ctx in
    {
      h with
      Hooks.on_done =
        (fun () ->
          h.Hooks.on_done ();
          write (get ()) path);
    }
