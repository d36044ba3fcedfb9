exception Proto_error of string

let proto_error fmt = Printf.ksprintf (fun s -> raise (Proto_error s)) fmt

let protocol_version = 2
let max_frame = 1 lsl 20

type client_msg =
  | Hello of { version : int; shards : int; predict : int }
  | Data of string
  | End

type server_msg =
  | Accepted of { session : int }
  | Races of (Report.kind * int * int * Interval.t) list
  | Summary of {
      n_strands : int;
      n_races : int;
      stats : (string * string) list;
      predicted : (Report.kind * int * int * Interval.t) list;
    }
  | Reject of string

(* ---------------------------------------------------------------- framing *)

(* Every frame is a 4-byte LE length N followed by N payload bytes; the
   first payload byte is the message tag.  The length covers the payload
   only.  LE matches the trace trailer's byte order. *)

let frame payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set b 0 (Char.chr (n land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 3 (Char.chr ((n lsr 24) land 0xff));
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

(* Reassembler for the reading side: feed raw socket bytes, take complete
   payloads.  One per connection; single-owner (the connection's reader). *)
module Frames = struct
  type t = {
    mutable buf : string; (* unparsed bytes (plus a consumed prefix) *)
    mutable off : int;
  }

  let create () = { buf = ""; off = 0 }

  let available t = String.length t.buf - t.off

  let feed t ?(pos = 0) ?len s =
    let len = match len with Some l -> l | None -> String.length s - pos in
    if pos < 0 || len < 0 || pos + len > String.length s then
      invalid_arg "Serve_proto.Frames.feed: bad range";
    if len > 0 then begin
      let keep = available t in
      if keep = 0 then t.buf <- String.sub s pos len
      else begin
        let b = Bytes.create (keep + len) in
        Bytes.blit_string t.buf t.off b 0 keep;
        Bytes.blit_string s pos b keep len;
        t.buf <- Bytes.unsafe_to_string b
      end;
      t.off <- 0
    end

  let next t =
    if available t < 4 then None
    else begin
      let b i = Char.code t.buf.[t.off + i] in
      let n = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
      if n > max_frame then proto_error "frame of %d bytes exceeds the %d limit" n max_frame;
      if available t < 4 + n then None
      else begin
        let payload = String.sub t.buf (t.off + 4) n in
        t.off <- t.off + 4 + n;
        if available t = 0 then begin
          t.buf <- "";
          t.off <- 0
        end;
        Some payload
      end
    end
end

(* --------------------------------------------------------------- messages *)

let kind_tag = function
  | Report.Write_write -> 0
  | Report.Write_read -> 1
  | Report.Read_write -> 2

let kind_of_tag = function
  | 0 -> Report.Write_write
  | 1 -> Report.Write_read
  | 2 -> Report.Read_write
  | n -> proto_error "bad race-kind tag %d" n

let with_tag tag body =
  let buf = Buffer.create (String.length body + 1) in
  Buffer.add_char buf tag;
  Buffer.add_string buf body;
  frame (Buffer.contents buf)

let varints ints =
  let buf = Buffer.create 16 in
  List.iter (Varint.write buf) ints;
  Buffer.contents buf

(* One race list on the wire: count, then per race a kind byte and
   prior/current/lo/width varints — shared by ['R'] frames and the
   Summary's predicted block. *)
let write_races buf rs =
  Varint.write buf (List.length rs);
  List.iter
    (fun (kind, prior, current, (iv : Interval.t)) ->
      Buffer.add_char buf (Char.chr (kind_tag kind));
      Varint.write buf prior;
      Varint.write buf current;
      Varint.write buf iv.Interval.lo;
      Varint.write buf (iv.Interval.hi - iv.Interval.lo))
    rs

let read_races c =
  let n = Varint.read c in
  List.init n (fun _ ->
      let kind = kind_of_tag (Varint.read_byte c) in
      let prior = Varint.read c in
      let current = Varint.read c in
      let lo = Varint.read c in
      let hi = lo + Varint.read c in
      (kind, prior, current, Interval.make lo hi))

let encode_client = function
  | Hello { version; shards; predict } -> with_tag 'H' (varints [ version; shards; predict ])
  | Data chunk -> with_tag 'D' chunk
  | End -> with_tag 'E' ""

let encode_server = function
  | Accepted { session } -> with_tag 'A' (varints [ session ])
  | Races rs ->
      let buf = Buffer.create 64 in
      write_races buf rs;
      with_tag 'R' (Buffer.contents buf)
  | Summary { n_strands; n_races; stats; predicted } ->
      let buf = Buffer.create 256 in
      Varint.write buf n_strands;
      Varint.write buf n_races;
      Varint.write buf (List.length stats);
      List.iter
        (fun (k, v) ->
          Varint.write buf (String.length k);
          Buffer.add_string buf k;
          Varint.write buf (String.length v);
          Buffer.add_string buf v)
        stats;
      write_races buf predicted;
      with_tag 'S' (Buffer.contents buf)
  | Reject msg -> with_tag 'X' msg

let payload_cursor payload =
  if payload = "" then proto_error "empty frame";
  (payload.[0], { Varint.data = payload; pos = 1 })

let wrap f = try f () with Failure m -> proto_error "corrupt frame: %s" m

(* A fixed-layout frame ends where its last field does. *)
let whole tag c msg =
  if not (Varint.at_end c) then proto_error "bytes left over in %C frame" tag;
  msg

let decode_client payload =
  let tag, c = payload_cursor payload in
  wrap (fun () ->
      match tag with
      | 'H' ->
          let version = Varint.read c in
          let shards = Varint.read c in
          let predict = Varint.read c in
          whole tag c (Hello { version; shards; predict })
      | 'D' -> Data (String.sub payload 1 (String.length payload - 1))
      | 'E' -> whole tag c End
      | t -> proto_error "unknown client message tag %C" t)

let decode_server payload =
  let tag, c = payload_cursor payload in
  wrap (fun () ->
      match tag with
      | 'A' ->
          let session = Varint.read c in
          whole tag c (Accepted { session })
      | 'R' ->
          let races = read_races c in
          whole tag c (Races races)
      | 'S' ->
          let n_strands = Varint.read c in
          let n_races = Varint.read c in
          let n = Varint.read c in
          let stats =
            List.init n (fun _ ->
                let k = Varint.read_string c (Varint.read c) in
                let v = Varint.read_string c (Varint.read c) in
                (k, v))
          in
          let predicted = read_races c in
          whole tag c (Summary { n_strands; n_races; stats; predicted })
      | 'X' -> Reject (String.sub payload 1 (String.length payload - 1))
      | t -> proto_error "unknown server message tag %C" t)
