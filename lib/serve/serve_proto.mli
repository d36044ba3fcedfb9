(** The pint_serve wire protocol: length-prefix framing and message codecs.

    {2 Framing}

    Every message travels as one frame: a 4-byte little-endian payload
    length, then the payload, whose first byte is the message tag.  A
    {!Frames.t} reassembles frames from arbitrary socket-read chunks (the
    transport analogue of {!Tracefile.Decoder}).

    {2 Messages}

    Client → server: ['H'] hello (protocol version, requested shard count
    (0 = one shard), prediction window (0 = off)), ['D'] data (one raw
    PINTRACE chunk — chunking is transport-level; the server's trace
    decoder carries state across chunk boundaries, so any split is legal),
    ['E'] end of stream.

    Server → client: ['A'] session accepted (session id), ['R'] newly
    found races (Theorem-5 keys plus one witness interval each), ['S']
    final summary (strand/race counts, diagnostic and obs key-values, then
    the predicted races in the ['R'] layout — an empty list unless the
    session asked for prediction), ['X'] rejection/error (admission
    refusal, out-of-range hello field, malformed stream, corrupt DAG,
    failed prediction).

    There is one protocol version, {!protocol_version}: every field of a
    frame is required, and ['H'], ['E'], ['A'], ['R'] and ['S'] frames
    with bytes left over after their last field are malformed.  The
    daemon rejects a hello of any other version with an ['X'] frame. *)

exception Proto_error of string

val protocol_version : int

type client_msg =
  | Hello of { version : int; shards : int; predict : int }
      (** [predict] — requested prediction window [w] for this session
          (see {!Predict}); 0 disables predictive detection *)
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
          (** predicted races for predict sessions (empty otherwise) —
              disjoint from every ['R']-frame observed race *)
    }
  | Reject of string

(** [frame payload] — prepend the length prefix. *)
val frame : string -> string

(** Reassemble frames from a byte stream.  Single-owner: one per
    connection, fed only by that connection's reader. *)
module Frames : sig
  type t

  (** A reassembler that rejects frames with a payload over 1 MiB: a peer
      announcing more is malformed, not a reason to buffer without
      bound. *)
  val create : unit -> t

  (** Append raw socket bytes. *)
  val feed : t -> ?pos:int -> ?len:int -> string -> unit

  (** Next complete payload, if one has fully arrived.
      @raise Proto_error on an over-limit announced length. *)
  val next : t -> string option
end

(** Encoders return complete frames (length prefix included); decoders
    take one payload as returned by {!Frames.next}.
    @raise Proto_error on malformed payloads. *)

val encode_client : client_msg -> string
val encode_server : server_msg -> string
val decode_client : string -> client_msg
val decode_server : string -> server_msg
