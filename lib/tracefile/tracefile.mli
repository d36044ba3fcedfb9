(** Persisted run traces: a versioned, CRC-checked binary format recording a
    run's strand DAG and per-strand access summaries, plus a capture tee that
    records from any executor.

    A trace holds one {!entry} per executed strand: its boundary kinds (with
    the strand-DAG links the executors put in {!Events.finish_kind}), its
    coalesced read/write interval sets, the stack ranges it cleared and heap
    ranges it freed, and its access and work counts.  Together these are
    exactly what the detectors consume through the {!Hooks} contract, so a
    trace can later be replayed through any detector without re-executing
    the workload (see {!Replay}).

    {2 File layout (version 2)}

    {v
      magic   "PINTRACE"                                    8 raw bytes
      body    version        varint
              meta           varint count, then per pair:
                             varint klen, klen bytes, varint vlen, vlen bytes
              n_entries      varint
              entries        per strand, in finish order:
                             uid            varint
                             start kind     1 byte
                             finish kind    1 byte tag, then its uid links
                                            (varints) and flags (bytes)
                             reads, writes  varint count, then per
                                            interval: varint lo minus the
                                            previous hi, varint hi - lo
                             clears, frees  varint count, then per range:
                                            varint base, varint len
                             raw_reads, raw_writes, work, compute
                                            varint each
      crc     CRC-32 of body                                4 bytes LE
    v}

    This build reads version 2 only: a file of any other version is
    rejected with {!Error}.

    Every integer is an unsigned LEB128 varint ({!Varint}); interval arrays
    are delta-coded against the previous bound, so the dense, sorted sets the
    coalescer emits cost ~2 bytes per interval.  The trailing CRC-32
    ({!Crc32}) covers the whole body; [load] rejects bad magic, unknown
    versions, truncation and checksum mismatches with {!Error}.

    Capture is schedule-faithful: entries appear in finish order, boundary
    flags ([stolen], [trivial]) are recorded as the executor reported them,
    and uids are the run's creation order — so a deterministic (seeded
    simulator) run captures to a byte-identical file every time.  Replay
    does not depend on entry order: it follows the uid links. *)

exception Error of string

val current_version : int

(** Why a strand ended, with record references flattened to uids.  [Spawn]
    carries the uid of the first strand of the spawned function ([child])
    too, which the replayer needs to walk the DAG depth-first. *)
type finish =
  | Spawn of { cont : int; sync : int; child : int; first : bool }
  | Return of { cont_stolen : bool; parent_sync : int option }
  | Sync of { trivial : bool; sync : int }
  | Root

type entry = {
  uid : int;  (** the run's creation-order uid *)
  start : Events.start_kind;
  finish : finish;
  reads : Interval.t array;  (** coalesced, sorted, disjoint *)
  writes : Interval.t array;
  clears : (int * int) list;  (** (base, len) stack ranges, in {!Srec.t}[.clears] order *)
  frees : (int * int) list;  (** (base, len) heap ranges, in arrival order *)
  raw_reads : int;
  raw_writes : int;
  work : int;
  compute : int;
}

type t = { version : int; meta : (string * string) list; entries : entry array }

val entry_count : t -> int

(** The entry of the computation's initial strand.
    @raise Error if the trace has no [S_root] entry. *)
val root : t -> entry

(** [find t uid].  @raise Error if absent. *)
val find : t -> int -> entry

val meta_find : t -> string -> string option

(** Strands that begin a new per-worker trace in PINT's sense (stolen
    continuations and non-trivial sync passes) — the recorded trace
    boundaries. *)
val boundary_count : t -> int

(** Totals of [(reads, writes)] intervals across all entries. *)
val interval_totals : t -> int * int

(** {2 Serialization} *)

(** [to_bytes t] — the full file image, deterministic in [t]. *)
val to_bytes : t -> string

(** [of_bytes s] — parse and verify magic, version and CRC.
    @raise Error on any malformation. *)
val of_bytes : string -> t

val write : t -> string -> unit
val load : string -> t

(** {2 Incremental decoding}

    A resumable decoder for PINTRACE streams that arrive in arbitrary
    chunks (socket reads, pipes): feed bytes as they come, take completed
    entries as they parse.  All varint, delta and CRC state is carried
    across chunk boundaries — a chunk may split anything, including the
    middle of a LEB128 byte group or the trailing checksum.  {!of_bytes}
    is a thin wrapper over this decoder, so file and stream paths share
    one parser. *)

module Decoder : sig
  type t

  (** [create ?max_pending ()] — a decoder at the start of a stream.
      [max_pending] (default 16 MiB) bounds both the bytes a single
      incomplete item may buffer and every count field read from the
      wire; exceeding it raises {!Error}.  These bounds are what keeps a
      corrupt or hostile length prefix from forcing an allocation before
      the trailing CRC can be checked. *)
  val create : ?max_pending:int -> unit -> t

  (** [feed d ?pos ?len s] consumes a chunk and decodes as far as it can.
      @raise Error on any malformation detectable so far: bad magic or
      version, varint overflow, implausible counts, buffer overflow, CRC
      mismatch once the trailer is reached, or bytes past the trailer. *)
  val feed : t -> ?pos:int -> ?len:int -> string -> unit

  (** Take the next completed entry, in stream order.  Entries yielded
      before {!complete} are provisional — the body checksum can only be
      verified once the trailer arrives. *)
  val next : t -> entry option

  (** [(version, meta)] once the header has parsed. *)
  val header : t -> (int * (string * string) list) option

  (** True once the trailer has been consumed and the CRC verified. *)
  val complete : t -> bool

  (** Declare end-of-stream.
      @raise Error unless the stream was complete ({!complete}). *)
  val finish : t -> unit

  val fed_bytes : t -> int
  val entries_decoded : t -> int
end

(** {2 Capture} *)

(** [capturing ?meta inner] wraps a detector driver with a recording tee.
    The returned driver forwards every hook to [inner] unchanged while
    independently coalescing each strand's accesses (so capture works with
    any inner detector, including the no-detection baseline) and assembling
    one {!entry} per strand.  After the run's [on_done], the second
    component returns the completed trace.
    @raise Error from the getter if the run has not completed. *)
val capturing : ?meta:(string * string) list -> Hooks.driver -> Hooks.driver * (unit -> t)

(** [capture ?meta ~path inner] — like {!capturing}, but writes the trace to
    [path] as part of the run's [on_done]. *)
val capture : ?meta:(string * string) list -> path:string -> Hooks.driver -> Hooks.driver
