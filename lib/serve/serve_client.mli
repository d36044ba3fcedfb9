(** Blocking pint_serve client: stream one trace image over a socket and
    collect the served verdicts.  Used by the [pint_serve client] CLI, the
    bench soak group and the CI smoke job. *)

type result = {
  session : int;  (** server-assigned session id *)
  races : (Report.kind * int * int * Interval.t) list;
      (** every race batch, concatenated in arrival order *)
  predicted : (Report.kind * int * int * Interval.t) list;
      (** window-bounded predicted races from the summary (empty unless the
          session opted in via [?predict]) — disjoint from [races] *)
  n_strands : int;  (** strands the server replayed *)
  n_races : int;  (** distinct races in the server's final report *)
  stats : (string * string) list;  (** diagnostics + obs summary *)
}

val default_chunk : int

(** [run ?chunk ?shards ?predict ~addr trace_bytes] — connect, handshake,
    upload the image in [chunk]-byte Data frames (default 64 KiB; any size
    is valid — the server's decoder carries state across chunk boundaries),
    then gather races until the summary.  [shards = 0] (default) runs the
    session at one shard; the server accepts 1 up to its pool size and
    rejects larger counts.  [predict > 0] opts the session into
    predictive detection with that window (see {!Predict}); the server
    rejects windows above its configured cap.  [Error msg] carries the
    server's framed rejection (admission, out-of-range hello, malformed
    stream, corrupt DAG, failed prediction) or a transport failure.
    @raise Unix.Unix_error if the connection itself fails. *)
val run :
  ?chunk:int ->
  ?shards:int ->
  ?predict:int ->
  addr:Unix.sockaddr ->
  string ->
  (result, string) Stdlib.result

(** Deduplicated Theorem-5 keys of a served race list, for comparison
    against {!Replay.diff_races}-style signatures. *)
val signature : (Report.kind * int * int * Interval.t) list -> (Report.kind * int * int) list
