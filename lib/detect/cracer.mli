(** C-RACER-style detector (Utterback et al., SPAA'16): WSP-Order
    reachability with a conventional hashmap access history.

    Each memory word carries a shadow cell (last writer, left-most reader,
    right-most reader) that is queried and updated {e at every access} —
    bulk operations count as one access per word, matching what compiled
    per-load/store instrumentation would produce.  The shadow map is a
    sharded hash table with per-shard locks so the detector also runs under
    the real multi-domain executor. *)

(** [obs]: with a live session, each strand's shadow-map processing is
    emitted as a span on the finishing worker's ["cracer<w>"] track
    (span arg = coalesced interval count). *)
val make : ?obs:Obs.t -> unit -> Detector.t
