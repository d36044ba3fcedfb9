(** Strand-boundary event descriptions passed from executors to detectors. *)

(** Why a strand begins. *)
type start_kind =
  | S_root  (** the computation's initial strand *)
  | S_child  (** first strand of a spawned function *)
  | S_cont of { stolen : bool }  (** continuation of a spawn *)
  | S_after_sync of { trivial : bool }  (** the sync-node strand, after passing a sync *)

(** Why a strand ends.  The record references let detectors perform
    Algorithm 1's bookkeeping without owning scheduler state. *)
type finish_kind =
  | F_spawn of { cont : Srec.t; sync : Srec.t; child : Srec.t; first_of_block : bool }
      (** the strand is a {e spawn node}; [cont]/[sync]/[child] are the
          records for the continuation strand, the enclosing block's sync
          node ([sync] freshly created iff [first_of_block]) and the
          spawned function's first strand *)
  | F_return of { cont_stolen : bool; parent_sync : Srec.t option }
      (** the strand is the {e return node} of a spawned function;
          [cont_stolen] says whether the continuation of the spawn that
          created this function was stolen; [parent_sync] is that spawn's
          block sync record *)
  | F_sync of { trivial : bool; sync : Srec.t }
      (** the strand leads into a sync with at least one spawn in its block
          (a no-spawn sync is not a strand boundary at all) *)
  | F_root  (** final strand of the computation *)

(** A strand that starts this way begins a new per-worker trace in PINT's
    sense: a stolen continuation, or the strand after a non-trivial sync. *)
val starts_trace : start_kind -> bool
