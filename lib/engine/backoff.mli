(** Exponential idle backoff for every spinning loop in the system.

    [relax n] — where [n] is the number of consecutive unproductive rounds
    the caller has seen — spins [min (2^n) 256] times on
    [Domain.cpu_relax] while the wait is young, then from {!yield_round}
    on parks in a short sleep so that on oversubscribed hosts the waiting
    domain yields its core to whichever domain it is waiting for.
    Replaces bare [Domain.cpu_relax] spinning everywhere (stage drive
    loops, micropools, idle core workers, the backpressured access-history
    queue producer). *)

val relax : int -> unit

(** First round at which {!relax} parks in a sleep instead of spinning. *)
val yield_round : int
