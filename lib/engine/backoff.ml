(* Exponential idle backoff shared by every spinning loop in the system
   (stage drive loops, micropool domains, idle core workers, the
   access-history queue's producer waiting out backpressure).

   Rounds 0..7 spin-wait with a doubling number of [Domain.cpu_relax]
   pauses — cheap, keeps the latency of an imminent wakeup minimal.  From
   [yield_round] on, the waiter parks in a short [Unix.sleepf] instead:
   past that point the waited-for event is clearly not imminent, and on an
   oversubscribed host (more domains than cores — the common case once
   shard micropools multiply the domain count) burning a whole scheduler
   timeslice in pause instructions starves the very domain being waited
   on.  The sleep yields the core to it. *)

let max_spins = 256
let yield_round = 10
let park_s = 50e-6

let relax round =
  if round >= yield_round then Unix.sleepf park_s
  else begin
    let spins = if round >= 8 then max_spins else 1 lsl round in
    for _ = 1 to spins do
      Domain.cpu_relax ()
    done
  end
