open Effect
open Effect.Deep

type _ Effect.t += E_spawn : (unit -> unit) -> unit Effect.t
type _ Effect.t += E_sync : unit Effect.t

type status = Finished | Spawned of (unit -> unit) * kont | Synced of kont
and kont = (unit, status) continuation

let run (g : unit -> unit) : status =
  match_with g ()
    {
      retc = (fun () -> Finished);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | E_spawn f -> Some (fun (k : (a, status) continuation) -> Spawned (f, k))
          | E_sync -> Some (fun (k : (a, status) continuation) -> Synced k)
          | _ -> None);
    }

let resume k = continue k ()

(* The fiber dies at its suspension point; nothing of it escapes. *)
let discard k = match discontinue k Exit with _ -> () | exception Exit -> ()

let spawn f = perform (E_spawn f)
let sync () = perform E_sync
