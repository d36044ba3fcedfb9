type engine = {
  e_spawn : (unit -> unit) -> unit;
  e_sync : unit -> unit;
  e_scope : (unit -> unit) -> unit;
  e_with_frame : words:int -> (Membuf.f -> unit) -> unit;
  e_space : Aspace.t;
}

let key : engine option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let install e = Domain.DLS.get key := Some e
let uninstall () = Domain.DLS.get key := None

let engine () =
  match !(Domain.DLS.get key) with
  | Some e -> e
  | None -> failwith "Fj: no executor is running on this domain"

let spawn f = (engine ()).e_spawn f
let sync () = (engine ()).e_sync ()
let scope f = (engine ()).e_scope f
let with_frame ~words k = (engine ()).e_with_frame ~words k
let space () = (engine ()).e_space

let alloc_f n = Membuf.alloc_f (space ()) n
let free_f b = Membuf.free_f b
