(* Host-speed calibration.

   The hosts this benchmark runs on are shared: their speed drifts by tens
   of percent over seconds to minutes, moving every wall time of a run
   together, so run-to-run medians of raw wall time scatter far more than
   any change worth detecting.  A fixed reference kernel, built from the
   standard library alone so that no change to this repository can alter
   it, is timed right before each measured operation, and the operation's
   time is reported scaled to the kernel's nominal time:

     time = wall * nominal / kernel

   On an undisturbed host the two agree; when the host slows down, the
   operation and the kernel slow down together and the scaled time holds.
   An operation that keeps several threads busy (the serve daemon) is
   calibrated with the kernel running on that many domains at once, which
   also feels a slow second core.  Raw wall times are kept beside the
   scaled ones in result files. *)

(* The kernel's time on one domain on an undisturbed 2-core x86-64 host
   (Intel Xeon, OCaml 5.1.1), and how much longer it takes on two domains
   at once there (the minor collections of the two synchronise). *)
let nominal_ns = 54_000_000
let parallel_factor = 1.22

let kernel () =
  let st = Random.State.make [| 2022 |] in
  let h = Hashtbl.create 16 in
  for i = 0 to 100_000 do
    Hashtbl.replace h (Random.State.int st 1_000_000) i
  done;
  let a = Array.init 100_000 (fun _ -> Random.State.float st 1.) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (h, a))

(* One timed run of the kernel on [domains] domains at once, in ns. *)
let measure ?(domains = 1) () =
  Gc.compact ();
  let t0 = Spans.now () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn kernel) in
  kernel ();
  List.iter Domain.join others;
  Spans.now () - t0

(* [scaled ?domains ~kernel wall] — a wall time in ns, scaled to seconds
   at nominal host speed by a kernel time measured on [domains] domains. *)
let scaled ?(domains = 1) ~kernel wall =
  let nominal = float_of_int nominal_ns *. if domains = 1 then 1. else parallel_factor in
  float_of_int wall *. nominal /. float_of_int kernel /. 1e9
