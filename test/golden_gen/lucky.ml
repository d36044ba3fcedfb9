(* The "lucky interleaving" golden trace: a racy write/write pair that every
   observed-schedule detector misses and only prediction finds.

   Three children of one sync block: A fills a heap buffer, F frees it, B
   fills it again.  The sequential capture runs them in spawn order, so by
   the time B's writes reach the access history, F's free has already wiped
   A's writes from it — STINT, C-RACER and PINT all (correctly, per the
   observed schedule) report nothing.  But F is logically parallel to both
   A and B: a schedule that runs B before F sees A's and B's writes
   side by side.  The A-B pair is exactly the free-hidden short race the
   predictor exists for: parallel, conflicting, serialized only by where
   the observed schedule happened to place F.

   Entry (finish) order is r0, A, c1, F, c2, B, c3, s — positions 0..7 —
   so A and B sit 4 slots apart: predictable from window 2 on
   (displacement bound 2w+1 >= 4, e.g. r0 c1 c2 A B F c3 s, max move 2),
   invisible at windows 0 and 1. *)

let words = 8

let program () =
  let buf = Fj.alloc_f words in
  Fj.spawn (fun () -> Membuf.fill_f buf 0 words 1.0);
  Fj.spawn (fun () -> Fj.free_f buf);
  Fj.spawn (fun () -> Membuf.fill_f buf 0 words 2.0);
  Fj.sync ()

let meta =
  [
    ("workload", "lucky");
    ("predict_only", "true");
    ("note", "free-hidden W/W pair, only predictable");
  ]

let trace () =
  let d = Nodetect.make () in
  let driver, finished = Tracefile.capturing ~meta d.Detector.driver in
  ignore (Sim_exec.run ~config:Sim_exec.serial ~driver program);
  finished ()
