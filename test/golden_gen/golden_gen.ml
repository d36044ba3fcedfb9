(* Regenerate every golden trace from its capture in [Corpus].
   Deterministic: the same sources capture byte-identical files, which
   test_predict pins.

   Usage: golden_gen.exe [DIR]   (default test/golden) *)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else Filename.concat "test" "golden" in
  List.iter
    (fun (name, capture) ->
      let path = Filename.concat dir (name ^ ".trace") in
      let t = capture () in
      Tracefile.write t path;
      Printf.printf "wrote %s (%d strand(s), %d byte(s))\n" path (Tracefile.entry_count t)
        (String.length (Tracefile.to_bytes t)))
    Corpus.traces
