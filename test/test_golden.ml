(* Golden-trace corpus: committed captures under test/golden/ are replayed
   through all three detectors, which must agree pairwise on the
   deduplicated race set (Theorem 5) — and, since each trace's metadata
   records the workload configuration it came from, the replayed set is also
   checked against a fresh live sequential run of that same configuration.
   A divergence here means a detector changed behaviour relative to the
   committed artifacts. *)

let check_bool = Alcotest.(check bool)

let detectors = [ "stint"; "cracer"; "pint" ]
let make_det name = Option.get (Systems.make_detector name)

let signature races =
  List.sort compare
    (List.map (fun (r : Report.race) -> (r.Report.kind, r.Report.prior, r.Report.current)) races)

let golden_files () =
  let dir = "golden" in
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".trace")
    |> List.sort compare
    |> List.map (Filename.concat dir)

let meta_exn t k =
  match Tracefile.meta_find t k with
  | Some v -> v
  | None -> Alcotest.failf "golden trace lacks %S metadata" k

let check_one path () =
  let t = Tracefile.load path in
  (* predict-only captures (see test/golden_gen/lucky.ml) carry a racy pair
     that every observed-order detector must MISS — the race is reachable
     only through a window-bounded reordering, which test_predict covers *)
  let predict_only = Tracefile.meta_find t "predict_only" = Some "true" in
  (* 1. all detectors agree on the replayed race set *)
  let sigs =
    List.map
      (fun det ->
        let d, _ = make_det det in
        let races = signature (Replay.run t d).Replay.races in
        (* the replayed history must leave every treap structurally sound
           (heap order, BST order, disjointness, size counters) *)
        d.Detector.validate ();
        (det, races))
      detectors
  in
  (match sigs with
  | (ref_det, ref_sig) :: rest ->
      if predict_only then
        check_bool (path ^ ": predict-only trace is observed-clean") true (ref_sig = [])
      else check_bool (path ^ ": corpus trace is racy") true (ref_sig <> []);
      List.iter
        (fun (det, s) ->
          if s <> ref_sig then
            Alcotest.failf "%s: %s and %s disagree (%d vs %d races)" path det ref_det
              (List.length s) (List.length ref_sig))
        rest
  | [] -> Alcotest.fail "no detectors");
  (* 2. the replayed set matches a live run of the recorded configuration
     (predict-only traces are synthetic captures with no registry entry) *)
  if not predict_only then begin
    let w = Registry.find (meta_exn t "workload") in
    let size = int_of_string (meta_exn t "size") and base = int_of_string (meta_exn t "base") in
    check_bool (path ^ ": golden traces are racy captures") true
      (meta_exn t "racy" = "true");
    let inst = (Option.get w.Workload.racy) ~size ~base in
    let d, _ = make_det "pint" in
    let _ = Sim_exec.run ~config:Sim_exec.serial ~driver:d.Detector.driver inst.Workload.run in
    let live = signature (Detector.races d) in
    d.Detector.validate ();
    check_bool (path ^ ": replay = live rerun") true (snd (List.hd sigs) = live)
  end

(* Sharding must be invisible in the race set: replaying a golden trace
   through the N-shard pipeline must produce exactly the shards=1 (paper
   configuration) verdicts at Theorem-5 granularity — the differential
   machinery compares deduplicated (kind, earlier, later) triples, the same
   key [Report.add] dedups on, so split sub-intervals cannot leak through
   as spurious differences. *)
let check_sharded path () =
  let t = Tracefile.load path in
  List.iter
    (fun shards ->
      let d1, _ = make_det "pint" in
      let dn, _ = Option.get (Systems.make_detector ~shards "pint") in
      let d = Replay.differential t dn d1 in
      if not (Replay.no_divergence d) then
        Alcotest.failf "%s: pint shards=%d diverges from shards=1: %s" path shards
          (Format.asprintf "%a" Replay.pp_divergence d);
      dn.Detector.validate ())
    [ 2; 4; 8 ]

(* The same invariant under the real-domain executor: each shard's
   {writer, lreader, rreader} triple on its own micropool domain, the
   collector committing through the backpressure window.  Whatever the
   domains' actual interleaving, the race set must still equal the
   shards=1 single-threaded replay at Theorem-5 (kind, prior, current)
   granularity — detection work is partitioned by address range, so
   scheduling can reorder discovery but never change the verdicts. *)
let check_sharded_domains path () =
  let t = Tracefile.load path in
  let d1, _ = make_det "pint" in
  let ref_sig = signature (Replay.run t d1).Replay.races in
  List.iter
    (fun shards ->
      let dn, stages =
        Option.get
          (Systems.make_detector ~shards ~bp_rounds:Pint_detector.recommended_bp_rounds "pint")
      in
      let o = Replay.run ~pools:(Systems.micropools stages) t dn in
      dn.Detector.validate ();
      if signature o.Replay.races <> ref_sig then
        Alcotest.failf "%s: real-domain pint shards=%d diverges from shards=1 (%d vs %d races)"
          path shards
          (List.length o.Replay.races)
          (List.length ref_sig))
    [ 2; 4 ]

(* Treap visit pins: the [*_visits] diagnostics of pint at shards 1 and 4,
   per golden trace, as the treap with in-place exact-cover updates and the
   three-walk general path produces them (DESIGN.md §8).  STINT's row is
   derived, not pinned: it runs PINT's role steps on one shard's treaps,
   seeded by PINT's rule, so its writer visits are PINT's and its reader
   visits are the sum of PINT's two reader roles'.  Visits are what the
   cost model charges for treap work ([c_treap_visit]), so a treap change
   that alters the visit sequence moves the simulated figures and
   [detect_span]; it must fail here first.  A new golden trace needs its
   row added. *)
let expected_visits =
  [
    ( "heat_racy.trace",
      [ ("writer_visits", 59.); ("lreader_visits", 65.); ("rreader_visits", 68.) ] );
    ( "lucky_racy.trace",
      [ ("writer_visits", 5.); ("lreader_visits", 0.); ("rreader_visits", 0.) ] );
    ( "mmul_racy.trace",
      [ ("writer_visits", 8143.); ("lreader_visits", 8165.); ("rreader_visits", 10210.) ] );
    ( "sort_racy.trace",
      [ ("writer_visits", 438.); ("lreader_visits", 531.); ("rreader_visits", 860.) ] );
  ]

let check_visits path () =
  let t = Tracefile.load path in
  let base = Filename.basename path in
  let pint_want =
    match List.assoc_opt base expected_visits with
    | Some p -> p
    | None -> Alcotest.failf "%s: no pinned visit counts" path
  in
  let stint_want =
    let v k = List.assoc k pint_want in
    [
      ("writer_visits", v "writer_visits");
      ("reader_visits", v "lreader_visits" +. v "rreader_visits");
    ]
  in
  let visits ?shards det keys =
    let d, _ = Option.get (Systems.make_detector ?shards det) in
    let diags = (Replay.run t d).Replay.diagnostics in
    List.map (fun (k, _) -> (k, Option.value ~default:nan (List.assoc_opt k diags))) keys
  in
  let pinned = Alcotest.(list (pair string (float 0.))) in
  Alcotest.check pinned (path ^ ": pint s1") pint_want (visits ~shards:1 "pint" pint_want);
  Alcotest.check pinned (path ^ ": pint s4") pint_want (visits ~shards:4 "pint" pint_want);
  Alcotest.check pinned (path ^ ": stint") stint_want (visits "stint" stint_want)

(* STINT is PINT at one shard: [Pint_detector.serial] runs the role steps
   PINT's stages run, on treaps seeded by PINT's rule.  At one explicit
   seed, a replay through stint and through one-shard pint must report the
   identical race list, witnesses included; stint's writer visits must be
   pint's and its reader visits pint's two reader roles' sum. *)
let check_serial_is_pint t =
  let replay det =
    let d, _ = Option.get (Systems.make_detector ~seed:2022 det) in
    Replay.run t d
  in
  let st = replay "stint" and pt = replay "pint" in
  let listing o = List.map (Format.asprintf "%a" Report.pp_race) o.Replay.races in
  Alcotest.(check (list string)) "races and witnesses" (listing pt) (listing st);
  let diag o k = Option.value ~default:nan (List.assoc_opt k o.Replay.diagnostics) in
  let check_visits what want got = Alcotest.(check (float 0.)) what want got in
  check_visits "writer visits" (diag pt "writer_visits") (diag st "writer_visits");
  check_visits "reader visits"
    (diag pt "lreader_visits" +. diag pt "rreader_visits")
    (diag st "reader_visits")

(* a fresh serial capture of a workload at its default size: the racy
   variant where there is one *)
let fresh_capture (w : Workload.t) =
  let size = w.Workload.default_size and base = w.Workload.default_base in
  let inst =
    match w.Workload.racy with Some racy -> racy ~size ~base | None -> w.Workload.make ~size ~base
  in
  let driver, finished = Tracefile.capturing (Nodetect.make ()).Detector.driver in
  ignore (Sim_exec.run ~config:Sim_exec.serial ~driver inst.Workload.run);
  finished ()

(* Corruption robustness: a damaged trace must always surface as a clean
   [Tracefile.Error] — never an escaping exception from the parser and
   never a silently wrong replay.  The format checks its magic and then a
   CRC-32 over the whole body BEFORE parsing anything, and CRC-32 detects
   every single-bit error, so each single-bit flip anywhere in the file
   must be rejected. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let flip bytes ~byte ~bit =
  let b = Bytes.of_string bytes in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
  Bytes.to_string b

let entries_ok t = Tracefile.entry_count t > 0

let check_corrupt path () =
  let original = read_file path in
  let n = String.length original in
  check_bool (path ^ ": parses when intact") true (Tracefile.of_bytes original |> entries_ok);
  (* every byte of the header + a deterministic sample of the body, all 8
     bit positions each: exhaustive flipping of a multi-KB file is slow for
     no extra coverage *)
  let positions = ref [] in
  for byte = 0 to min (n - 1) 63 do
    positions := byte :: !positions
  done;
  let step = max 1 (n / 97) in
  let byte = ref 64 in
  while !byte < n do
    positions := !byte :: !positions;
    byte := !byte + step
  done;
  List.iter
    (fun byte ->
      for bit = 0 to 7 do
        let corrupted = flip original ~byte ~bit in
        match Tracefile.of_bytes corrupted with
        | exception Tracefile.Error _ -> () (* the one acceptable outcome *)
        | exception e ->
            Alcotest.failf "%s: flip byte %d bit %d escaped with %s" path byte bit
              (Printexc.to_string e)
        | _ ->
            Alcotest.failf "%s: flip byte %d bit %d parsed as a valid trace" path byte bit
      done)
    !positions

(* The same corruption guarantee under chunked feeding: streaming a damaged
   trace through the incremental decoder must raise [Tracefile.Error] by
   [finish] at the latest — never escape with another exception and never
   complete as a valid trace.  Chunking is the interesting axis here: the
   flip may land in a varint or CRC word that straddles a chunk boundary. *)
let decode_chunked bytes chunk =
  let d = Tracefile.Decoder.create () in
  let n = String.length bytes in
  let pos = ref 0 in
  while !pos < n do
    let len = min chunk (n - !pos) in
    Tracefile.Decoder.feed d ~pos:!pos ~len bytes;
    (* consume as we go, like a real session would *)
    while Tracefile.Decoder.next d <> None do
      ()
    done;
    pos := !pos + len
  done;
  Tracefile.Decoder.finish d

let check_corrupt_chunked path () =
  let original = read_file path in
  let n = String.length original in
  decode_chunked original 13;
  (* sparser byte sample than [check_corrupt] — each flip decodes the file
     several times over at chunk sizes chosen to split varints, interval
     arrays and the CRC across boundaries *)
  let positions = ref [] in
  let step = max 1 (n / 23) in
  let byte = ref 0 in
  while !byte < n do
    positions := !byte :: !positions;
    byte := !byte + step
  done;
  positions := (n - 1) :: !positions;
  List.iter
    (fun byte ->
      for bit = 0 to 7 do
        let corrupted = flip original ~byte ~bit in
        List.iter
          (fun chunk ->
            match decode_chunked corrupted chunk with
            | exception Tracefile.Error _ -> ()
            | exception e ->
                Alcotest.failf "%s: chunk=%d flip byte %d bit %d escaped with %s" path chunk
                  byte bit (Printexc.to_string e)
            | _ ->
                Alcotest.failf "%s: chunk=%d flip byte %d bit %d decoded as a valid trace" path
                  chunk byte bit)
          [ 1; 13; 4096 ]
      done)
    !positions

(* Truncation at every prefix length must also fail cleanly. *)
let check_truncated path () =
  let original = read_file path in
  let n = String.length original in
  for len = 0 to n - 1 do
    let prefix = String.sub original 0 len in
    match Tracefile.of_bytes prefix with
    | exception Tracefile.Error _ -> ()
    | exception e ->
        Alcotest.failf "%s: truncation to %d bytes escaped with %s" path len
          (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: truncation to %d bytes parsed as a valid trace" path len
  done

let () =
  let files = golden_files () in
  if files = [] then prerr_endline "test_golden: no golden traces found, nothing to check";
  Alcotest.run "pint_golden"
    [
      ( "corpus",
        List.map (fun path -> Alcotest.test_case path `Quick (check_one path)) files );
      ( "sharded",
        List.map (fun path -> Alcotest.test_case path `Quick (check_sharded path)) files );
      ( "sharded-domains",
        List.map (fun path -> Alcotest.test_case path `Quick (check_sharded_domains path)) files );
      ( "visits",
        List.map (fun path -> Alcotest.test_case path `Quick (check_visits path)) files );
      ( "serial",
        List.map
          (fun path ->
            Alcotest.test_case path `Quick (fun () ->
                check_serial_is_pint (Tracefile.load path)))
          files
        @ List.map
            (fun (w : Workload.t) ->
              Alcotest.test_case ("fresh " ^ w.Workload.name) `Quick (fun () ->
                  check_serial_is_pint (fresh_capture w)))
            (Registry.all ()) );
      ( "corruption",
        List.map (fun path -> Alcotest.test_case path `Quick (check_corrupt path)) files );
      ( "corruption-chunked",
        List.map
          (fun path -> Alcotest.test_case path `Quick (check_corrupt_chunked path))
          files );
      ( "truncation",
        List.map (fun path -> Alcotest.test_case path `Quick (check_truncated path)) files );
    ]
