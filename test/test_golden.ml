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

(* A serial capture of [w] at [size]/[base]; the racy variant if [racy]. *)
let capture_at ?(racy = false) (w : Workload.t) ~size ~base =
  let inst =
    match w.Workload.racy with
    | Some r when racy -> r ~size ~base
    | _ -> w.Workload.make ~size ~base
  in
  let driver, finished = Tracefile.capturing (Nodetect.make ()).Detector.driver in
  ignore (Sim_exec.run ~config:Sim_exec.serial ~driver inst.Workload.run);
  finished ()

(* Every access of every golden trace falls in one shard block, which
   shard 0 owns at any shard count.  A racy heat 64/8 capture's grid spans
   four blocks, so at 2 and 4 shards it reaches every shard: the one input
   here on which a routing fault (a shard that never gets its share) shows
   up as a writer stage with no treap work. *)
let heat64 = lazy (capture_at ~racy:true (Registry.find "heat") ~size:64 ~base:8)

(* Every shard's writer stage did treap work. *)
let check_every_shard what (d : Detector.t) shards =
  let diags = d.Detector.diagnostics () in
  for k = 0 to shards - 1 do
    let key = Printf.sprintf "stage.writer%d.visits" k in
    match List.assoc_opt key diags with
    | Some v when v > 0. -> ()
    | v ->
        Alcotest.failf "%s: shards=%d: %s = %s" what shards key
          (Option.fold ~none:"absent" ~some:string_of_float v)
  done

(* Sharding must be invisible in the race set: replaying a trace through
   the N-shard pipeline must produce exactly the shards=1 (paper
   configuration) verdicts at Theorem-5 granularity — the differential
   machinery compares deduplicated (kind, earlier, later) triples, the same
   key [Report.add] dedups on, so split sub-intervals cannot leak through
   as spurious differences.  [every_shard]: the input must also reach
   every shard. *)
let check_sharded ?(every_shard = false) ~shard_counts what t =
  List.iter
    (fun shards ->
      let d1, _ = make_det "pint" in
      let dn, _ = Option.get (Systems.make_detector ~shards "pint") in
      let d = Replay.differential t dn d1 in
      if not (Replay.no_divergence d) then
        Alcotest.failf "%s: pint shards=%d diverges from shards=1: %s" what shards
          (Format.asprintf "%a" Replay.pp_divergence d);
      if every_shard then check_every_shard what dn shards;
      dn.Detector.validate ())
    shard_counts

(* The same invariant under real domains: a replay session whose shard
   groups each run on their own micropool worker, concurrently with the
   (still serial, deterministic) feed — the producer/consumer topology of
   a live [Par_exec] run.  Whatever the domains' actual interleaving, the
   race set must still equal the shards=1 single-threaded replay at
   Theorem-5 (kind, prior, current) granularity — detection work is
   partitioned by address range, so scheduling can reorder discovery but
   never change the verdicts.  The one access-history queue's cursors then
   live on several pool domains. *)
let check_sharded_domains ?(every_shard = false) what t =
  let bytes = Tracefile.to_bytes t in
  let d1, _ = make_det "pint" in
  let ref_sig = signature (Replay.run t d1).Replay.races in
  List.iter
    (fun shards ->
      let dn, stages = Option.get (Systems.make_detector ~shards "pint") in
      let s = Replay.Session.create dn in
      let groups = Systems.micropools stages in
      let pool = Micropool.shared (List.length groups) in
      let lease = Micropool.submit pool groups in
      Fun.protect
        ~finally:(fun () ->
          Replay.Session.abort s;
          Micropool.shutdown pool)
        (fun () ->
          ignore (Replay.Session.feed s bytes);
          ignore (Replay.Session.eof s);
          Micropool.await lease);
      dn.Detector.drain ();
      let o = Replay.Session.outcome s in
      dn.Detector.validate ();
      if every_shard then check_every_shard what dn shards;
      if signature o.Replay.races <> ref_sig then
        Alcotest.failf "%s: real-domain pint shards=%d diverges from shards=1 (%d vs %d races)"
          what shards
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

(* The collector hands strands over a batch at a time: replayed through
   pint at shards 1 and 2, the collector stage takes fewer steps than it
   collects strands and the readers' achieved batch exceeds one, while
   the races (witnesses included, at one shard) stay those of stint,
   whose role steps run strand by strand, and a pinned trace's visits
   stay pinned. *)
let check_batched t ~pinned =
  let replay ?shards det =
    let d, _ = Option.get (Systems.make_detector ?shards det) in
    Replay.run t d
  in
  let stint = replay "stint" in
  let listing o = List.map (Format.asprintf "%a" Report.pp_race) o.Replay.races in
  List.iter
    (fun shards ->
      let o = replay ~shards "pint" in
      let diag k = Option.value ~default:nan (List.assoc_opt k o.Replay.diagnostics) in
      let collector = if shards = 1 then "writer" else "writer0" in
      let what fmt = Printf.sprintf ("shards %d: " ^^ fmt) shards in
      let steps = diag ("stage." ^ collector ^ ".steps")
      and records = diag ("stage." ^ collector ^ ".records") in
      if not (records > steps) then
        Alcotest.failf "shards %d: collector took %g steps for %g strands" shards steps records;
      if not (diag "ahq_batch" > 1.) then
        Alcotest.failf "shards %d: ahq_batch %g" shards (diag "ahq_batch");
      if shards = 1 then begin
        Alcotest.(check (list string)) (what "races and witnesses") (listing stint) (listing o);
        Alcotest.(check (float 0.)) (what "writer visits")
          (Option.value ~default:nan (List.assoc_opt "writer_visits" stint.Replay.diagnostics))
          (diag "writer_visits")
      end
      else
        check_bool (what "race set") true (signature o.Replay.races = signature stint.Replay.races);
      List.iter
        (fun (k, want) -> Alcotest.(check (float 0.)) (what "%s" k) want (diag k))
        pinned)
    [ 1; 2 ]

(* Directed case: after the walk of a capture longer than the
   access-history queue, the collector stepped alone fills the queue —
   [Worked] steps of one full batch each that hand over exactly its 4096
   records — and then stalls on the full queue; draining everything
   afterwards reports the races of a normal replay. *)
let test_collector_fills_queue () =
  let t = capture_at ~racy:true (Registry.find "sort") ~size:32768 ~base:64 in
  check_bool "capture longer than the queue" true (Tracefile.entry_count t > 4096);
  let d, stages = Option.get (Systems.make_detector "pint") in
  let s = Replay.Session.create d in
  ignore (Replay.Session.feed s (Tracefile.to_bytes t));
  ignore (Replay.Session.eof s);
  let collector = List.hd stages in
  let rec fill steps records =
    match Stage.exec collector with
    | `Worked o -> fill (steps + 1) (records + o.Step.records)
    | `Stalled -> (steps, records)
    | `Idle | `Done -> Alcotest.failf "collector neither worked nor stalled after %d" records
  in
  let steps, records = fill 0 0 in
  Alcotest.(check int) "records before the queue is full" 4096 records;
  Alcotest.(check int) "one full batch per step" (4096 / Ahq.default_batch) steps;
  check_bool "still stalled" true (Stage.exec collector = `Stalled);
  d.Detector.drain ();
  let o = Replay.Session.outcome s in
  let normal =
    let d, _ = Option.get (Systems.make_detector "pint") in
    Replay.run t d
  in
  check_bool "racy capture" true (normal.Replay.races <> []);
  let listing o = List.map (Format.asprintf "%a" Report.pp_race) o.Replay.races in
  Alcotest.(check (list string)) "races and witnesses" (listing normal) (listing o)

(* Allocation budget of the treap stages, in minor words per strand, on
   serial captures replayed through pint at one shard: no stage's role
   steps allocate per record, and the collector's enqueue stores the
   record itself (the bound leaves room for the per-step outcome, the
   treap arena's doubling and the collector's heap frees). *)
let check_allocation (w : Workload.t) ~size ~base () =
  let t = capture_at w ~size ~base in
  let d, _ = Option.get (Systems.make_detector "pint") in
  let o = Replay.run t d in
  let diag k = Option.value ~default:nan (List.assoc_opt k o.Replay.diagnostics) in
  List.iter
    (fun (stage, bound) ->
      let per_strand =
        diag ("stage." ^ stage ^ ".minor_words") /. diag ("stage." ^ stage ^ ".records")
      in
      if not (per_strand <= bound) then
        Alcotest.failf "%s %d/%d: %s allocates %.1f minor words per strand (bound %g)"
          w.Workload.name size base stage per_strand bound)
    [ ("writer", 2.); ("lreader", 2.); ("rreader", 2.) ]

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
        List.map
          (fun path ->
            Alcotest.test_case path `Quick (fun () ->
                check_sharded ~shard_counts:[ 2; 4; 8 ] path (Tracefile.load path)))
          files
        @ [
            Alcotest.test_case "heat 64/8" `Quick (fun () ->
                check_sharded ~every_shard:true ~shard_counts:[ 2; 4 ] "heat 64/8"
                  (Lazy.force heat64));
          ] );
      ( "sharded-domains",
        List.map
          (fun path ->
            Alcotest.test_case path `Quick (fun () ->
                check_sharded_domains path (Tracefile.load path)))
          files
        @ [
            Alcotest.test_case "heat 64/8" `Quick (fun () ->
                check_sharded_domains ~every_shard:true "heat 64/8" (Lazy.force heat64));
          ] );
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
      ( "batch",
        [
          Alcotest.test_case "sort_racy.trace" `Quick (fun () ->
              check_batched
                (Tracefile.load (Filename.concat "golden" "sort_racy.trace"))
                ~pinned:(List.assoc "sort_racy.trace" expected_visits));
          Alcotest.test_case "fresh sort" `Quick (fun () ->
              check_batched (fresh_capture (Registry.find "sort")) ~pinned:[]);
          Alcotest.test_case "collector fills a lane" `Quick test_collector_fills_queue;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "sort 262144/128" `Quick
            (check_allocation (Registry.find "sort") ~size:262144 ~base:128);
          Alcotest.test_case "mmul 256/32" `Quick
            (check_allocation (Registry.find "mmul") ~size:256 ~base:32);
        ] );
      ( "corruption",
        List.map (fun path -> Alcotest.test_case path `Quick (check_corrupt path)) files );
      ( "corruption-chunked",
        List.map
          (fun path -> Alcotest.test_case path `Quick (check_corrupt_chunked path))
          files );
      ( "truncation",
        List.map (fun path -> Alcotest.test_case path `Quick (check_truncated path)) files );
    ]
