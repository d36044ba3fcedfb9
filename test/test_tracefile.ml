(* Trace-file format tests: varint and CRC primitives, capture fidelity,
   serialization round-trips, determinism of capture, and rejection of every
   malformation class (bad magic, bad version, truncation, corruption). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------- varint *)

let test_varint_roundtrip () =
  let values =
    [ 0; 1; 63; 64; 127; 128; 129; 255; 300; 16_383; 16_384; 1_000_000; max_int ]
  in
  let buf = Buffer.create 64 in
  List.iter (Varint.write buf) values;
  let c = Varint.cursor (Buffer.contents buf) in
  List.iter (fun v -> check_int (Printf.sprintf "varint %d" v) v (Varint.read c)) values;
  check_bool "cursor consumed" true (Varint.at_end c)

let test_varint_sizes () =
  let size n =
    let b = Buffer.create 8 in
    Varint.write b n;
    Buffer.length b
  in
  check_int "small is 1 byte" 1 (size 127);
  check_int "128 is 2 bytes" 2 (size 128);
  check_int "16383 is 2 bytes" 2 (size 16_383);
  check_int "16384 is 3 bytes" 3 (size 16_384)

let test_varint_negative_rejected () =
  let b = Buffer.create 8 in
  check_bool "negative raises" true
    (try
       Varint.write b (-1);
       false
     with Invalid_argument _ -> true)

let test_varint_truncated () =
  (* a lone continuation byte promises more input than exists *)
  let c = Varint.cursor "\x80" in
  check_bool "truncated raises" true
    (try
       ignore (Varint.read c);
       false
     with Failure _ -> true)

(* -------------------------------------------------------------- crc32 *)

let test_crc32_check_vector () =
  (* the standard CRC-32/ISO-HDLC check value *)
  check_string "crc32(123456789)" "cbf43926"
    (Printf.sprintf "%08lx" (Crc32.digest "123456789"));
  check_string "crc32(empty)" "00000000" (Printf.sprintf "%08lx" (Crc32.digest ""))

let test_crc32_sub () =
  let s = "xx123456789yy" in
  check_bool "digest_sub matches digest" true
    (Crc32.digest_sub s ~pos:2 ~len:9 = Crc32.digest "123456789")

(* ------------------------------------------------------------ capture *)

(* A small deterministic program with spawns, a nested scope, stack frames,
   a heap free and a real race — exercising every entry field. *)
let program () =
  let b = Fj.alloc_f 16 in
  Fj.spawn (fun () ->
      Membuf.fill_f b 0 8 1.0;
      Fj.with_frame ~words:4 (fun fr -> Membuf.set_f fr 0 9.0));
  Fj.spawn (fun () -> ignore (Membuf.read_range_f b 4 8));
  Fj.scope (fun () ->
      Fj.spawn (fun () ->
          let x = Fj.alloc_f 8 in
          Membuf.set_f x 0 1.0;
          Fj.free_f x);
      Fj.sync ());
  Fj.sync ()

let capture_seq ?(meta = []) prog =
  let d = Nodetect.make () in
  let driver, finished = Tracefile.capturing ~meta d.Detector.driver in
  let res = Sim_exec.run ~config:Sim_exec.serial ~driver prog in
  let t = finished () in
  (t, res)

let test_capture_structure () =
  let t, res = capture_seq ~meta:[ ("k", "v") ] program in
  check_int "one entry per strand" res.Sim_exec.n_strands (Tracefile.entry_count t);
  check_int "version" Tracefile.current_version t.Tracefile.version;
  check_bool "meta present" true (Tracefile.meta_find t "k" = Some "v");
  check_bool "n_workers meta" true (Tracefile.meta_find t "n_workers" = Some "1");
  let root = Tracefile.root t in
  check_bool "root starts the run" true (root.Tracefile.start = Events.S_root);
  (* every spawn's child/cont/sync links resolve *)
  Array.iter
    (fun (e : Tracefile.entry) ->
      match e.Tracefile.finish with
      | Tracefile.Spawn { cont; sync; child; _ } ->
          ignore (Tracefile.find t cont);
          ignore (Tracefile.find t sync);
          ignore (Tracefile.find t child)
      | _ -> ())
    t.Tracefile.entries;
  let reads, writes = Tracefile.interval_totals t in
  check_bool "recorded reads" true (reads > 0);
  check_bool "recorded writes" true (writes > 0);
  check_bool "a free was recorded" true
    (Array.exists (fun e -> e.Tracefile.frees <> []) t.Tracefile.entries);
  check_bool "a clear was recorded" true
    (Array.exists (fun e -> e.Tracefile.clears <> []) t.Tracefile.entries);
  check_int "seq run has no boundaries" 0 (Tracefile.boundary_count t)

let test_serialization_roundtrip () =
  let t, _ = capture_seq ~meta:[ ("workload", "unit") ] program in
  let bytes = Tracefile.to_bytes t in
  let t' = Tracefile.of_bytes bytes in
  check_bool "roundtrip preserves everything" true (t = t');
  check_string "re-encoding is stable" (String.escaped bytes)
    (String.escaped (Tracefile.to_bytes t'))

let test_file_roundtrip () =
  let t, _ = capture_seq program in
  let path = Filename.temp_file "pint" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Tracefile.write t path;
      let t' = Tracefile.load path in
      check_bool "file roundtrip" true (t = t'))

let test_capture_deterministic_seq () =
  let t1, _ = capture_seq program and t2, _ = capture_seq program in
  check_bool "same run, same bytes" true (Tracefile.to_bytes t1 = Tracefile.to_bytes t2)

let test_capture_deterministic_sim () =
  let capture_sim () =
    let d = Nodetect.make () in
    let driver, finished = Tracefile.capturing d.Detector.driver in
    let config = { Sim_exec.default_config with n_workers = 4; seed = 11 } in
    ignore (Sim_exec.run ~config ~driver program);
    finished ()
  in
  let t1 = capture_sim () and t2 = capture_sim () in
  check_bool "seeded sim captures byte-identically" true
    (Tracefile.to_bytes t1 = Tracefile.to_bytes t2)

(* --------------------------------------------------------- malformation *)

let expect_error name f =
  check_bool name true
    (try
       ignore (f ());
       false
     with Tracefile.Error _ -> true)

let test_rejects_malformed () =
  let t, _ = capture_seq program in
  let bytes = Tracefile.to_bytes t in
  expect_error "bad magic" (fun () ->
      Tracefile.of_bytes ("XINTRACE" ^ String.sub bytes 8 (String.length bytes - 8)));
  expect_error "truncated body" (fun () ->
      Tracefile.of_bytes (String.sub bytes 0 (String.length bytes - 9)));
  expect_error "truncated crc" (fun () ->
      Tracefile.of_bytes (String.sub bytes 0 (String.length bytes - 2)));
  expect_error "empty input" (fun () -> Tracefile.of_bytes "");
  expect_error "trailing garbage" (fun () -> Tracefile.of_bytes (bytes ^ "\x00"));
  (* flip one byte in the middle of the body: the CRC must catch it *)
  let corrupted = Bytes.of_string bytes in
  let mid = String.length bytes / 2 in
  Bytes.set corrupted mid (Char.chr (Char.code (Bytes.get corrupted mid) lxor 0x40));
  expect_error "bit flip detected" (fun () -> Tracefile.of_bytes (Bytes.to_string corrupted));
  (* bump the version varint (first body byte): unknown version *)
  let vbumped = Bytes.of_string bytes in
  Bytes.set vbumped 8 (Char.chr (Tracefile.current_version + 1));
  expect_error "unknown version" (fun () -> Tracefile.of_bytes (Bytes.to_string vbumped));
  (* a well-formed version-1 image (no meta, no entries, valid CRC): the
     retired format is rejected, by the file and the streaming paths alike *)
  let v1 =
    let body = "\x01\x00\x00" in
    let crc = Crc32.digest body in
    let byte i = Int32.to_int (Int32.logand (Int32.shift_right_logical crc (8 * i)) 0xFFl) in
    "PINTRACE" ^ body ^ String.init 4 (fun i -> Char.chr (byte i))
  in
  expect_error "version 1" (fun () -> Tracefile.of_bytes v1);
  expect_error "version 1 (decoder)" (fun () ->
      Tracefile.Decoder.feed (Tracefile.Decoder.create ()) v1)

let test_find_missing () =
  let t, _ = capture_seq program in
  expect_error "find unknown uid" (fun () -> Tracefile.find t 99_999)

(* ---------------------------------------------------- incremental decode *)

(* Drain every currently-decodable entry from a decoder. *)
let drain d =
  let rec go acc =
    match Tracefile.Decoder.next d with None -> List.rev acc | Some e -> go (e :: acc)
  in
  go []

(* Feed [bytes] to a fresh decoder in [chunk]-sized pieces and return the
   entries in arrival order.  Exercises every split point when chunk = 1:
   mid-magic, mid-varint, mid interval array, mid-CRC. *)
let decode_chunked ?max_pending bytes chunk =
  let d = Tracefile.Decoder.create ?max_pending () in
  let n = String.length bytes in
  let out = ref [] in
  let pos = ref 0 in
  while !pos < n do
    let len = min chunk (n - !pos) in
    Tracefile.Decoder.feed d ~pos:!pos ~len bytes;
    out := !out @ drain d;
    pos := !pos + len
  done;
  Tracefile.Decoder.finish d;
  (d, !out @ drain d)

let test_decoder_chunked_equals_whole () =
  let t, _ = capture_seq ~meta:[ ("workload", "unit") ] program in
  let bytes = Tracefile.to_bytes t in
  let whole = Tracefile.of_bytes bytes in
  (* byte-at-a-time: every LEB128 varint, delta-coded interval array and the
     trailing CRC word gets split across a chunk boundary somewhere *)
  List.iter
    (fun chunk ->
      let d, entries = decode_chunked bytes chunk in
      check_bool
        (Printf.sprintf "chunk=%d decodes the same entries" chunk)
        true
        (Array.of_list entries = whole.Tracefile.entries);
      check_bool "complete" true (Tracefile.Decoder.complete d);
      check_int "fed_bytes" (String.length bytes) (Tracefile.Decoder.fed_bytes d);
      check_int "entries_decoded" (Array.length whole.Tracefile.entries)
        (Tracefile.Decoder.entries_decoded d);
      check_bool "header meta matches" true
        (match Tracefile.Decoder.header d with
        | Some (v, meta) -> v = whole.Tracefile.version && meta = whole.Tracefile.meta
        | None -> false))
    [ 1; 2; 3; 7; 64; String.length bytes ]

let test_decoder_streams_before_eof () =
  (* entries must be observable before the CRC arrives: feed all but the
     trailer and check at least one entry is already out *)
  let t, _ = capture_seq program in
  let bytes = Tracefile.to_bytes t in
  let d = Tracefile.Decoder.create () in
  Tracefile.Decoder.feed d ~len:(String.length bytes - 4) bytes;
  check_bool "header decoded early" true (Tracefile.Decoder.header d <> None);
  check_bool "entries stream before the trailer" true (drain d <> []);
  check_bool "not complete yet" false (Tracefile.Decoder.complete d);
  Tracefile.Decoder.feed d ~pos:(String.length bytes - 4) bytes;
  check_bool "complete after trailer" true (Tracefile.Decoder.complete d)

let test_decoder_truncation () =
  let t, _ = capture_seq program in
  let bytes = Tracefile.to_bytes t in
  (* every proper prefix must fail cleanly at finish — never a crash, never
     silent acceptance *)
  for cut = 0 to String.length bytes - 1 do
    let d = Tracefile.Decoder.create () in
    let ok =
      try
        Tracefile.Decoder.feed d ~len:cut bytes;
        Tracefile.Decoder.finish d;
        false
      with Tracefile.Error _ -> true
    in
    check_bool (Printf.sprintf "prefix %d rejected" cut) true ok
  done

let test_decoder_rejects_malformed_chunked () =
  let t, _ = capture_seq program in
  let bytes = Tracefile.to_bytes t in
  let expect_chunked name s =
    expect_error name (fun () ->
        ignore (decode_chunked s 3);
        ())
  in
  expect_chunked "bad magic (chunked)"
    ("XINTRACE" ^ String.sub bytes 8 (String.length bytes - 8));
  expect_chunked "trailing garbage (chunked)" (bytes ^ "\x00");
  let corrupted = Bytes.of_string bytes in
  let mid = String.length bytes / 2 in
  Bytes.set corrupted mid (Char.chr (Char.code (Bytes.get corrupted mid) lxor 0x40));
  expect_chunked "bit flip detected (chunked)" (Bytes.to_string corrupted)

let test_decoder_overflow_guard () =
  (* an item that never completes must hit the pending-buffer bound, not
     buffer unboundedly: declare a meta value of 10k bytes and trickle in
     filler against a 16-byte cap *)
  let b = Buffer.create 64 in
  Buffer.add_string b "PINTRACE";
  Varint.write b Tracefile.current_version;
  Varint.write b 1 (* one meta pair *);
  Varint.write b 1;
  Buffer.add_string b "k";
  Varint.write b 10_000 (* vlen: promises far more than we send *);
  Buffer.add_string b (String.make 64 'x');
  expect_error "buffer overflow rejected" (fun () ->
      ignore (decode_chunked ~max_pending:16 (Buffer.contents b) 1);
      ())

let () =
  Alcotest.run "pint_tracefile"
    [
      ( "varint",
        [
          Alcotest.test_case "roundtrip" `Quick test_varint_roundtrip;
          Alcotest.test_case "sizes" `Quick test_varint_sizes;
          Alcotest.test_case "negative rejected" `Quick test_varint_negative_rejected;
          Alcotest.test_case "truncated rejected" `Quick test_varint_truncated;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "check vector" `Quick test_crc32_check_vector;
          Alcotest.test_case "substring" `Quick test_crc32_sub;
        ] );
      ( "capture",
        [
          Alcotest.test_case "structure" `Quick test_capture_structure;
          Alcotest.test_case "bytes roundtrip" `Quick test_serialization_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "seq determinism" `Quick test_capture_deterministic_seq;
          Alcotest.test_case "sim determinism" `Quick test_capture_deterministic_sim;
        ] );
      ( "malformed",
        [
          Alcotest.test_case "rejects malformed" `Quick test_rejects_malformed;
          Alcotest.test_case "find missing uid" `Quick test_find_missing;
        ] );
      ( "decoder",
        [
          Alcotest.test_case "chunked = whole-file" `Quick test_decoder_chunked_equals_whole;
          Alcotest.test_case "streams before eof" `Quick test_decoder_streams_before_eof;
          Alcotest.test_case "every truncation rejected" `Quick test_decoder_truncation;
          Alcotest.test_case "malformed chunked rejected" `Quick
            test_decoder_rejects_malformed_chunked;
          Alcotest.test_case "overflow guard" `Quick test_decoder_overflow_guard;
        ] );
    ]
