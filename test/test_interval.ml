(* Tests for Interval and Coalescer. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let iv = Interval.make

let test_make_invalid () =
  Alcotest.check_raises "hi < lo" (Invalid_argument "Interval.make: hi < lo") (fun () ->
      ignore (iv 3 2))

let test_point_width () =
  check_int "point width" 1 (Interval.width (Interval.point 5));
  check_int "width" 10 (Interval.width (iv 1 10));
  check_bool "contains lo" true (Interval.contains (iv 3 7) 3);
  check_bool "contains hi" true (Interval.contains (iv 3 7) 7);
  check_bool "not contains" false (Interval.contains (iv 3 7) 8)

let test_overlaps () =
  check_bool "identical" true (Interval.overlaps (iv 1 5) (iv 1 5));
  check_bool "partial" true (Interval.overlaps (iv 1 5) (iv 5 9));
  check_bool "contained" true (Interval.overlaps (iv 1 9) (iv 3 4));
  check_bool "disjoint" false (Interval.overlaps (iv 1 4) (iv 5 9));
  check_bool "adjacent only" true (Interval.adjacent_or_overlapping (iv 1 4) (iv 5 9));
  check_bool "gap of one" false (Interval.adjacent_or_overlapping (iv 1 4) (iv 6 9))

let test_hull_inter () =
  Alcotest.(check string) "hull" "[1,9]" (Interval.to_string (Interval.hull (iv 1 4) (iv 5 9)));
  Alcotest.(check string) "inter" "[3,5]" (Interval.to_string (Interval.inter (iv 1 5) (iv 3 9)));
  Alcotest.check_raises "hull disjoint" (Invalid_argument "Interval.hull: disjoint") (fun () ->
      ignore (Interval.hull (iv 1 2) (iv 9 10)));
  Alcotest.check_raises "inter disjoint" (Invalid_argument "Interval.inter: disjoint") (fun () ->
      ignore (Interval.inter (iv 1 2) (iv 3 4)))

let test_compare () =
  check_bool "lo first" true (Interval.compare (iv 1 9) (iv 2 3) < 0);
  check_bool "hi ties" true (Interval.compare (iv 1 3) (iv 1 9) < 0);
  check_bool "equal" true (Interval.compare (iv 1 3) (iv 1 3) = 0);
  check_bool "equal fn" true (Interval.equal (iv 1 3) (iv 1 3))

(* ------------------------------------------------------------ coalescer *)

let ivs_testable = Alcotest.(list string)
let strings arr = Array.to_list (Array.map Interval.to_string arr)

let test_coalesce_contiguous_run () =
  let c = Coalescer.create () in
  for a = 0 to 99 do
    Coalescer.add_read c ~addr:a ~len:1
  done;
  let reads, writes = Coalescer.finish c in
  Alcotest.check ivs_testable "single interval" [ "[0,99]" ] (strings reads);
  check_int "no writes" 0 (Array.length writes)

let test_coalesce_reverse_run () =
  (* The fast path misses descending accesses; the sort-merge in finish
     must still produce one interval. *)
  let c = Coalescer.create () in
  for a = 99 downto 0 do
    Coalescer.add_write c ~addr:a ~len:1
  done;
  let _, writes = Coalescer.finish c in
  Alcotest.check ivs_testable "single interval" [ "[0,99]" ] (strings writes)

let test_coalesce_strided () =
  let c = Coalescer.create () in
  for i = 0 to 9 do
    Coalescer.add_read c ~addr:(i * 10) ~len:1
  done;
  let reads, _ = Coalescer.finish c in
  check_int "ten separate intervals" 10 (Array.length reads)

let test_coalesce_bulk () =
  let c = Coalescer.create () in
  Coalescer.add_read c ~addr:0 ~len:64;
  Coalescer.add_read c ~addr:64 ~len:64;
  let reads, _ = Coalescer.finish c in
  Alcotest.check ivs_testable "merged bulk" [ "[0,127]" ] (strings reads)

let test_reads_writes_separate () =
  let c = Coalescer.create () in
  Coalescer.add_read c ~addr:0 ~len:4;
  Coalescer.add_write c ~addr:4 ~len:4;
  let reads, writes = Coalescer.finish c in
  Alcotest.check ivs_testable "reads" [ "[0,3]" ] (strings reads);
  Alcotest.check ivs_testable "writes" [ "[4,7]" ] (strings writes)

let test_raw_counts_and_reset () =
  let c = Coalescer.create () in
  Coalescer.add_read c ~addr:0 ~len:1;
  Coalescer.add_read c ~addr:1 ~len:1;
  Coalescer.add_write c ~addr:9 ~len:1;
  check_bool "buffers hold the merged intervals" true (Coalescer.pending c = (1, 1));
  let _ = Coalescer.finish c in
  check_bool "buffers reset" true (Coalescer.pending c = (0, 0))

let test_add_invalid_len () =
  let c = Coalescer.create () in
  Alcotest.check_raises "len 0" (Invalid_argument "Coalescer.add: len must be positive")
    (fun () -> Coalescer.add_read c ~addr:0 ~len:0)

let ivs arr = Array.to_list (Array.map (fun r -> (r.Interval.lo, r.Interval.hi)) arr)

let test_sort_skip_monotone () =
  let c = Coalescer.create () in
  Coalescer.add_read c ~addr:0 ~len:4;
  Coalescer.add_read c ~addr:10 ~len:4;
  Coalescer.add_read c ~addr:14 ~len:2 (* extends [10,13] rightwards: still monotone *);
  let reads, _ = Coalescer.finish c in
  check_bool "intervals" true (ivs reads = [ (0, 3); (10, 15) ]);
  check_bool "monotone stream skipped the sort" true (Coalescer.sort_stats c = (1, 0))

let test_sort_skip_out_of_order () =
  let c = Coalescer.create () in
  Coalescer.add_write c ~addr:20 ~len:2;
  Coalescer.add_write c ~addr:0 ~len:2;
  let _, writes = Coalescer.finish c in
  check_bool "sorted" true (ivs writes = [ (0, 1); (20, 21) ]);
  check_bool "out-of-order stream sorted" true (Coalescer.sort_stats c = (0, 1))

let test_sort_skip_leftward_merge () =
  (* The subtle case: the merge target is the LAST entry but the access
     extends its [lo] leftwards, creating adjacency with the previous entry
     that only the sort+re-merge pass repairs. *)
  let c = Coalescer.create () in
  Coalescer.add_read c ~addr:0 ~len:5;
  Coalescer.add_read c ~addr:6 ~len:4;
  Coalescer.add_read c ~addr:5 ~len:2 (* hulls with [6,9] -> [5,9], adjacent to [0,4] *);
  let reads, _ = Coalescer.finish c in
  check_bool "re-merged into one" true (ivs reads = [ (0, 9) ]);
  check_bool "leftward merge forced the sort" true (Coalescer.sort_stats c = (0, 1))

let test_sort_stats_accumulate () =
  let c = Coalescer.create () in
  Coalescer.add_read c ~addr:0 ~len:1;
  ignore (Coalescer.finish c);
  Coalescer.add_read c ~addr:9 ~len:1;
  Coalescer.add_read c ~addr:0 ~len:1;
  ignore (Coalescer.finish c);
  check_bool "stats survive finish, flag resets" true (Coalescer.sort_stats c = (1, 1))

(* Property: finish produces a canonical disjoint cover of exactly the
   accessed addresses. *)
let coalescer_canonical_prop =
  QCheck.Test.make ~name:"coalescer canonical cover" ~count:300
    QCheck.(small_list (pair (int_bound 200) (int_range 1 8)))
    (fun accesses ->
      let c = Coalescer.create () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (addr, len) ->
          Coalescer.add_read c ~addr ~len;
          for a = addr to addr + len - 1 do
            Hashtbl.replace model a ()
          done)
        accesses;
      let reads, _ = Coalescer.finish c in
      (* sorted, disjoint, non-adjacent *)
      let ok_shape = ref true in
      Array.iteri
        (fun i r ->
          if i > 0 then begin
            let prev = reads.(i - 1) in
            if r.Interval.lo <= prev.Interval.hi + 1 then ok_shape := false
          end)
        reads;
      (* exact cover *)
      let covered = Hashtbl.create 64 in
      Array.iter
        (fun r ->
          for a = r.Interval.lo to r.Interval.hi do
            Hashtbl.replace covered a ()
          done)
        reads;
      !ok_shape
      && Hashtbl.length covered = Hashtbl.length model
      && Hashtbl.fold (fun a () acc -> acc && Hashtbl.mem covered a) model true)

let () =
  Alcotest.run "pint_interval"
    [
      ( "interval",
        [
          Alcotest.test_case "make invalid" `Quick test_make_invalid;
          Alcotest.test_case "point/width/contains" `Quick test_point_width;
          Alcotest.test_case "overlaps" `Quick test_overlaps;
          Alcotest.test_case "hull/inter" `Quick test_hull_inter;
          Alcotest.test_case "compare" `Quick test_compare;
        ] );
      ( "coalescer",
        [
          Alcotest.test_case "contiguous run" `Quick test_coalesce_contiguous_run;
          Alcotest.test_case "reverse run" `Quick test_coalesce_reverse_run;
          Alcotest.test_case "strided stays separate" `Quick test_coalesce_strided;
          Alcotest.test_case "bulk accesses" `Quick test_coalesce_bulk;
          Alcotest.test_case "reads vs writes" `Quick test_reads_writes_separate;
          Alcotest.test_case "raw counts & reset" `Quick test_raw_counts_and_reset;
          Alcotest.test_case "invalid len" `Quick test_add_invalid_len;
          Alcotest.test_case "sort skip: monotone" `Quick test_sort_skip_monotone;
          Alcotest.test_case "sort skip: out of order" `Quick test_sort_skip_out_of_order;
          Alcotest.test_case "sort skip: leftward merge" `Quick test_sort_skip_leftward_merge;
          Alcotest.test_case "sort stats accumulate" `Quick test_sort_stats_accumulate;
          QCheck_alcotest.to_alcotest coalescer_canonical_prop;
        ] );
    ]
