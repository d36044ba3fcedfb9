(* Report collector tests: deduplication granularity, ordering of [races],
   and thread-safety of concurrent [add] from multiple domains (the
   situation PINT's writer/reader treap workers create); and the race
   table a treap role consults before it sends a pair. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let iv a b = Interval.make a b

let test_dedup_same_pair_same_kind () =
  let t = Report.create () in
  Report.add t Report.Write_write ~prior:1 ~current:2 (iv 0 7);
  Report.add t Report.Write_write ~prior:1 ~current:2 (iv 100 200);
  Report.add t Report.Write_write ~prior:1 ~current:2 (iv 0 7);
  check_int "distinct" 1 (Report.count t);
  check_int "raw" 3 (Report.raw_count t);
  check_bool "mem" true (Report.mem t ~prior:1 ~current:2);
  check_bool "mem other order" false (Report.mem t ~prior:2 ~current:1)

let test_kinds_distinguish () =
  (* same strand pair, three kinds: three distinct races — kind is part of
     the Theorem-5 granularity *)
  let t = Report.create () in
  Report.add t Report.Write_write ~prior:1 ~current:2 (iv 0 0);
  Report.add t Report.Write_read ~prior:1 ~current:2 (iv 0 0);
  Report.add t Report.Read_write ~prior:1 ~current:2 (iv 0 0);
  Report.add t Report.Read_write ~prior:1 ~current:2 (iv 5 9);
  check_int "three kinds" 3 (Report.count t);
  check_int "raw counts duplicates" 4 (Report.raw_count t)

let test_races_ordering () =
  let t = Report.create () in
  (* inserted out of order on purpose *)
  Report.add t Report.Read_write ~prior:3 ~current:9 (iv 0 0);
  Report.add t Report.Write_write ~prior:1 ~current:5 (iv 0 0);
  Report.add t Report.Write_read ~prior:1 ~current:2 (iv 0 0);
  Report.add t Report.Write_write ~prior:1 ~current:2 (iv 0 0);
  Report.add t Report.Write_write ~prior:2 ~current:3 (iv 0 0);
  let keys =
    List.map
      (fun (r : Report.race) -> (r.Report.prior, r.Report.current, r.Report.kind))
      (Report.races t)
  in
  check_bool "sorted by (prior, current, kind)" true (keys = List.sort compare keys);
  check_int "all present" 5 (List.length keys);
  (* first witness for a pair+kind is kept *)
  Report.add t Report.Write_write ~prior:1 ~current:5 (iv 77 88);
  let r =
    List.find
      (fun (r : Report.race) ->
        r.Report.prior = 1 && r.Report.current = 5 && r.Report.kind = Report.Write_write)
      (Report.races t)
  in
  check_bool "witness stable under duplicate add" true (r.Report.where = iv 0 0)

let test_concurrent_add () =
  (* 4 domains × 1000 adds over a shared key space of 250 (pair, kind)
     combinations: every add lands, dedup stays exact, no tearing *)
  let t = Report.create () in
  let n_domains = 4 and per_domain = 1000 in
  let worker d () =
    for i = 0 to per_domain - 1 do
      let k = (i + (d * 37)) mod 250 in
      let kind =
        match k mod 3 with 0 -> Report.Write_write | 1 -> Report.Write_read | _ -> Report.Read_write
      in
      Report.add t kind ~prior:(k / 3) ~current:(100 + (k / 3)) (iv k (k + 1))
    done
  in
  let domains = List.init n_domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join domains;
  check_int "every raw add counted" (n_domains * per_domain) (Report.raw_count t);
  check_int "exactly the key space deduplicated" 250 (Report.count t);
  check_int "races returns them all" 250 (List.length (Report.races t));
  let keys =
    List.map
      (fun (r : Report.race) -> (r.Report.prior, r.Report.current, r.Report.kind))
      (Report.races t)
  in
  check_bool "ordered even after concurrent adds" true (keys = List.sort compare keys)

(* ------------------------------------------------------------ race table *)

let kinds = [ Report.Write_write; Report.Write_read; Report.Read_write ]

(* Priors 5 and 5 + slots share an entry: interleaved within one strand,
   each evicts the other, so each is sent again after the other, and a
   repeat with nothing in between is not. *)
let test_table_collisions () =
  let t = Race_table.create () in
  Race_table.next_strand t;
  let a = 5 and b = 5 + Race_table.slots in
  let first p = Race_table.first t ~prior:p Report.Write_write in
  check_bool "a sent" true (first a);
  check_bool "a again" false (first a);
  check_bool "b evicts a" true (first b);
  check_bool "a sent again" true (first a);
  check_bool "b sent again" true (first b);
  check_bool "b again" false (first b);
  check_bool "other kind of a" true (Race_table.first t ~prior:a Report.Read_write);
  check_bool "b kept" false (first b)

let test_table_kinds () =
  let t = Race_table.create () in
  Race_table.next_strand t;
  List.iter
    (fun k ->
      check_bool (Report.kind_to_string k ^ " sent") true (Race_table.first t ~prior:7 k))
    kinds;
  List.iter
    (fun k ->
      check_bool (Report.kind_to_string k ^ " not again") false (Race_table.first t ~prior:7 k))
    kinds

let test_table_next_strand () =
  let t = Race_table.create () in
  Race_table.next_strand t;
  List.iter (fun k -> ignore (Race_table.first t ~prior:3 k)) kinds;
  Race_table.next_strand t;
  List.iter
    (fun k ->
      check_bool (Report.kind_to_string k ^ " sent for the next strand") true
        (Race_table.first t ~prior:3 k))
    kinds

let () =
  Alcotest.run "pint_report"
    [
      ( "dedup",
        [
          Alcotest.test_case "same pair same kind" `Quick test_dedup_same_pair_same_kind;
          Alcotest.test_case "kinds distinguish" `Quick test_kinds_distinguish;
        ] );
      ("ordering", [ Alcotest.test_case "races sorted" `Quick test_races_ordering ]);
      ("concurrency", [ Alcotest.test_case "multi-domain add" `Quick test_concurrent_add ]);
      ( "race table",
        [
          Alcotest.test_case "colliding priors" `Quick test_table_collisions;
          Alcotest.test_case "three kinds" `Quick test_table_kinds;
          Alcotest.test_case "next strand" `Quick test_table_next_strand;
        ] );
    ]
