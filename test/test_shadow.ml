(* Unit tests for the simulated address space, instrumented buffers, and the
   ambient access sink. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------- aspace *)

let test_heap_alloc_disjoint () =
  let a = Aspace.create () in
  let b1 = Aspace.heap_alloc a 100 in
  let b2 = Aspace.heap_alloc a 50 in
  check_bool "disjoint" true (b2 >= b1 + 100 || b1 >= b2 + 50);
  check_int "live words" 150 (Aspace.heap_live_words a);
  check_bool "block live" true (Aspace.heap_block_live a ~base:b1 ~len:100)

let test_heap_free_reuse () =
  let a = Aspace.create () in
  let b1 = Aspace.heap_alloc a 64 in
  Aspace.heap_free a ~base:b1 ~len:64;
  check_int "live words" 0 (Aspace.heap_live_words a);
  let b2 = Aspace.heap_alloc a 64 in
  check_int "first fit reuses" b1 b2

let test_heap_free_coalesce () =
  let a = Aspace.create () in
  let b1 = Aspace.heap_alloc a 32 in
  let b2 = Aspace.heap_alloc a 32 in
  let b3 = Aspace.heap_alloc a 32 in
  check_int "contiguous" (b1 + 32) b2;
  Aspace.heap_free a ~base:b1 ~len:32;
  Aspace.heap_free a ~base:b3 ~len:32;
  Aspace.heap_free a ~base:b2 ~len:32;
  (* all three coalesce: a 96-word alloc fits at b1 *)
  check_int "coalesced" b1 (Aspace.heap_alloc a 96)

let test_heap_split_block () =
  let a = Aspace.create () in
  let b1 = Aspace.heap_alloc a 100 in
  Aspace.heap_free a ~base:b1 ~len:100;
  let s1 = Aspace.heap_alloc a 40 in
  let s2 = Aspace.heap_alloc a 40 in
  check_int "first split" b1 s1;
  check_int "second split" (b1 + 40) s2

let test_heap_double_free () =
  let a = Aspace.create () in
  let b1 = Aspace.heap_alloc a 10 in
  Aspace.heap_free a ~base:b1 ~len:10;
  check_bool "double free rejected" true
    (try
       Aspace.heap_free a ~base:b1 ~len:10;
       false
     with Failure _ -> true)

let test_heap_wrong_length_free () =
  let a = Aspace.create () in
  let b1 = Aspace.heap_alloc a 10 in
  check_bool "wrong length rejected" true
    (try
       Aspace.heap_free a ~base:b1 ~len:5;
       false
     with Failure _ -> true)

let test_stack_lifo () =
  let a = Aspace.create () in
  let f1 = Aspace.frame_push a ~worker:0 ~words:16 in
  let f2 = Aspace.frame_push a ~worker:0 ~words:16 in
  check_int "stacked" (f1 + 16) f2;
  Aspace.frame_pop a ~worker:0 ~base:f2;
  let f3 = Aspace.frame_push a ~worker:0 ~words:16 in
  check_int "reuses popped slot" f2 f3;
  check_int "used" 32 (Aspace.stack_used a ~worker:0)

let test_stack_lazy_reclaim () =
  (* popping a non-top frame must not free its space until the frames above
     it are gone *)
  let a = Aspace.create () in
  let f1 = Aspace.frame_push a ~worker:0 ~words:8 in
  let f2 = Aspace.frame_push a ~worker:0 ~words:8 in
  Aspace.frame_pop a ~worker:0 ~base:f1;
  check_int "still occupied" 16 (Aspace.stack_used a ~worker:0);
  let f3 = Aspace.frame_push a ~worker:0 ~words:8 in
  check_bool "no overlap with live f2" true (f3 >= f2 + 8);
  Aspace.frame_pop a ~worker:0 ~base:f3;
  Aspace.frame_pop a ~worker:0 ~base:f2;
  check_int "all reclaimed" 0 (Aspace.stack_used a ~worker:0)

let test_stack_per_worker_isolation () =
  let a = Aspace.create () in
  let f0 = Aspace.frame_push a ~worker:0 ~words:8 in
  let f1 = Aspace.frame_push a ~worker:1 ~words:8 in
  check_bool "separate regions" true (abs (f0 - f1) >= 8);
  check_bool "stack addrs" true (Aspace.is_stack_addr a f0 && Aspace.is_stack_addr a f1)

let test_stack_bad_pop () =
  let a = Aspace.create () in
  check_bool "bad pop rejected" true
    (try
       Aspace.frame_pop a ~worker:0 ~base:12345;
       false
     with Failure _ -> true)

let test_heap_above_stacks () =
  let a = Aspace.create () in
  let h = Aspace.heap_alloc a 8 in
  check_bool "heap not stack" false (Aspace.is_stack_addr a h)

(* ------------------------------------------------------------- membuf *)

let record_sink log =
  {
    Access.on_read = (fun ~addr ~len -> log := `R (addr, len) :: !log);
    on_write = (fun ~addr ~len -> log := `W (addr, len) :: !log);
    on_free = (fun ~base ~len -> log := `F (base, len) :: !log);
    on_compute = (fun ~amount -> log := `C amount :: !log);
  }

let with_sink f =
  let log = ref [] in
  Access.install (record_sink log);
  Fun.protect ~finally:Access.uninstall (fun () -> f ());
  List.rev !log

let test_membuf_events () =
  let a = Aspace.create () in
  let b = Membuf.alloc_f a 16 in
  let base = Membuf.base_f b in
  let events =
    with_sink (fun () ->
        Membuf.set_f b 3 1.5;
        ignore (Membuf.get_f b 3);
        Membuf.fill_f b 4 4 2.0;
        Membuf.blit_f b 4 b 8 4;
        Membuf.free_f b)
  in
  Alcotest.(check (list string))
    "event stream"
    [ "W3/1"; "R3/1"; "W4/4"; "R4/4"; "W8/4"; "F0/16" ]
    (List.map
       (function
         | `R (a, l) -> Printf.sprintf "R%d/%d" (a - base) l
         | `W (a, l) -> Printf.sprintf "W%d/%d" (a - base) l
         | `F (a, l) -> Printf.sprintf "F%d/%d" (a - base) l
         | `C n -> Printf.sprintf "C%d" n)
       events);
  check_bool "value stored" true (Membuf.peek_f b 3 = 1.5);
  check_bool "fill worked" true (Membuf.peek_f b 5 = 2.0);
  check_bool "blit worked" true (Membuf.peek_f b 9 = 2.0)

let test_membuf_peek_poke_silent () =
  let a = Aspace.create () in
  let b = Membuf.alloc_f a 4 in
  let events =
    with_sink (fun () ->
        Membuf.poke_f b 0 9.0;
        ignore (Membuf.peek_f b 0))
  in
  check_int "no events" 0 (List.length events)

let test_membuf_compute () =
  let a = Aspace.create () in
  ignore (Membuf.alloc_f a 1);
  let events = with_sink (fun () -> Access.emit_compute ~amount:77) in
  check_bool "compute event" true (events = [ `C 77 ])

let test_frame_hook () =
  let a = Aspace.create () in
  let popped = ref None in
  Membuf.Frame.with_f_hooked a ~worker:0 ~words:32
    ~on_pop:(fun ~base ~len -> popped := Some (base, len))
    (fun fr ->
      Membuf.poke_f fr 0 1.0;
      check_int "frame length" 32 (Membuf.length_f fr));
  check_bool "pop hook fired" true (!popped <> None);
  check_int "stack empty" 0 (Aspace.stack_used a ~worker:0)

let test_frame_free_rejected () =
  let a = Aspace.create () in
  Membuf.Frame.with_f_hooked a ~worker:0 ~words:8
    ~on_pop:(fun ~base:_ ~len:_ -> ())
    (fun fr ->
      Alcotest.check_raises "free of stack frame" (Invalid_argument "Membuf.free_f: stack frame")
        (fun () -> Membuf.free_f fr))

let test_sink_is_per_domain () =
  let log = ref [] in
  Access.install (record_sink log);
  let d =
    Domain.spawn (fun () ->
        (* fresh domain: default noop sink *)
        Access.emit_read ~addr:0 ~len:1;
        ())
  in
  Domain.join d;
  Access.uninstall ();
  check_int "other domain's events not captured" 0 (List.length !log)

let () =
  Alcotest.run "pint_shadow"
    [
      ( "aspace-heap",
        [
          Alcotest.test_case "alloc disjoint" `Quick test_heap_alloc_disjoint;
          Alcotest.test_case "free/reuse" `Quick test_heap_free_reuse;
          Alcotest.test_case "coalesce" `Quick test_heap_free_coalesce;
          Alcotest.test_case "split" `Quick test_heap_split_block;
          Alcotest.test_case "double free" `Quick test_heap_double_free;
          Alcotest.test_case "wrong length" `Quick test_heap_wrong_length_free;
          Alcotest.test_case "heap above stacks" `Quick test_heap_above_stacks;
        ] );
      ( "aspace-stack",
        [
          Alcotest.test_case "lifo" `Quick test_stack_lifo;
          Alcotest.test_case "lazy reclaim" `Quick test_stack_lazy_reclaim;
          Alcotest.test_case "worker isolation" `Quick test_stack_per_worker_isolation;
          Alcotest.test_case "bad pop" `Quick test_stack_bad_pop;
        ] );
      ( "membuf",
        [
          Alcotest.test_case "event stream" `Quick test_membuf_events;
          Alcotest.test_case "peek/poke silent" `Quick test_membuf_peek_poke_silent;
          Alcotest.test_case "compute events" `Quick test_membuf_compute;
          Alcotest.test_case "frame hook" `Quick test_frame_hook;
          Alcotest.test_case "frame free rejected" `Quick test_frame_free_rejected;
          Alcotest.test_case "per-domain sink" `Quick test_sink_is_per_domain;
        ] );
    ]
