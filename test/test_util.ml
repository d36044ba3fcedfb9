(* Unit and property tests for Pint_util: Rng, Vec. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next a = Rng.next b then incr same
  done;
  check_bool "different seeds diverge" true (!same < 4)

let test_rng_copy () =
  let a = Rng.create 7 in
  let _ = Rng.next a in
  let b = Rng.copy a in
  check_int "copy continues identically" (Rng.next a) (Rng.next b)

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.next a = Rng.next b then incr matches
  done;
  check_bool "split streams differ" true (!matches < 4)

let test_rng_int_bounds () =
  let r = Rng.create 9 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_invalid () =
  let r = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_float_range () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let f = Rng.float r in
    check_bool "in [0,1)" true (f >= 0. && f < 1.)
  done

let test_rng_uniformity () =
  (* Coarse chi-square-ish sanity: 10 buckets, 10k draws. *)
  let r = Rng.create 11 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let b = Rng.int r 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter (fun c -> check_bool "bucket near uniform" true (c > 800 && c < 1200)) buckets

let test_rng_shuffle_permutation () =
  let r = Rng.create 13 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* ------------------------------------------------------------------ Vec *)

let test_vec_push_get () =
  let v = Vec.create 0 in
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  check_int "length" 100 (Vec.length v);
  for i = 0 to 99 do
    check_int "get" (i * i) (Vec.get v i)
  done

let test_vec_pop_lifo () =
  let v = Vec.create 0 in
  List.iter (Vec.push v) [ 1; 2; 3 ];
  check_int "peek" 3 (Vec.peek v);
  check_int "pop" 3 (Vec.pop v);
  check_int "pop" 2 (Vec.pop v);
  check_int "length" 1 (Vec.length v)

let test_vec_bounds () =
  let v = Vec.create 0 in
  Vec.push v 1;
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index out of bounds") (fun () ->
      ignore (Vec.get v 1));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec.set: index out of bounds") (fun () ->
      Vec.set v (-1) 0)

let test_vec_pop_empty () =
  let v = Vec.create 0 in
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      ignore (Vec.pop v))

let test_vec_clear () =
  let v = Vec.create 0 in
  List.iter (Vec.push v) [ 1; 2; 3 ];
  Vec.clear v;
  check_int "cleared" 0 (Vec.length v);
  Vec.push v 9;
  check_int "reusable" 9 (Vec.get v 0)

let test_vec_sort_truncate () =
  let v = Vec.of_array ~dummy:0 [| 5; 1; 4; 2; 3 |] in
  Vec.sort compare v;
  Alcotest.(check (array int)) "sorted" [| 1; 2; 3; 4; 5 |] (Vec.to_array v);
  Vec.truncate v 2;
  Alcotest.(check (array int)) "truncated" [| 1; 2 |] (Vec.to_array v)

let test_vec_iter_fold () =
  let v = Vec.of_array ~dummy:0 [| 1; 2; 3; 4 |] in
  check_int "fold sum" 10 (Vec.fold_left ( + ) 0 v);
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  check_int "iteri count" 4 (List.length !acc)

let vec_model_prop =
  QCheck.Test.make ~name:"vec behaves like list" ~count:300
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let v = Vec.create 0 in
      let model = ref [] in
      List.iter
        (fun (is_push, x) ->
          if is_push then begin
            Vec.push v x;
            model := x :: !model
          end
          else
            match !model with
            | [] -> ()
            | m :: rest ->
                let got = Vec.pop v in
                if got <> m then QCheck.Test.fail_reportf "pop %d <> %d" got m;
                model := rest)
        ops;
      List.rev !model = Array.to_list (Vec.to_array v))

let () =
  Alcotest.run "pint_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "pop lifo" `Quick test_vec_pop_lifo;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "pop empty" `Quick test_vec_pop_empty;
          Alcotest.test_case "clear" `Quick test_vec_clear;
          Alcotest.test_case "sort/truncate" `Quick test_vec_sort_truncate;
          Alcotest.test_case "iter/fold" `Quick test_vec_iter_fold;
          QCheck_alcotest.to_alcotest vec_model_prop;
        ] );
    ]
