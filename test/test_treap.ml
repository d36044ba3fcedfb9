(* Interval-treap tests: directed unit cases (including the paper's §III-A
   example) plus model-based random testing against a per-address reference
   map. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let iv = Interval.make
let make_treap ?(seed = 42) () = Itreap.create ~seed ~owner_eq:Int.equal ()

let entries t =
  List.map (fun (i, o) -> (i.Interval.lo, i.Interval.hi, o)) (Itreap.to_list t)

let entry_t = Alcotest.(list (triple int int int))

(* The depth of the entry holding [addr], root = 1: the visits [find]
   makes.  A test can see the tree's shape through it. *)
let depth t addr =
  let v0 = Itreap.visits t in
  ignore (Itreap.find t addr);
  Itreap.visits t - v0

let build ?seed es =
  let t = make_treap ?seed () in
  List.iter (fun (l, h, o) -> Itreap.insert_replace t l h o) es;
  t

(* ------------------------------------------------------------- directed *)

let test_empty () =
  let t = make_treap () in
  check_int "size" 0 (Itreap.size t);
  check_int "covered" 0 (Itreap.covered t);
  check_bool "find none" true (Itreap.find t 5 = None);
  Itreap.validate t

let test_single_insert () =
  let t = make_treap () in
  Itreap.insert_replace t 10 20 1;
  Alcotest.check entry_t "one entry" [ (10, 20, 1) ] (entries t);
  check_int "covered" 11 (Itreap.covered t);
  check_bool "find inside" true (Itreap.find t 15 = Some (iv 10 20, 1));
  check_bool "find outside" true (Itreap.find t 21 = None);
  Itreap.validate t

let test_paper_example () =
  (* §III-A: writer treap {[1,4,u],[6,10,v]}; w writes [3,7] →
     {[1,2,u],[3,7,w],[8,10,v]} *)
  let u = 1 and v = 2 and w = 3 in
  let t = make_treap () in
  Itreap.insert_replace t 1 4 u;
  Itreap.insert_replace t 6 10 v;
  Itreap.insert_replace t 3 7 w;
  Alcotest.check entry_t "paper example" [ (1, 2, u); (3, 7, w); (8, 10, v) ] (entries t);
  Itreap.validate t

let test_replace_exact () =
  let t = make_treap () in
  Itreap.insert_replace t 5 9 1;
  Itreap.insert_replace t 5 9 2;
  Alcotest.check entry_t "replaced" [ (5, 9, 2) ] (entries t);
  Itreap.validate t

let test_replace_engulf () =
  let t = make_treap () in
  Itreap.insert_replace t 5 6 1;
  Itreap.insert_replace t 8 9 2;
  Itreap.insert_replace t 0 20 3;
  Alcotest.check entry_t "engulfed" [ (0, 20, 3) ] (entries t);
  Itreap.validate t

let test_replace_interior_split () =
  let t = make_treap () in
  Itreap.insert_replace t 0 20 1;
  Itreap.insert_replace t 8 12 2;
  Alcotest.check entry_t "split" [ (0, 7, 1); (8, 12, 2); (13, 20, 1) ] (entries t);
  check_int "covered unchanged" 21 (Itreap.covered t);
  Itreap.validate t

let test_same_owner_merge () =
  let t = make_treap () in
  Itreap.insert_replace t 0 4 1;
  Itreap.insert_replace t 5 9 1;
  Alcotest.check entry_t "adjacent same owner merged" [ (0, 9, 1) ] (entries t);
  Itreap.insert_replace t 20 29 1;
  Itreap.insert_replace t 10 19 1;
  Alcotest.check entry_t "merge both sides" [ (0, 29, 1) ] (entries t);
  check_int "one node" 1 (Itreap.size t);
  Itreap.validate t

let test_query_order () =
  let t = make_treap () in
  List.iter (fun (l, h, o) -> Itreap.insert_replace t l h o)
    [ (0, 4, 1); (10, 14, 2); (20, 24, 3); (30, 34, 4) ];
  let got = ref [] in
  Itreap.query t 12 31 ~f:(fun lo _ o -> got := (lo, o) :: !got);
  Alcotest.(check (list (pair int int)))
    "overlaps in address order"
    [ (10, 2); (20, 3); (30, 4) ]
    (List.rev !got)

let test_query_none () =
  let t = make_treap () in
  Itreap.insert_replace t 0 4 1;
  Itreap.insert_replace t 10 14 2;
  let got = ref 0 in
  Itreap.query t 5 9 ~f:(fun _ _ _ -> incr got);
  check_int "gap query" 0 !got

let test_clear_range () =
  let t = make_treap () in
  Itreap.insert_replace t 0 20 1;
  Itreap.clear_range t 5 15;
  Alcotest.check entry_t "cleared middle" [ (0, 4, 1); (16, 20, 1) ] (entries t);
  Itreap.clear_range t 0 100;
  Alcotest.check entry_t "cleared all" [] (entries t);
  check_int "covered" 0 (Itreap.covered t);
  Itreap.validate t

let test_clear_range_noop () =
  let t = make_treap () in
  Itreap.insert_replace t 0 4 1;
  Itreap.clear_range t 10 20;
  Alcotest.check entry_t "untouched" [ (0, 4, 1) ] (entries t);
  Itreap.validate t

let test_insert_merge_gap_only () =
  let t = make_treap () in
  Itreap.insert_merge t 3 9 7 ~keep:(fun ~incumbent:_ -> `Keep);
  Alcotest.check entry_t "gap gets new owner" [ (3, 9, 7) ] (entries t);
  Itreap.validate t

let test_insert_merge_keep () =
  let t = make_treap () in
  Itreap.insert_replace t 5 9 1;
  Itreap.insert_merge t 0 14 2 ~keep:(fun ~incumbent:_ -> `Keep);
  Alcotest.check entry_t "incumbent kept, gaps filled"
    [ (0, 4, 2); (5, 9, 1); (10, 14, 2) ]
    (entries t);
  Itreap.validate t

let test_insert_merge_replace () =
  let t = make_treap () in
  Itreap.insert_replace t 5 9 1;
  Itreap.insert_merge t 0 14 2 ~keep:(fun ~incumbent:_ -> `Replace);
  Alcotest.check entry_t "all replaced and coalesced" [ (0, 14, 2) ] (entries t);
  check_int "single node" 1 (Itreap.size t);
  Itreap.validate t

let test_insert_merge_partial_overlap () =
  let t = make_treap () in
  Itreap.insert_replace t 0 9 1;
  (* New reader overlaps the right half only; incumbent survives on the
     overlap, the stickout keeps its owner. *)
  Itreap.insert_merge t 5 14 2 ~keep:(fun ~incumbent:_ -> `Keep);
  Alcotest.check entry_t "partial overlap"
    [ (0, 9, 1); (10, 14, 2) ]
    (entries t);
  Itreap.validate t

let test_insert_merge_mixed_policy () =
  let t = make_treap () in
  Itreap.insert_replace t 0 4 1;
  Itreap.insert_replace t 6 10 3;
  (* keep incumbents smaller than the new owner 2: keeps 1, replaces 3 *)
  let keep ~incumbent = if incumbent < 2 then `Keep else `Replace in
  Itreap.insert_merge t 0 12 2 ~keep;
  Alcotest.check entry_t "mixed" [ (0, 4, 1); (5, 12, 2) ] (entries t);
  Itreap.validate t

let test_reset () =
  let t = make_treap () in
  Itreap.insert_replace t 0 9 1;
  Itreap.reset t;
  check_int "size" 0 (Itreap.size t);
  Alcotest.check entry_t "empty" [] (entries t)

let test_visits_counted () =
  let t = make_treap () in
  for i = 0 to 63 do
    Itreap.insert_replace t (i * 10) ((i * 10) + 4) i
  done;
  check_bool "visits accumulate" true (Itreap.visits t > 64)

(* ------------------------------------------------------ model based *)

(* Reference: explicit per-address owner map over a small address space. *)
module Model = struct
  let space = 256

  type t = int option array

  let create () : t = Array.make space None

  let insert_replace (m : t) i o =
    for a = i.Interval.lo to min i.Interval.hi (space - 1) do
      m.(a) <- Some o
    done

  let insert_merge (m : t) i o ~keep =
    for a = i.Interval.lo to min i.Interval.hi (space - 1) do
      match m.(a) with
      | None -> m.(a) <- Some o
      | Some u -> ( match keep ~incumbent:u with `Keep -> () | `Replace -> m.(a) <- Some o)
    done

  let clear (m : t) i =
    for a = i.Interval.lo to min i.Interval.hi (space - 1) do
      m.(a) <- None
    done
end

type op = Replace of int * int * int | Merge of int * int * int | Clear of int * int

let op_gen =
  let open QCheck.Gen in
  let range = pair (int_bound (Model.space - 20)) (int_range 1 19) in
  let owner = int_range 0 7 in
  frequency
    [
      (4, map2 (fun (lo, w) o -> Replace (lo, lo + w - 1, o)) range owner);
      (4, map2 (fun (lo, w) o -> Merge (lo, lo + w - 1, o)) range owner);
      (1, map (fun (lo, w) -> Clear (lo, lo + w - 1)) range);
    ]

(* Grid-aligned ranges: a range starts on or halfway into one of the
   model space's 8-address cells and spans a whole cell, half a cell or two
   cells, so it often re-covers a stored range exactly, touches one, or
   straddles a cell boundary; four owners make equal-owner neighbours
   common.  These reach the probe's in-place and touch-only outcomes, which
   [op_gen]'s free ranges rarely do. *)
let grid_op_gen =
  let open QCheck.Gen in
  let range =
    map3
      (fun cell off len -> ((cell * 8) + off, (cell * 8) + off + len - 1))
      (int_bound ((Model.space / 8) - 3))
      (oneofl [ 0; 0; 4 ])
      (oneofl [ 8; 8; 4; 16 ])
  in
  let owner = int_range 0 3 in
  frequency
    [
      (4, map2 (fun (lo, hi) o -> Replace (lo, hi, o)) range owner);
      (4, map2 (fun (lo, hi) o -> Merge (lo, hi, o)) range owner);
      (1, map (fun (lo, hi) -> Clear (lo, hi)) range);
    ]

let op_print = function
  | Replace (l, h, o) -> Printf.sprintf "Replace[%d,%d]@%d" l h o
  | Merge (l, h, o) -> Printf.sprintf "Merge[%d,%d]@%d" l h o
  | Clear (l, h) -> Printf.sprintf "Clear[%d,%d]" l h

(* the merge policy must be a pure function of the owners *)
let policy ~new_owner ~incumbent = if incumbent <= new_owner then `Keep else `Replace

let apply t = function
  | Replace (l, h, o) -> Itreap.insert_replace t l h o
  | Merge (l, h, o) -> Itreap.insert_merge t l h o ~keep:(policy ~new_owner:o)
  | Clear (l, h) -> Itreap.clear_range t l h

(* The shapes an operation can take through the treap, told apart from
   outside: the entries stored before it, its path counters, and the depth
   of each entry, which [find]'s visit count gives.  A probe meets the
   stored intervals that intersect its range or touch it with its owner
   (its hits) at their shallowest one first, since they are contiguous in
   key order. *)
let shapes =
  [
    "done in place";
    "touch-only join_mid";
    "first hit straddles lo";
    "first hit touches lo";
    "first hit touches hi";
    "touch with an empty lower half";
    "touch with an empty upper half";
    "exact hit split from the root";
    "clear with an empty lower half";
    "clear with an empty upper half";
  ]

(* How often a run reached each shape. *)
type reached = (string, int) Hashtbl.t

let reached () : reached = Hashtbl.create 16
let reach (r : reached) shape =
  Hashtbl.replace r shape (1 + Option.value ~default:0 (Hashtbl.find_opt r shape))

(* Apply [op] to [t], note its shape, and check the path it took against
   the entries stored before it: an insert takes the [join_mid] path
   exactly when it has no hit, and is done in place only when its first
   hit is exactly its range. *)
let apply_tracked r t op =
  let before = entries t in
  let fast0 = Itreap.fastpath_hits t
  and inplace0 = Itreap.inplace_hits t
  and slow0 = Itreap.slowpath_hits t in
  let shallowest hits =
    match List.sort compare (List.map (fun ((lo, _, _) as e) -> (depth t lo, e)) hits) with
    | [] -> None
    | (_, e) :: _ -> Some e
  in
  let intersects l h (lo, hi, _) = lo <= h && hi >= l in
  let no_lower l = not (List.exists (fun (_, hi, _) -> hi < l) before)
  and no_upper h = not (List.exists (fun (lo, _, _) -> lo > h) before) in
  match op with
  | Clear (l, h) ->
      apply t op;
      if List.exists (intersects l h) before then begin
        if no_lower l then reach r "clear with an empty lower half";
        if no_upper h then reach r "clear with an empty upper half"
      end;
      true
  | Replace (l, h, o) | Merge (l, h, o) ->
      let touches (lo, hi, _) = hi + 1 = l || lo = h + 1 in
      let hit ((_, _, u) as e) = intersects l h e || (touches e && u = o) in
      let hits = List.filter hit before in
      let first = shallowest hits in
      apply t op;
      let fast = Itreap.fastpath_hits t - fast0
      and inplace = Itreap.inplace_hits t - inplace0
      and slow = Itreap.slowpath_hits t - slow0 in
      if fast = 1 && List.exists touches before then reach r "touch-only join_mid";
      if inplace = 1 then reach r "done in place";
      (match first with
      | Some (lo, hi, _) when lo = l && hi = h ->
          if slow = 1 then reach r "exact hit split from the root"
      | Some (lo, hi, _) when lo < l && hi >= l -> reach r "first hit straddles lo"
      | Some (_, hi, _) when hi + 1 = l ->
          reach r "first hit touches lo";
          if no_upper h then reach r "touch with an empty upper half"
      | Some (lo, _, _) when lo = h + 1 ->
          reach r "first hit touches hi";
          if no_lower l then reach r "touch with an empty lower half"
      | _ -> ());
      let exact = match first with Some (lo, hi, _) -> lo = l && hi = h | None -> false in
      fast = (if first = None then 1 else 0) && (inplace = 0 || exact) && fast + inplace + slow = 1

(* A grid run must have reached every shape at least once. *)
let grid_case prop =
  let r = reached () in
  let name, speed, run = QCheck_alcotest.to_alcotest (prop r) in
  Alcotest.test_case name speed (fun () ->
      run ();
      List.iter (fun shape -> check_bool ("reached: " ^ shape) true (Hashtbl.mem r shape)) shapes)

let agree t (m : Model.t) =
  (* every address agrees with the model *)
  let ok = ref true in
  for a = 0 to Model.space - 1 do
    let treap_owner = Option.map snd (Itreap.find t a) in
    if treap_owner <> m.(a) then ok := false
  done;
  (* coverage ledger agrees *)
  let model_cov = Array.fold_left (fun n x -> if x = None then n else n + 1) 0 m in
  !ok && model_cov = Itreap.covered t

let apply_model m = function
  | Replace (l, h, o) -> Model.insert_replace m (iv l h) o
  | Merge (l, h, o) -> Model.insert_merge m (iv l h) o ~keep:(policy ~new_owner:o)
  | Clear (l, h) -> Model.clear m (iv l h)

let op_list ~max_ops gen =
  QCheck.make ~print:QCheck.Print.(list op_print)
    (QCheck.Gen.list_size (QCheck.Gen.int_range 1 max_ops) gen)

let model_prop ~name ~count ~max_ops gen r =
  QCheck.Test.make ~name ~count (op_list ~max_ops gen)
    (fun ops ->
      let t = make_treap ~seed:7 () in
      let m = Model.create () in
      List.for_all
        (fun op ->
          let path_ok = apply_tracked r t op in
          apply_model m op;
          Itreap.validate t;
          path_ok && agree t m)
        ops)

let treap_model_prop =
  model_prop ~name:"treap agrees with per-address model" ~count:400 ~max_ops:40 op_gen (reached ())

let treap_query_model_prop =
  QCheck.Test.make ~name:"query returns exactly the overlapping owners" ~count:200
    (QCheck.make
       (QCheck.Gen.pair
          (QCheck.Gen.list_size (QCheck.Gen.int_range 1 30) op_gen)
          (QCheck.Gen.pair (QCheck.Gen.int_bound 235) (QCheck.Gen.int_range 1 19))))
    (fun (ops, (qlo, qw)) ->
      let t = make_treap ~seed:11 () in
      let m = Model.create () in
      List.iter
        (fun op ->
          apply t op;
          apply_model m op)
        ops;
      let q = iv qlo (qlo + qw - 1) in
      (* flatten the query result to per-address owners *)
      let from_query = Array.make Model.space None in
      Itreap.query t q.Interval.lo q.Interval.hi ~f:(fun lo hi o ->
          for a = max lo q.Interval.lo to min hi q.Interval.hi do
            from_query.(a) <- Some o
          done);
      let ok = ref true in
      for a = q.Interval.lo to q.Interval.hi do
        if a < Model.space && from_query.(a) <> m.(a) then ok := false
      done;
      !ok)

(* Naive sorted-list reference: the canonical entry list itself, maintained
   with brute-force erase/renormalize.  Where the per-address model above
   checks ownership, this one checks the exact stored representation —
   interval boundaries, coalescing, and entry count — after every op, which
   is what the fast/slow path split could plausibly get wrong. *)
module ListModel = struct
  type t = (int * int * int) list ref (* sorted by lo; disjoint; canonical *)

  let create () : t = ref []

  let erase l h es =
    List.concat_map
      (fun (lo, hi, o) ->
        if hi < l || lo > h then [ (lo, hi, o) ]
        else
          (if lo < l then [ (lo, l - 1, o) ] else [])
          @ if hi > h then [ (h + 1, hi, o) ] else [])
      es

  let normalize es =
    let rec merge = function
      | (l1, h1, o1) :: (l2, h2, o2) :: rest when o1 = o2 && h1 + 1 = l2 ->
          merge ((l1, h2, o1) :: rest)
      | e :: rest -> e :: merge rest
      | [] -> []
    in
    merge (List.sort compare es)

  let insert_replace m l h o = m := normalize ((l, h, o) :: erase l h !m)

  let insert_merge m l h o ~keep =
    let covered =
      List.filter_map
        (fun (lo, hi, u) ->
          let cl = max lo l and ch = min hi h in
          if cl > ch then None
          else Some (cl, ch, match keep ~incumbent:u with `Keep -> u | `Replace -> o))
        !m
    in
    let covered = List.sort compare covered in
    let rec gaps cur = function
      | [] -> if cur <= h then [ (cur, h, o) ] else []
      | (cl, ch, _) :: rest ->
          (if cur < cl then [ (cur, cl - 1, o) ] else []) @ gaps (ch + 1) rest
    in
    m := normalize (erase l h !m @ covered @ gaps l covered)

  let clear m l h = m := normalize (erase l h !m)
end

let apply_list m = function
  | Replace (l, h, o) -> ListModel.insert_replace m l h o
  | Merge (l, h, o) -> ListModel.insert_merge m l h o ~keep:(policy ~new_owner:o)
  | Clear (l, h) -> ListModel.clear m l h

let list_model_prop ~name ~count ~max_ops gen r =
  QCheck.Test.make ~name ~count (op_list ~max_ops gen)
    (fun ops ->
      let t = make_treap ~seed:13 () in
      let m = ListModel.create () in
      List.for_all
        (fun op ->
          let path_ok = apply_tracked r t op in
          apply_list m op;
          Itreap.validate t;
          path_ok && entries t = !m)
        ops)

let treap_list_model_prop =
  list_model_prop ~name:"treap entries match sorted-list model" ~count:400 ~max_ops:40 op_gen
    (reached ())

let test_path_counters () =
  let t = make_treap () in
  Itreap.insert_replace t 0 4 1;
  Itreap.insert_replace t 10 14 2;
  Itreap.insert_merge t 20 24 3 ~keep:(fun ~incumbent:_ -> `Keep);
  check_int "disjoint inserts take the fast path" 3 (Itreap.fastpath_hits t);
  check_int "no slow ops yet" 0 (Itreap.slowpath_hits t);
  Itreap.insert_replace t 3 12 4;
  check_int "overlap goes slow" 1 (Itreap.slowpath_hits t);
  check_int "first slow op grows the scratch" 0 (Itreap.scratch_reuse t);
  Itreap.insert_replace t 0 30 5;
  check_int "second slow op reuses it" 1 (Itreap.scratch_reuse t);
  (* Touching (not overlapping) a same-owner neighbour must still go slow:
     canonical form requires the coalescing only the general path does. *)
  Itreap.insert_replace t 31 35 5;
  check_int "adjacency goes slow" 3 (Itreap.slowpath_hits t);
  Alcotest.check entry_t "coalesced across the boundary" [ (0, 35, 5) ] (entries t);
  let f0 = Itreap.fastpath_hits t in
  Itreap.clear_range t 100 200;
  check_int "clear of untouched range is a fast no-op" (f0 + 1) (Itreap.fastpath_hits t);
  Alcotest.check entry_t "still intact" [ (0, 35, 5) ] (entries t);
  check_int "no in-place update yet" 0 (Itreap.inplace_hits t);
  Itreap.validate t

(* The probe's two newer outcomes and the cases that still take the
   general path: an exact re-cover is done in the slot it finds unless a
   touching neighbour has the new owner, and a touch with a different
   owner no longer forces the general path. *)
let test_path_counters_exact () =
  let t = make_treap () in
  Itreap.insert_replace t 0 4 1;
  Itreap.insert_replace t 10 14 2;
  Itreap.insert_replace t 20 24 3;
  let slow0 = Itreap.slowpath_hits t in
  Itreap.insert_replace t 10 14 4;
  check_int "exact re-cover by a new owner is done in place" 1 (Itreap.inplace_hits t);
  check_int "no slow op" slow0 (Itreap.slowpath_hits t);
  check_int "size unchanged" 3 (Itreap.size t);
  check_int "covered unchanged" 15 (Itreap.covered t);
  Alcotest.check entry_t "owner replaced" [ (0, 4, 1); (10, 14, 4); (20, 24, 3) ] (entries t);
  Itreap.insert_merge t 10 14 5 ~keep:(fun ~incumbent:_ -> `Keep);
  check_int "exact merge under Keep is in place" 2 (Itreap.inplace_hits t);
  Alcotest.check entry_t "Keep leaves the entries"
    [ (0, 4, 1); (10, 14, 4); (20, 24, 3) ]
    (entries t);
  Itreap.insert_replace t 10 14 4;
  check_int "an equal owner is in place too" 3 (Itreap.inplace_hits t);
  check_int "still no slow op" slow0 (Itreap.slowpath_hits t);
  (* touching, not overlapping, neighbours with other owners *)
  let fast0 = Itreap.fastpath_hits t in
  Itreap.insert_replace t 5 9 6;
  check_int "a touch with a different owner takes join_mid" (fast0 + 1) (Itreap.fastpath_hits t);
  check_int "and runs no slow op" slow0 (Itreap.slowpath_hits t);
  Itreap.validate t;
  let t = make_treap () in
  Itreap.insert_replace t 0 4 1;
  Itreap.insert_replace t 5 9 2;
  check_int "touch: no slow op" 0 (Itreap.slowpath_hits t);
  Alcotest.check entry_t "touch keeps two entries" [ (0, 4, 1); (5, 9, 2) ] (entries t);
  (* an exact re-cover whose new owner matches the touching neighbour on
     the left, then on the right, must coalesce: the general path *)
  Itreap.insert_replace t 5 9 1;
  check_int "left neighbour has the new owner: slow" 1 (Itreap.slowpath_hits t);
  check_int "not in place" 0 (Itreap.inplace_hits t);
  Alcotest.check entry_t "coalesced leftwards" [ (0, 9, 1) ] (entries t);
  let t = make_treap () in
  Itreap.insert_replace t 0 4 1;
  Itreap.insert_replace t 5 9 2;
  Itreap.insert_merge t 0 4 2 ~keep:(fun ~incumbent:_ -> `Replace);
  check_int "right neighbour has the new owner: slow" 1 (Itreap.slowpath_hits t);
  check_int "not in place either" 0 (Itreap.inplace_hits t);
  Alcotest.check entry_t "coalesced rightwards" [ (0, 9, 2) ] (entries t);
  Itreap.validate t

(* The general path's shapes, each run with empty and non-empty halves:
   the probe's first hit straddles [lo], or is a same-owner neighbour
   touching [lo] or [hi]; [clear_range] with nothing left or right of its
   range.  A straddler belongs with the overlap, not with what ends before
   [lo]. *)
let test_general_shapes () =
  let check msg want t =
    Alcotest.check entry_t msg want (entries t);
    Itreap.validate t
  in
  let keep ~incumbent:_ = `Keep in
  let t = build [ (0, 9, 1) ] in
  Itreap.insert_replace t 5 14 2;
  check "lone straddler truncated" [ (0, 4, 1); (5, 14, 2) ] t;
  let t = build [ (0, 3, 5); (4, 11, 1); (20, 25, 3) ] in
  Itreap.insert_replace t 8 14 2;
  check "straddler between neighbours" [ (0, 3, 5); (4, 7, 1); (8, 14, 2); (20, 25, 3) ] t;
  Itreap.insert_merge t 6 16 1 ~keep;
  check "merge over a straddler" [ (0, 3, 5); (4, 7, 1); (8, 14, 2); (15, 16, 1); (20, 25, 3) ] t;
  let t = build [ (0, 4, 1); (20, 24, 2) ] in
  Itreap.insert_replace t 5 9 1;
  check "touch lo" [ (0, 9, 1); (20, 24, 2) ] t;
  let t = build [ (0, 4, 1) ] in
  Itreap.insert_merge t 5 9 1 ~keep;
  check "touch lo, empty upper half" [ (0, 9, 1) ] t;
  let t = build [ (0, 4, 3); (10, 14, 1) ] in
  Itreap.insert_replace t 5 9 1;
  check "touch hi" [ (0, 4, 3); (5, 14, 1) ] t;
  let t = build [ (10, 14, 1); (20, 24, 2) ] in
  Itreap.insert_replace t 5 9 1;
  check "touch hi, empty lower half" [ (5, 14, 1); (20, 24, 2) ] t;
  let t = build [ (0, 9, 1); (20, 29, 2) ] in
  Itreap.clear_range t 0 4;
  check "clear, empty lower half" [ (5, 9, 1); (20, 29, 2) ] t;
  Itreap.clear_range t 25 40;
  check "clear, empty upper half" [ (5, 9, 1); (20, 24, 2) ] t;
  Itreap.clear_range t 7 21;
  check "clear across two entries" [ (5, 6, 1); (22, 24, 2) ] t;
  Itreap.clear_range t 0 30;
  check "clear, both halves empty" [] t

(* The boundary nodes a split records must not outlive it: a later
   operation whose lower or upper half is empty would read a freed slot
   as its neighbour and coalesce with it. *)
let test_boundary_reset () =
  let t = build [ (0, 4, 1); (10, 14, 1) ] in
  Itreap.clear_range t 10 14;
  Itreap.insert_replace t 5 9 1;
  Alcotest.check entry_t "no stale upper neighbour" [ (0, 9, 1) ] (entries t);
  Itreap.validate t;
  let t = build [ (0, 4, 1); (5, 9, 1); (12, 20, 2) ] in
  Itreap.clear_range t 0 9;
  Itreap.insert_replace t 10 14 1;
  Alcotest.check entry_t "no stale lower neighbour" [ (10, 14, 1); (15, 20, 2) ] (entries t);
  Itreap.validate t

(* An exact hit whose new owner matches a touching neighbour in its own
   subtree cannot be updated in place; the general path then splits from
   the root.  Which of the two adjacent entries sits above the other
   depends on the priority draws, so seeds are tried until the exact
   entry is above its neighbour on each side, and the other way round. *)
let test_exact_fallback () =
  let seen = Hashtbl.create 4 in
  for seed = 0 to 31 do
    List.iter
      (fun (nb, want) ->
        let t = build ~seed [ (0, 3, 7); (10, 14, 2); nb; (30, 33, 7) ] in
        let nb_lo, _, _ = nb in
        let above = depth t 10 < depth t nb_lo in
        let slow0 = Itreap.slowpath_hits t in
        Itreap.insert_replace t 10 14 1;
        Hashtbl.replace seen (nb_lo, above) ();
        check_int "general path" (slow0 + 1) (Itreap.slowpath_hits t);
        check_int "not in place" 0 (Itreap.inplace_hits t);
        Alcotest.check entry_t "coalesced with the neighbour" want (entries t);
        Itreap.validate t)
      [
        ((5, 9, 1), [ (0, 3, 7); (5, 14, 1); (30, 33, 7) ]);
        ((15, 19, 1), [ (0, 3, 7); (10, 19, 1); (30, 33, 7) ]);
      ]
  done;
  List.iter
    (fun key -> check_bool "shape reached" true (Hashtbl.mem seen key))
    [ (5, true); (5, false); (15, true); (15, false) ]

let test_big_sequential_build () =
  (* A large build keeps expected-logarithmic depth: visits per op should be
     far below size. *)
  let t = make_treap ~seed:3 () in
  let n = 20_000 in
  for i = 0 to n - 1 do
    Itreap.insert_replace t (i * 3) ((i * 3) + 1) i
  done;
  check_int "all separate" n (Itreap.size t);
  Itreap.validate t;
  let v0 = Itreap.visits t in
  ignore (Itreap.find t ((n / 2) * 3));
  let probe_cost = Itreap.visits t - v0 in
  check_bool "log-ish probe" true (probe_cost < 80)

(* Visit parity: a seeded mix of every operation over disjoint, touching
   and overlapping ranges.  The content figures (size, covered, query hits
   and checksum, entry digest) are those the persistent path-copying treap
   printed; the path counters are those of the probe with in-place
   exact-cover updates, and the visits those of the three-walk general
   path (DESIGN.md §8).  Tree shapes follow from the keys and the priority
   draws, so every figure must match exactly — a drift here moves
   [c_treap_visit]-costed figures and [detect_span]. *)
let test_visit_parity () =
  let t = make_treap ~seed:2022 () in
  let rng = Rng.create 13 in
  let hits = ref 0 and qsum = ref 0 in
  for _ = 1 to 3000 do
    (* 1024 cells of 8 addresses: offsets 0/2/5 and lengths 8/4/13 make
       ranges touch their neighbours, leave gaps, or overlap them *)
    let cell = Rng.int rng 1024 in
    let lo = (cell * 8) + match Rng.int rng 3 with 0 -> 0 | 1 -> 2 | _ -> 5 in
    let hi = lo + match Rng.int rng 3 with 0 -> 7 | 1 -> 3 | _ -> 12 in
    let owner = Rng.int rng 6 in
    match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 -> Itreap.insert_replace t lo hi owner
    | 4 | 5 | 6 | 7 -> Itreap.insert_merge t lo hi owner ~keep:(policy ~new_owner:owner)
    | 8 -> Itreap.clear_range t lo hi
    | _ ->
        Itreap.query t lo hi ~f:(fun lo hi o ->
            incr hits;
            qsum := (!qsum * 31) + (lo * 7) + (hi * 3) + o)
  done;
  Itreap.validate t;
  check_int "visits" 89427 (Itreap.visits t);
  check_int "fastpath_hits" 699 (Itreap.fastpath_hits t);
  check_int "inplace_hits" 83 (Itreap.inplace_hits t);
  check_int "slowpath_hits" 1930 (Itreap.slowpath_hits t);
  check_int "scratch_reuse" 1929 (Itreap.scratch_reuse t);
  check_int "size" 1100 (Itreap.size t);
  check_int "covered" 6826 (Itreap.covered t);
  check_int "query hits" 333 !hits;
  check_int "query segments checksum" (-119804958923953794) !qsum;
  let rendered =
    String.concat ";" (List.map (fun (l, h, o) -> Printf.sprintf "%d-%d:%d" l h o) (entries t))
  in
  Alcotest.(check string)
    "to_list digest" "9fa04df31644e4ea743ddf3f6e866bd0"
    (Digest.to_hex (Digest.string rendered))

(* Arena recycling: freed slots are reused before the arena grows, so its
   capacity is the smallest growth step (16, doubling) that holds the peak
   live node count, however much churn passes through it.  [validate]
   checks after each phase that every slot is in the tree or on the free
   list exactly once. *)
let arena_step peak =
  let rec go c = if c >= peak then c else go (2 * c) in
  go 16

let test_arena_recycling () =
  let t = make_treap ~seed:5 () in
  let n = 300 in
  let fill round =
    for i = 0 to n - 1 do
      Itreap.insert_replace t (i * 4) ((i * 4) + 1) (i + round)
    done
  in
  fill 0;
  let cap = Itreap.capacity t in
  check_int "first fill sizes the arena" (arena_step n) cap;
  for round = 1 to 5 do
    Itreap.clear_range t 0 (n * 4);
    check_int "cleared" 0 (Itreap.size t);
    Itreap.validate t;
    fill round;
    Itreap.validate t;
    check_int "refill reuses freed slots" cap (Itreap.capacity t)
  done;
  (* slow-path churn: overlapping rewrites detach, free and reallocate
     nodes on every operation *)
  let rng = Rng.create 9 in
  let peak = ref (Itreap.size t) in
  for _ = 1 to 2000 do
    let lo = Rng.int rng (n * 4) in
    let hi = lo + Rng.int rng 12 in
    (match Rng.int rng 3 with
    | 0 -> Itreap.insert_replace t lo hi (Rng.int rng 4)
    | 1 -> Itreap.insert_merge t lo hi (Rng.int rng 4) ~keep:(policy ~new_owner:2)
    | _ -> Itreap.clear_range t lo hi);
    peak := max !peak (Itreap.size t)
  done;
  Itreap.validate t;
  check_int "churn stays within the peak's step" (arena_step !peak) (Itreap.capacity t);
  Itreap.reset t;
  check_int "reset empties" 0 (Itreap.size t);
  (* with the root empty, validate accounts for every slot on the free list *)
  Itreap.validate t;
  check_int "reset keeps the arena" (arena_step !peak) (Itreap.capacity t);
  fill 7;
  Itreap.validate t;
  check_int "refill after reset" (arena_step !peak) (Itreap.capacity t)

let () =
  Alcotest.run "pint_treap"
    [
      ( "directed",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "single insert" `Quick test_single_insert;
          Alcotest.test_case "paper example" `Quick test_paper_example;
          Alcotest.test_case "replace exact" `Quick test_replace_exact;
          Alcotest.test_case "replace engulf" `Quick test_replace_engulf;
          Alcotest.test_case "replace interior split" `Quick test_replace_interior_split;
          Alcotest.test_case "same owner merge" `Quick test_same_owner_merge;
          Alcotest.test_case "query order" `Quick test_query_order;
          Alcotest.test_case "query none" `Quick test_query_none;
          Alcotest.test_case "clear range" `Quick test_clear_range;
          Alcotest.test_case "clear range noop" `Quick test_clear_range_noop;
          Alcotest.test_case "merge into gap" `Quick test_insert_merge_gap_only;
          Alcotest.test_case "merge keep" `Quick test_insert_merge_keep;
          Alcotest.test_case "merge replace" `Quick test_insert_merge_replace;
          Alcotest.test_case "merge partial overlap" `Quick test_insert_merge_partial_overlap;
          Alcotest.test_case "merge mixed policy" `Quick test_insert_merge_mixed_policy;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "visits counted" `Quick test_visits_counted;
          Alcotest.test_case "path counters" `Quick test_path_counters;
          Alcotest.test_case "path counters: exact re-cover" `Quick test_path_counters_exact;
          Alcotest.test_case "general path shapes" `Quick test_general_shapes;
          Alcotest.test_case "boundary records reset" `Quick test_boundary_reset;
          Alcotest.test_case "exact hit fallback" `Quick test_exact_fallback;
          Alcotest.test_case "big sequential build" `Quick test_big_sequential_build;
          Alcotest.test_case "visit parity" `Quick test_visit_parity;
          Alcotest.test_case "arena recycling" `Quick test_arena_recycling;
        ] );
      ( "model",
        [
          QCheck_alcotest.to_alcotest treap_model_prop;
          QCheck_alcotest.to_alcotest treap_query_model_prop;
          QCheck_alcotest.to_alcotest treap_list_model_prop;
          grid_case
            (model_prop ~name:"grid ops agree with per-address model" ~count:1000 ~max_ops:80
               grid_op_gen);
          grid_case
            (list_model_prop ~name:"grid ops match sorted-list model" ~count:1000 ~max_ops:80
               grid_op_gen);
        ] );
    ]
