(* Perf-regression gate core: compare a freshly-measured bench JSON
   (schema 3) against a committed baseline, case by case.

   A case regresses when its current best (minimum) sample exceeds the
   baseline's by more than the threshold fraction.  The minimum, not the
   median, is compared: scheduling and frequency noise only ever inflate a
   wall-clock sample, so best-of-N is the stable estimate of the true cost
   and the one that doesn't flag identical code at small N.  Noise control
   is otherwise structural, not statistical: a case is only judged when
   both sides carry at least [min_samples] samples ("n") — so a --runs 1
   smoke file never produces a verdict — and when its
   baseline median clears [min_time] (sub-millisecond cases are jitter,
   not signal).  Known/accepted regressions are waived by listing
   "group/case" in a waiver file, one per line, with an optional
   " -- reason" suffix; '#' lines are comments.

   Wall clocks are not the only gated quantity: each case may carry
   tracked detector diagnostics, and the deterministic ones named in
   [gated_diags] ("detect_span", the treap-side critical path in
   virtual cycles, plus the predictive analysis' candidate and
   window-expansion counters) are compared by the same ratio test under
   the key "group/case#diag".  Unlike wall time these are exact functions
   of the code, so they gate even the sub-millisecond cases the
   [min_time] floor excludes — the shard-sweep groups exist for their
   detect_span, and the predict group for its candidate/window counts,
   not their stopwatch.

   The logic lives in a library (separate from the CLI) so the test suite
   can drive it on synthetic JSON without spawning processes. *)

type case = {
  group : string;
  name : string;
  median_s : float;
  min_s : float;
  n : int;
  diags : (string * float) list;
}

type verdict =
  | Ok_case of { key : string; base : float; cur : float }
  | Regressed of { key : string; base : float; cur : float; ratio : float }
  | Waived of { key : string; base : float; cur : float; reason : string }
  | Skipped of { key : string; why : string }

let key c = c.group ^ "/" ^ c.name

(* -- parsing ------------------------------------------------------------- *)

let parse_error fmt = Printf.ksprintf (fun s -> failwith s) fmt

let cases_of_json (j : Jsonx.t) : case list =
  let obj name v =
    match Jsonx.to_obj v with
    | Some o -> o
    | None -> parse_error "bench json: %S is not an object" name
  in
  let figures =
    match Jsonx.member "figures" j with
    | Some f -> obj "figures" f
    | None -> parse_error "bench json: no \"figures\" member"
  in
  List.concat_map
    (fun (group, gj) ->
      List.map
        (fun (name, cj) ->
          let float_field field =
            match Option.bind (Jsonx.member field cj) Jsonx.to_float with
            | Some v -> v
            | None -> parse_error "bench json: %s/%s has no %s" group name field
          in
          let median_s = float_field "median_s" in
          let min_s = float_field "min_s" in
          let n = int_of_float (float_field "n") in
          let diags =
            match Option.bind (Jsonx.member "diagnostics" cj) Jsonx.to_obj with
            | Some kvs ->
                List.filter_map
                  (fun (dk, dv) -> Option.map (fun f -> (dk, f)) (Jsonx.to_float dv))
                  kvs
            | None -> []
          in
          { group; name; median_s; min_s; n; diags })
        (obj group gj))
    figures

let load_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let cases_of_file path = cases_of_json (Jsonx.parse (load_file path))

(* -- waivers ------------------------------------------------------------- *)

let split_on_first ~sep s =
  let sl = String.length sep and n = String.length s in
  let rec find i =
    if i + sl > n then None else if String.sub s i sl = sep then Some i else find (i + 1)
  in
  match find 0 with
  | Some i -> Some (String.sub s 0 i, String.sub s (i + sl) (n - i - sl))
  | None -> None

(* "group/case -- reason" per line; '#' starts a comment, blanks ignored. *)
let parse_waivers text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match split_on_first ~sep:" -- " line with
           | Some (k, reason) -> Some (String.trim k, String.trim reason)
           | None -> Some (line, "no reason given"))

(* -- comparison ---------------------------------------------------------- *)

let threshold = 0.25
let min_samples = 3
let min_time = 0.005
let gated_diags = [ "detect_span"; "predict_candidates"; "predict_windows" ]

let compare_cases ?(waivers = []) ~baseline ~current () =
  let base_tbl = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace base_tbl (key c) c) baseline;
  (* one ratio test, shared by wall clocks and gated diagnostics *)
  let judge ~key:k ~base ~cur =
    let ratio = cur /. base in
    if ratio <= 1. +. threshold then Ok_case { key = k; base; cur }
    else begin
      match List.assoc_opt k waivers with
      | Some reason -> Waived { key = k; base; cur; reason }
      | None -> Regressed { key = k; base; cur; ratio }
    end
  in
  List.concat_map
    (fun cur ->
      let k = key cur in
      match Hashtbl.find_opt base_tbl k with
      | None -> [ Skipped { key = k; why = "not in baseline" } ]
      | Some base ->
          let wall =
            if base.n < min_samples || cur.n < min_samples then
              Skipped
                {
                  key = k;
                  why =
                    Printf.sprintf "insufficient samples (base n=%d, current n=%d, need %d)"
                      base.n cur.n min_samples;
                }
            else if base.median_s < min_time then
              Skipped
                {
                  key = k;
                  why =
                    Printf.sprintf "too fast to gate (%.4fs median < %.3fs)" base.median_s
                      min_time;
                }
            else if base.min_s <= 0. then Skipped { key = k; why = "zero baseline time" }
            else judge ~key:k ~base:base.min_s ~cur:cur.min_s
          in
          (* deterministic diagnostics gate whenever both sides carry them —
             no sample floor and no min_time: they are exact, not measured *)
          let diag_verdicts =
            List.filter_map
              (fun d ->
                match (List.assoc_opt d base.diags, List.assoc_opt d cur.diags) with
                | Some b, Some c when b > 0. -> Some (judge ~key:(k ^ "#" ^ d) ~base:b ~cur:c)
                | _ -> None)
              gated_diags
          in
          wall :: diag_verdicts)
    current

let regressions verdicts =
  List.filter_map (function Regressed _ as r -> Some r | _ -> None) verdicts

(* -- real-domain scaling -------------------------------------------------- *)

(* The wall-clock scaling assertion for the real-domain shard sweep: the
   fast configuration's best sample must beat the slow configuration's by
   [max_scaling_ratio] — e.g. par:heat48/s4 at <= 0.9 x par:heat48/s1.  Unlike
   the regression test this compares two cases of the SAME file (the fresh
   run), so it asserts a property of the code on this host rather than a
   trajectory across commits.  It only fires when the current file's
   recorded "domains" diagnostic says the host actually had [min_domains]
   cores: with fewer cores the shard micropools time-share and the fast
   case can only tie, so the check degrades to a skip (never a pass by
   accident — the skip is reported). *)
type scaling_verdict =
  | Scaling_ok of { slow : string; fast : string; slow_s : float; fast_s : float; ratio : float }
  | Scaling_failed of { slow : string; fast : string; slow_s : float; fast_s : float; ratio : float }
  | Scaling_skipped of { slow : string; fast : string; why : string }

let max_scaling_ratio = 0.9
let min_domains = 4

let check_scaling ~slow:slow_key ~fast:fast_key cases =
  let find k = List.find_opt (fun c -> key c = k) cases in
  match (find slow_key, find fast_key) with
  | None, _ -> Scaling_skipped { slow = slow_key; fast = fast_key; why = slow_key ^ " not in file" }
  | _, None -> Scaling_skipped { slow = slow_key; fast = fast_key; why = fast_key ^ " not in file" }
  | Some slow, Some fast -> (
      match List.assoc_opt "domains" fast.diags with
      | None ->
          Scaling_skipped
            { slow = slow_key; fast = fast_key; why = "no \"domains\" diagnostic recorded" }
      | Some d when d < float_of_int min_domains ->
          Scaling_skipped
            {
              slow = slow_key;
              fast = fast_key;
              why = Printf.sprintf "host had %.0f domain(s), need %d for real scaling" d min_domains;
            }
      | Some _ ->
          if slow.min_s <= 0. then
            Scaling_skipped { slow = slow_key; fast = fast_key; why = "zero slow-case time" }
          else begin
            let ratio = fast.min_s /. slow.min_s in
            if ratio <= max_scaling_ratio then
              Scaling_ok
                { slow = slow_key; fast = fast_key; slow_s = slow.min_s; fast_s = fast.min_s; ratio }
            else
              Scaling_failed
                { slow = slow_key; fast = fast_key; slow_s = slow.min_s; fast_s = fast.min_s; ratio }
          end)

let pp_scaling out = function
  | Scaling_ok { slow; fast; slow_s; fast_s; ratio } ->
      Printf.fprintf out "  scaling  %s (%.4fs) vs %s (%.4fs): %.2fx — ok\n" fast fast_s slow
        slow_s ratio
  | Scaling_failed { slow; fast; slow_s; fast_s; ratio } ->
      Printf.fprintf out "  SCALING  %s (%.4fs) vs %s (%.4fs): %.2fx — did not scale\n" fast
        fast_s slow slow_s ratio
  | Scaling_skipped { slow; fast; why } ->
      Printf.fprintf out "  scaling  %s vs %s skipped: %s\n" fast slow why

(* wall-clock keys print seconds; "#diag" keys print the raw metric *)
let pp_value key v =
  if String.contains key '#' then Printf.sprintf "%.6g" v else Printf.sprintf "%.4fs" v

let pp_verdict out = function
  | Ok_case { key; base; cur } ->
      Printf.fprintf out "  ok       %-32s %s -> %s\n" key (pp_value key base) (pp_value key cur)
  | Regressed { key; base; cur; ratio } ->
      Printf.fprintf out "  REGRESS  %-32s %s -> %s (%.2fx)\n" key (pp_value key base)
        (pp_value key cur) ratio
  | Waived { key; base; cur; reason } ->
      Printf.fprintf out "  waived   %-32s %s -> %s (%s)\n" key (pp_value key base)
        (pp_value key cur) reason
  | Skipped { key; why } -> Printf.fprintf out "  skip     %-32s %s\n" key why
