(* An observability session: the clock, the track registry (one event ring
   per pipeline stage / core worker / serial detector) and the named
   latency histograms.  Tracks and histograms are registered while the
   pipeline is being wired (detector construction, driver installation) —
   before any stage runs — so the registry lists are effectively frozen
   during the run; each ring/histogram then has the single owner that
   requested it (OWNERSHIP.md). *)

type t = {
  clock : Clock.t;
  enabled : bool;
  mutable tracks : (string * Evring.t) list; (* registration order *)
  mutable histos : (string * Histo.t) list;
}

(* events each track's ring retains *)
let capacity = 16384

let create ~clock () = { clock; enabled = true; tracks = []; histos = [] }
let disabled = { clock = Clock.null; enabled = false; tracks = []; histos = [] }

let enabled t = t.enabled
let clock t = t.clock

(* Get-or-create by name: the same name always yields the same ring, so a
   stage ring and the AHQ hook that reports on the same stage share one
   track (and one owner). *)
let track t name =
  if not t.enabled then Evring.null
  else
    match List.assoc_opt name t.tracks with
    | Some r -> r
    | None ->
        let r = Evring.create ~clock:t.clock ~capacity in
        t.tracks <- t.tracks @ [ (name, r) ];
        r

let histo t name =
  if not t.enabled then Histo.dummy
  else
    match List.assoc_opt name t.histos with
    | Some h -> h
    | None ->
        let h = Histo.create () in
        t.histos <- t.histos @ [ (name, h) ];
        h

let tracks t = t.tracks

let events t = List.fold_left (fun acc (_, r) -> acc + Evring.recorded r) 0 t.tracks
let dropped t = List.fold_left (fun acc (_, r) -> acc + Evring.dropped r) 0 t.tracks

(* Occupancy statistics over the retained window of every track that
   carries Ev.enqueue samples (the AHQ occupancy time series). *)
let occupancy_stats t =
  let n = ref 0 and sum = ref 0 and max_v = ref 0 in
  List.iter
    (fun (_, r) ->
      Evring.iter r (fun ~ts:_ ~dur:_ ~kind ~arg ->
          if Ev.is_counter kind then begin
            incr n;
            sum := !sum + arg;
            if arg > !max_v then max_v := arg
          end))
    t.tracks;
  (!n, !sum, !max_v)

let summary t =
  if not t.enabled then []
  else begin
    let occ_n, occ_sum, occ_max = occupancy_stats t in
    let base =
      [
        ("obs.tracks", float_of_int (List.length t.tracks));
        ("obs.events", float_of_int (events t));
        ("obs.dropped", float_of_int (dropped t));
      ]
    in
    let occ =
      if occ_n = 0 then []
      else
        [
          ("obs.ahq_occupancy.max", float_of_int occ_max);
          ("obs.ahq_occupancy.mean", float_of_int occ_sum /. float_of_int occ_n);
        ]
    in
    let hs =
      List.concat_map
        (fun (name, h) ->
          let key s = Printf.sprintf "obs.h.%s.%s" name s in
          [
            (key "n", float_of_int (Histo.count h));
            (key "p50", float_of_int (Histo.quantile h 0.5));
            (key "p90", float_of_int (Histo.quantile h 0.9));
            (key "p99", float_of_int (Histo.quantile h 0.99));
            (key "max", float_of_int (Histo.max_value h));
          ])
        t.histos
    in
    base @ occ @ hs
  end

let chrome_json ?(meta = []) t =
  let drops =
    List.filter_map
      (fun (name, r) ->
        if Evring.dropped r > 0 then Some ("dropped." ^ name, string_of_int (Evring.dropped r))
        else None)
      t.tracks
  in
  Chrome.export ~meta:(meta @ drops) ~tracks:t.tracks ()

let write_chrome ?meta t ~path =
  let oc = open_out path in
  output_string oc (chrome_json ?meta t);
  close_out oc
