type t = {
  stages : Stage.t array;
  retired : bool array; (* per-stage done flags, private to the stepping thread *)
  mutable remaining : int;
}

let of_stages stages =
  let stages = Array.of_list stages in
  let n = Array.length stages in
  { stages; retired = Array.make n false; remaining = n }

let finished t = t.remaining = 0

(* One round: every unfinished stage steps once.  [`Idle]/[`Stalled]
   steps are counted by the stages themselves (Stage.exec), so per-stage
   diagnostics stay attributable whichever thread runs the round.  A plain
   loop with a local flag keeps the round allocation-free. *)
let step t =
  let progressed = ref false in
  for i = 0 to Array.length t.stages - 1 do
    if not t.retired.(i) then begin
      let st = Stage.exec t.stages.(i) in
      if Step.is_done st then begin
        t.retired.(i) <- true;
        t.remaining <- t.remaining - 1;
        progressed := true
      end
      else if Step.progressed st then progressed := true
    end
  done;
  !progressed

let drive t =
  let idle_rounds = ref 0 in
  while t.remaining > 0 do
    if step t then idle_rounds := 0
    else begin
      incr idle_rounds;
      Backoff.relax !idle_rounds
    end
  done

let diagnostics t = List.concat_map Stage.diagnostics (Array.to_list t.stages)
