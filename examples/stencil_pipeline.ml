(* A custom workload (1-D wave equation, leapfrog scheme) checked by all
   three detectors, demonstrating that they agree and how their access
   histories differ in size: the per-access shadow map holds one cell per
   word, the interval treaps a handful of coalesced ranges.

     dune exec examples/stencil_pipeline.exe *)

let n = 1024
let steps = 6
let chunk = 64

(* u_next = 2 u - u_prev + c (u[i-1] - 2 u[i] + u[i+1]), banded in parallel *)
let wave ~u_prev ~u ~u_next lo hi =
  Access.emit_read ~addr:(Membuf.base_f u + max 0 (lo - 1)) ~len:(min n (hi + 1) - max 0 (lo - 1));
  Access.emit_read ~addr:(Membuf.base_f u_prev + lo) ~len:(hi - lo);
  Access.emit_write ~addr:(Membuf.base_f u_next + lo) ~len:(hi - lo);
  Access.emit_compute ~amount:(6 * (hi - lo));
  for i = lo to hi - 1 do
    let c = 0.25 in
    let um = if i > 0 then Membuf.peek_f u (i - 1) else 0.0 in
    let up = if i < n - 1 then Membuf.peek_f u (i + 1) else 0.0 in
    let v = Membuf.peek_f u i in
    Membuf.poke_f u_next i
      ((2.0 *. v) -. Membuf.peek_f u_prev i +. (c *. (um -. (2.0 *. v) +. up)))
  done

let program () =
  let a = Fj.alloc_f n and b = Fj.alloc_f n and c = Fj.alloc_f n in
  Membuf.poke_f b (n / 2) 1.0;
  let bufs = ref (a, b, c) in
  for _ = 1 to steps do
    let u_prev, u, u_next = !bufs in
    Fj.scope (fun () ->
        let rec split lo hi =
          if hi - lo <= chunk then wave ~u_prev ~u ~u_next lo hi
          else begin
            let mid = (lo + hi) / 2 in
            Fj.spawn (fun () -> split lo mid);
            split mid hi
          end
        in
        split 0 n;
        Fj.sync ());
    bufs := (u, u_next, u_prev)
  done

let () =
  (* STINT (serial) *)
  let stint = Stint.make () in
  let _ = Sim_exec.run ~config:Sim_exec.serial ~driver:stint.Detector.driver program in
  (* C-RACER on the simulator *)
  let cracer = Cracer.make () in
  let _ =
    Sim_exec.run
      ~config:{ Sim_exec.default_config with n_workers = 8 }
      ~driver:cracer.Detector.driver program
  in
  (* PINT on the simulator *)
  let p = Pint_detector.make () in
  let pint = Pint_detector.detector p in
  let _ =
    Sim_exec.run
      ~config:{ Sim_exec.default_config with n_workers = 8; stages = Pint_detector.stages p }
      ~driver:pint.Detector.driver program
  in
  List.iter
    (fun (d : Detector.t) ->
      Printf.printf "%-8s races=%d" d.Detector.name (Detector.race_count d);
      List.iter
        (fun (k, v) ->
          if List.mem k [ "intervals"; "accesses"; "writer_size"; "collected" ] then
            Printf.printf "  %s=%.0f" k v)
        (d.Detector.diagnostics ());
      print_newline ())
    [ stint; cracer; pint ];
  if List.for_all (fun d -> Detector.race_count d = 0) [ stint; cracer; pint ] then
    print_endline "all three detectors agree: the wave pipeline is race-free."
  else exit 1
