(* heat — Jacobi heat diffusion on a 2-D grid with ping-pong buffers.

   Each time step computes new(i,j) from the old grid's 5-point stencil,
   parallelized by recursive splitting into horizontal bands of at most
   [base] rows; a sync ends every step and the buffers swap.  Band kernels
   announce one read interval covering the band plus halo rows and one
   write interval for the band — rows are contiguous, so this is what
   compile-time coalescing produces.

   The racy variant updates the grid in place: neighbouring bands then race
   on their halo rows. *)

let idx ny i j = (i * ny) + j

let band_kernel src dst nx ny r0 r1 =
  let lo = max 0 (r0 - 1) and hi = min (nx - 1) r1 in
  Access.emit_read ~addr:(Membuf.base_f src + idx ny lo 0) ~len:((hi - lo + 1) * ny);
  Access.emit_write ~addr:(Membuf.base_f dst + idx ny r0 0) ~len:((r1 - r0) * ny);
  Access.emit_compute ~amount:(7 * (r1 - r0) * ny);
  for i = r0 to r1 - 1 do
    for j = 0 to ny - 1 do
      let v = Membuf.peek_f src (idx ny i j) in
      let up = if i > 0 then Membuf.peek_f src (idx ny (i - 1) j) else v in
      let down = if i < nx - 1 then Membuf.peek_f src (idx ny (i + 1) j) else v in
      let left = if j > 0 then Membuf.peek_f src (idx ny i (j - 1)) else v in
      let right = if j < ny - 1 then Membuf.peek_f src (idx ny i (j + 1)) else v in
      Membuf.poke_f dst (idx ny i j) (v +. (0.1 *. (up +. down +. left +. right -. (4. *. v))))
    done
  done

let rec bands src dst nx ny base r0 r1 =
  if r1 - r0 <= base then band_kernel src dst nx ny r0 r1
  else begin
    let mid = (r0 + r1) / 2 in
    Fj.scope (fun () ->
        Fj.spawn (fun () -> bands src dst nx ny base r0 mid);
        bands src dst nx ny base mid r1;
        Fj.sync ())
  end

let reference grid0 nx ny steps =
  (* serial reference on plain arrays *)
  let a = ref (Array.copy grid0) and b = ref (Array.make (nx * ny) 0.) in
  for _ = 1 to steps do
    let src = !a and dst = !b in
    for i = 0 to nx - 1 do
      for j = 0 to ny - 1 do
        let v = src.(idx ny i j) in
        let up = if i > 0 then src.(idx ny (i - 1) j) else v in
        let down = if i < nx - 1 then src.(idx ny (i + 1) j) else v in
        let left = if j > 0 then src.(idx ny i (j - 1)) else v in
        let right = if j < ny - 1 then src.(idx ny i (j + 1)) else v in
        dst.(idx ny i j) <- v +. (0.1 *. (up +. down +. left +. right -. (4. *. v)))
      done
    done;
    let t = !a in
    a := !b;
    b := t
  done;
  !a

let steps = 10

let make_good ~size ~base =
  let nx = size and ny = size in
  let state = ref None in
  let init = Array.init (nx * ny) (fun k -> if k = idx ny (nx / 2) (ny / 2) then 1000. else 0.) in
  let run () =
    let g0 = Fj.alloc_f (nx * ny) and g1 = Fj.alloc_f (nx * ny) in
    Array.iteri (fun k v -> Membuf.poke_f g0 k v) init;
    let src = ref g0 and dst = ref g1 in
    for _ = 1 to steps do
      Fj.scope (fun () ->
          bands !src !dst nx ny base 0 nx;
          Fj.sync ());
      let t = !src in
      src := !dst;
      dst := t
    done;
    state := Some !src
  in
  let check () =
    match !state with
    | None -> false
    | Some final ->
        let want = reference init nx ny steps in
        let ok = ref true in
        for k = 0 to (nx * ny) - 1 do
          if Float.abs (want.(k) -. Membuf.peek_f final k) > 1e-9 then ok := false
        done;
        !ok
  in
  { Workload.run; check }

let make_racy ~size ~base =
  let nx = size and ny = size in
  let run () =
    let g = Fj.alloc_f (nx * ny) in
    Membuf.poke_f g (idx ny (nx / 2) (ny / 2)) 1000.;
    for _ = 1 to 2 do
      Fj.scope (fun () ->
          (* in-place update: bands race on their halo rows *)
          bands g g nx ny base 0 nx;
          Fj.sync ())
    done
  in
  { Workload.run; check = (fun () -> true) }

let workload =
  {
      Workload.name = "heat";
      description = "2-D Jacobi heat diffusion, ping-pong grids, banded rows";
      default_size = 128;
      default_base = 8;
      make = make_good;
      racy = Some make_racy;
    }
