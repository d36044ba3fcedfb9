type f = { fbase : int; fdata : float array; fstack : bool }

let alloc_f space n =
  let base = Aspace.heap_alloc space n in
  { fbase = base; fdata = Array.make n 0.; fstack = false }

let free_f b =
  if b.fstack then invalid_arg "Membuf.free_f: stack frame";
  Access.emit_free ~base:b.fbase ~len:(Array.length b.fdata)

(* ------------------------------------------------------------ float ops *)

let base_f b = b.fbase
let length_f b = Array.length b.fdata

let get_f b j =
  Access.emit_read ~addr:(b.fbase + j) ~len:1;
  b.fdata.(j)

let set_f b j v =
  Access.emit_write ~addr:(b.fbase + j) ~len:1;
  b.fdata.(j) <- v

let blit_f src soff dst doff len =
  if len > 0 then begin
    Access.emit_read ~addr:(src.fbase + soff) ~len;
    Access.emit_write ~addr:(dst.fbase + doff) ~len;
    Array.blit src.fdata soff dst.fdata doff len
  end

let fill_f b off len v =
  if len > 0 then begin
    Access.emit_write ~addr:(b.fbase + off) ~len;
    Array.fill b.fdata off len v
  end

let read_range_f b off len =
  if len > 0 then Access.emit_read ~addr:(b.fbase + off) ~len;
  Array.sub b.fdata off len

let peek_f b j = b.fdata.(j)
let poke_f b j v = b.fdata.(j) <- v

(* ---------------------------------------------------------------- frames *)

module Frame = struct
  let with_f_hooked space ~worker ~words ~on_pop k =
    let base = Aspace.frame_push space ~worker ~words in
    let frame = { fbase = base; fdata = Array.make words 0.; fstack = true } in
    Fun.protect
      ~finally:(fun () ->
        Aspace.frame_pop space ~worker ~base;
        on_pop ~base ~len:words)
      (fun () -> k frame)
end
