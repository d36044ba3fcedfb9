let nbuckets = 64

type t = {
  buckets : int array;
  mutable n : int;
  mutable max_v : int;
}

let create () = { buckets = Array.make nbuckets 0; n = 0; max_v = 0 }

(* Shared sink for disabled sessions; adds land here and are never read. *)
let dummy = create ()

(* floor(log2 v) for v >= 2; values <= 1 (including the clamped negatives
   that cross-timeline virtual latencies can produce) land in bucket 0, so
   bucket b >= 1 covers exactly [2^b, 2^(b+1)). *)
let bucket_of v =
  if v <= 1 then 0
  else begin
    let b = ref 0 and x = ref v in
    while !x > 1 do
      x := !x lsr 1;
      incr b
    done;
    if !b >= nbuckets then nbuckets - 1 else !b
  end

let add t v =
  let v = if v < 0 then 0 else v in
  t.buckets.(bucket_of v) <- t.buckets.(bucket_of v) + 1;
  t.n <- t.n + 1;
  if v > t.max_v then t.max_v <- v

let count t = t.n
let max_value t = t.max_v

(* Representative value of a bucket: its lower bound (1 for bucket 0, the
   0/1 bucket — good enough for log-scale quantiles). *)
let bucket_lo b = if b = 0 then 0 else 1 lsl b

let quantile t q =
  if t.n = 0 then 0
  else begin
    let target = int_of_float (ceil (q *. float_of_int t.n)) in
    let target = if target < 1 then 1 else target in
    let acc = ref 0 and found = ref (nbuckets - 1) and b = ref 0 in
    while !b < nbuckets && !acc < target do
      acc := !acc + t.buckets.(!b);
      if !acc >= target then found := !b;
      incr b
    done;
    bucket_lo !found
  end

let merge_into ~src ~dst =
  for b = 0 to nbuckets - 1 do
    dst.buckets.(b) <- dst.buckets.(b) + src.buckets.(b)
  done;
  dst.n <- dst.n + src.n;
  if src.max_v > dst.max_v then dst.max_v <- src.max_v

