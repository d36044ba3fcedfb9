type t = {
  uid : int;
  sp : Sp_order.strand;
  mutable reads : Interval.t array;
  mutable writes : Interval.t array;
  mutable raw_reads : int;
  mutable raw_writes : int;
  mutable work : int;
  mutable compute : int;
  pred : int Atomic.t;
  mutable child : t option;
  mutable child_is_sync : bool;
  mutable is_spawn : bool;
  mutable clears : (int * int) list;
  mutable frees : (int * int) list;
  done_count : int Atomic.t;
  mutable obs_ts : int;
}

let make ~uid sp =
  {
    uid;
    sp;
    reads = [||];
    writes = [||];
    raw_reads = 0;
    raw_writes = 0;
    work = 0;
    compute = 0;
    pred = Atomic.make 0;
    child = None;
    child_is_sync = false;
    is_spawn = false;
    clears = [];
    frees = [];
    done_count = Atomic.make 0;
    obs_ts = 0;
  }

let placeholder =
  let _, root = Sp_order.create () in
  make ~uid:(-1) root
