let race sp ~prior ~current = Sp_order.parallel sp prior current

let path_diags sum =
  let fast = sum Itreap.fastpath_hits
  and inplace = sum Itreap.inplace_hits
  and slow = sum Itreap.slowpath_hits in
  [
    ("fastpath_hits", float_of_int fast);
    ("inplace_hits", float_of_int inplace);
    ("slowpath_hits", float_of_int slow);
    ("fastpath_rate", float_of_int fast /. float_of_int (max 1 (fast + inplace + slow)));
    ("scratch_reuse", float_of_int (sum Itreap.scratch_reuse));
  ]

let keep_leftmost sp ~s ~incumbent =
  if Sp_order.series sp incumbent s then `Replace
  else if Sp_order.left_of sp s incumbent then `Replace
  else `Keep

let keep_rightmost sp ~s ~incumbent =
  if Sp_order.series sp incumbent s then `Replace
  else if Sp_order.left_of sp incumbent s then `Replace
  else `Keep
