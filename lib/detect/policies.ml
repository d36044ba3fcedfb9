let race sp ~prior ~current = Sp_order.parallel sp prior current

let check_treap report sp treap kind (iv : Interval.t) s =
  Itreap.query treap iv ~f:(fun lo hi prior ->
      if race sp ~prior ~current:s then
        Report.add report kind ~prior:(Sp_order.id prior) ~current:(Sp_order.id s)
          (Interval.make (Int.max lo iv.lo) (Int.min hi iv.hi)))

let keep_leftmost sp ~s ~incumbent =
  if Sp_order.series sp incumbent s then `Replace
  else if Sp_order.left_of sp s incumbent then `Replace
  else `Keep

let keep_rightmost sp ~s ~incumbent =
  if Sp_order.series sp incumbent s then `Replace
  else if Sp_order.left_of sp incumbent s then `Replace
  else `Keep
