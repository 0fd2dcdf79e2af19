let min_beyond = 10

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 || q <= 0. || q >= 1. then None
  else
    let rank = Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    if n - rank < min_beyond then None else Some sorted.(rank - 1)

let median a =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let s = sorted a in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let open_loop_latency ~due ~sent ~completed = (completed - due, sent - due)

let cycle_outage ~bound ~kill ~until samples =
  let window =
    Array.to_list samples |> List.filter (fun (t, _) -> t < until)
  in
  Smr.Recovery.check ~bound ~after:kill window
