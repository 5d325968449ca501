type t = { mutable now : float }

let create ?(start = 0.0) () = { now = start }
let now t = t.now

let advance_by t dt =
  if dt < 0.0 then invalid_arg "Simtime.advance_by: negative delta";
  t.now <- t.now +. dt

let advance_to t target =
  if target < t.now then invalid_arg "Simtime.advance_to: target in the past";
  t.now <- target

type deadline = float

let deadline t ~after =
  if after < 0.0 then invalid_arg "Simtime.deadline: negative delay";
  t.now +. after

let remaining t d = Float.max 0.0 (d -. t.now)
