module Prng = Ra_crypto.Prng

type process =
  | Poisson of { rate : float }
  | Bursty of {
      rate : float;
      burst_factor : float;
      p_quiet_to_burst : float;
      p_burst_to_quiet : float;
    }

(* Bursts last 16 arrivals on average and hold ~10% of them: p_qb =
   p_bq / 9 keeps the stationary per-arrival burst share at 1/10. *)
let bursty ?(burst_factor = 8.0) ~rate () =
  if rate <= 0.0 then invalid_arg "Arrival.bursty: rate must be > 0";
  if burst_factor < 1.0 then invalid_arg "Arrival.bursty: burst_factor must be >= 1";
  let p_burst_to_quiet = 1.0 /. 16.0 in
  Bursty
    { rate; burst_factor; p_quiet_to_burst = p_burst_to_quiet /. 9.0; p_burst_to_quiet }

type state = Quiet | Burst

type t = {
  prng : Prng.t;
  quiet_rate : float;
  burst_rate : float;
  p_qb : float; (* 0 for Poisson: the chain never leaves Quiet *)
  p_bq : float;
  mutable state : state;
  mutable next_at : float;
}

let check_prob name p =
  if not (p > 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Arrival.create: %s must be in (0, 1]" name)

(* exponential gap at [rate]; u=0 is skipped so the gap is strictly
   positive and arrival instants never collide *)
let rec gap t ~rate =
  let u = Prng.float t.prng 1.0 in
  if u = 0.0 then gap t ~rate else -.log (1.0 -. u) /. rate

let current_rate t = match t.state with Quiet -> t.quiet_rate | Burst -> t.burst_rate

let step t =
  (match t.state with
  | Quiet -> if t.p_qb > 0.0 && Prng.float t.prng 1.0 < t.p_qb then t.state <- Burst
  | Burst -> if Prng.float t.prng 1.0 < t.p_bq then t.state <- Quiet);
  gap t ~rate:(current_rate t)

let create ?(start = 0.0) ~seed process =
  let quiet_rate, burst_rate, p_qb, p_bq =
    match process with
    | Poisson { rate } ->
      if rate <= 0.0 then invalid_arg "Arrival.create: rate must be > 0";
      (rate, rate, 0.0, 1.0)
    | Bursty { rate; burst_factor; p_quiet_to_burst; p_burst_to_quiet } ->
      if rate <= 0.0 then invalid_arg "Arrival.create: rate must be > 0";
      if burst_factor < 1.0 then
        invalid_arg "Arrival.create: burst_factor must be >= 1";
      check_prob "p_quiet_to_burst" p_quiet_to_burst;
      check_prob "p_burst_to_quiet" p_burst_to_quiet;
      (* time-average rate q·(pi_q + pi_b/f)⁻¹... inverted: pick the quiet
         rate so the stationary time-average equals [rate] *)
      let pi_b = p_quiet_to_burst /. (p_quiet_to_burst +. p_burst_to_quiet) in
      let q = rate *. (1.0 -. pi_b +. (pi_b /. burst_factor)) in
      (q, q *. burst_factor, p_quiet_to_burst, p_burst_to_quiet)
  in
  let t =
    {
      prng = Prng.create seed;
      quiet_rate;
      burst_rate;
      p_qb;
      p_bq;
      state = Quiet;
      next_at = start;
    }
  in
  t.next_at <- start +. step t;
  t

let peek t = t.next_at

let next t =
  let at = t.next_at in
  t.next_at <- at +. step t;
  at
