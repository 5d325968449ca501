let default_capacity_joules = 2340.0 (* CR2032: ~225 mAh x 2.9 V *)
let default_active_nj_per_cycle = 0.5
let default_sleep_microwatt = 2.0
let default_radio_uj_per_byte = 2.0 (* 802.15.4-class radio: ~90 mW at 250 kbit/s *)

type t = {
  capacity : float;
  active_nj_per_cycle : float;
  sleep_microwatt : float;
  radio_uj_per_byte : float;
  mutable consumed : float; (* joules *)
}

let create ?(capacity_joules = default_capacity_joules)
    ?(active_nj_per_cycle = default_active_nj_per_cycle)
    ?(sleep_microwatt = default_sleep_microwatt)
    ?(radio_uj_per_byte = default_radio_uj_per_byte) () =
  if capacity_joules <= 0.0 then invalid_arg "Energy.create: capacity";
  {
    capacity = capacity_joules;
    active_nj_per_cycle;
    sleep_microwatt;
    radio_uj_per_byte;
    consumed = 0.0;
  }

let consume_cycles t cycles =
  t.consumed <- t.consumed +. (Int64.to_float cycles *. t.active_nj_per_cycle *. 1e-9)

let consume_sleep t ~seconds =
  if seconds < 0.0 then invalid_arg "Energy.consume_sleep: negative time";
  t.consumed <- t.consumed +. (seconds *. t.sleep_microwatt *. 1e-6)

let consume_radio t ~bytes =
  if bytes < 0 then invalid_arg "Energy.consume_radio: negative size";
  t.consumed <- t.consumed +. (float_of_int bytes *. t.radio_uj_per_byte *. 1e-6)

let consumed_joules t = t.consumed
let active_nj_per_cycle t = t.active_nj_per_cycle
let sleep_microwatt t = t.sleep_microwatt
let radio_uj_per_byte t = t.radio_uj_per_byte
let remaining_joules t = Float.max 0.0 (t.capacity -. t.consumed)
let depleted t = t.consumed >= t.capacity

let lifetime_seconds t ~duty_cycles_per_second =
  let active_watt = duty_cycles_per_second *. t.active_nj_per_cycle *. 1e-9 in
  let sleep_watt = t.sleep_microwatt *. 1e-6 in
  t.capacity /. (active_watt +. sleep_watt)
