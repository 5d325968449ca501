(** Battery / energy model for quantifying the paper's DoS claims (§1,
    §3.1: bogus attestation requests "waste energy (deplete batteries)").

    The model is deliberately simple and documented: active execution
    costs a fixed energy per cycle, idle time a fixed sleep power. The
    defaults approximate a low-power 32-bit MCU (~0.5 nJ/cycle active,
    ~2 µW sleep) on a CR2032-class cell (~2340 J); the benches sweep the
    request rate, so the *shape* of the depletion curve — not the exact
    constants — carries the result. *)

type t

val create :
  ?capacity_joules:float ->
  ?active_nj_per_cycle:float ->
  ?sleep_microwatt:float ->
  ?radio_uj_per_byte:float ->
  unit ->
  t

val consume_cycles : t -> int64 -> unit
(** Charge active energy for executed cycles. *)

val consume_sleep : t -> seconds:float -> unit
(** Charge sleep power for idle wall-clock time. *)

val consume_radio : t -> bytes:int -> unit
(** Charge radio energy for transmitting or receiving a frame. Protocol
    messages cost energy too — a flood hurts even before the CPU runs. *)

val consumed_joules : t -> float
val remaining_joules : t -> float
val depleted : t -> bool

val active_nj_per_cycle : t -> float
val sleep_microwatt : t -> float
val radio_uj_per_byte : t -> float
(** The model constants this battery was created with — read by the
    profiler to attribute per-phase energy with exactly the same
    arithmetic the battery itself uses. *)

val lifetime_seconds : t -> duty_cycles_per_second:float -> float
(** Predicted lifetime from full charge if the device executes
    [duty_cycles_per_second] cycles each second and sleeps otherwise.
    Used for the DoS sweep: attestation floods raise the duty cycle. *)
