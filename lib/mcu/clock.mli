(** The prover's real-time clock, in the paper's two hardware shapes
    (§6.2, Figure 1):

    - {b dedicated counter register} ([create_hw_counter]): a read-only
      hardware register incremented every [2^divider_log2] cycles. Wide
      enough (64 bit) it never wraps in the device lifetime; a 32-bit
      register needs a divider to push wrap-around out (§6.3's
      "divide by 2^20 → 6 years at 42 ms resolution" example).

    - {b SW-clock} ([create_sw_clock]): a short hardware counter
      [Clock_LSB] that interrupts on wrap-around; trusted [Code_clock]
      maintains the high-order share [Clock_MSB] in writable memory, so
      [Clock_MSB ++ Clock_LSB] forms the clock. The MSB cell and the IDT
      are ordinary memory — protect them with EA-MPU rules or the roaming
      adversary rolls the clock back / stops it.

    The hardware-counter register has no memory address and cannot be
    written by software at all; [Clock_MSB] writes go through the MPU. *)

type t

val create_hw_counter : Cpu.t -> width:int -> divider_log2:int -> t
(** @raise Invalid_argument unless [1 <= width <= 64] and divider ≥ 0. *)

val create_sw_clock :
  Cpu.t ->
  Interrupt.t ->
  lsb_width:int ->
  divider_log2:int ->
  msb_addr:int ->
  timer_vector:int ->
  handler_entry:int ->
  handler_region:string ->
  t
(** Installs the wrap-around listener on the CPU cycle counter, registers
    [Code_clock]'s entry point and points the IDT vector at it. The
    handler swallows protection faults (a misconfigured MPU silently
    stops the clock, it does not crash the device — that *is* the
    attack's effect). *)

type kind = Hw_counter | Sw_clock

val kind : t -> kind

val ticks : t -> int64
(** Current clock value in ticks. For the SW-clock this performs a
    software (MPU-mediated) read of [Clock_MSB] in the current execution
    context. *)

val seconds : t -> float
(** [ticks] scaled by the tick period. *)

val resolution_seconds : t -> float
val msb_addr : t -> int option
val lsb_width : t -> int option

val wraparound_seconds : hz:int -> width:int -> divider_log2:int -> float
(** Lifetime before a counter of [width] bits with the given divider
    wraps: [2^(width+divider) / hz]. *)

val wraparound_years : hz:int -> width:int -> divider_log2:int -> float
